"""The package's public surface and what the benchmark harness relies on.

``perfbench/tracer.py`` wraps the functions its ``LAYERS`` table names
and reads some of their arguments by position; ``perfbench/cli_entry.py``
rebinds three names in ``spatialknn.cli``. A missing or renamed name
would crash every traced call, so these tests check the contract here.
``LAYERS`` is read from the tracer's source, which is not imported.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

import spatialknn
from spatialknn import cli, evaluation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Argument names the tracer's counters read, by position.
COUNTED_PARAMETERS = {
    ("kernels", "eval_scalar"): ("name", "u"),
    ("lattice", "pairwise_distances"): ("coords",),
    ("evaluation", "cv_select"): ("data", "grid", "method"),
    ("evaluation", "cv_select_classification"): ("data", "grid", "method"),
    ("dataio", "read_dataset"): ("path",),
    ("dataio", "write_report"): ("report", "path"),
}

#: (module, name) of each removed name; README.md names the replacements.
REMOVED = (
    ("lattice", "site_distance"),
    ("kernels", "eval_radial"),
    ("kernels", "KERNEL_INTEGRALS"),
    ("estimator", "class_scores"),
    ("estimator", "predict_nw"),
    ("evaluation", "loo_score"),
    ("evaluation", "loo_ccr"),
    ("dataio", "_eval_report_rows"),
    ("dataio", "_ccr_report_rows"),
    ("cli", "CommandOutcome"),
    ("simulate", "survey_dataset"),
)


def traced_layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


# ---------------------------------------------------------------------------
# public names


def test_all_lists_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(spatialknn).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public) == spatialknn.__all__
    for name in spatialknn.__all__:
        assert getattr(spatialknn, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spatialknn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == spatialknn.__all__


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(spatialknn, name)
    assert not hasattr(importlib.import_module(f"spatialknn.{module}"), name)


def test_eval_report_carries_no_test_statistic():
    fields = {f.name for f in dataclasses.fields(evaluation.EvalReport)}
    assert fields == {"per_replication_metric", "mean", "sd"}


def test_ccr_report_carries_only_rates():
    fields = {f.name for f in dataclasses.fields(evaluation.CcrReport)}
    assert fields == {"overall", "per_class"}


def test_class_count_comes_from_the_labels():
    # only ccr, which scores bare arrays, is told how many classes there are
    for name in spatialknn.__all__:
        value = getattr(spatialknn, name)
        if inspect.isfunction(value):
            params = inspect.signature(value).parameters
            assert ("n_classes" in params) == (name == "ccr"), name
    exclude = inspect.signature(spatialknn.classify).parameters["exclude"]
    assert exclude.kind is inspect.Parameter.KEYWORD_ONLY


# ---------------------------------------------------------------------------
# the benchmark harness contract


def test_traced_layers_are_distinct_functions():
    layers = traced_layers()
    assert len(layers) == 22
    functions = [
        getattr(importlib.import_module(f"spatialknn.{layer}"), fn) for layer, fn in layers
    ]
    assert all(inspect.isfunction(f) for f in functions)
    assert len({id(f) for f in functions}) == len(functions)


@pytest.mark.parametrize("layer, fn", sorted(COUNTED_PARAMETERS))
def test_counted_arguments_keep_their_positions(layer, fn):
    assert (layer, fn) in traced_layers()
    function = getattr(importlib.import_module(f"spatialknn.{layer}"), fn)
    names = tuple(inspect.signature(function).parameters)
    want = COUNTED_PARAMETERS[layer, fn]
    assert names[: len(want)] == want


def test_cli_binds_the_names_cli_entry_rebinds():
    for name in ("holdout_predictions", "holdout_labels", "stratified_split"):
        assert getattr(cli, name) is getattr(evaluation, name)
    for name in ("holdout_predictions", "holdout_labels"):
        params = tuple(inspect.signature(getattr(cli, name)).parameters)
        assert params[:3] == ("train", "test", "params")
