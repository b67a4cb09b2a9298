"""Layer spans for one spatialknn CLI call, recorded from outside the package.

The package has no tracing of its own, so this module wraps the public
functions of each layer and rebinds every module attribute that refers
to them (``from .kernels import eval_scalar`` in ``estimator`` is one
such attribute). Nothing under ``src/`` changes; :meth:`Rebinder.restore`
puts every original back.

A span's self time is its duration minus the durations of the spans it
directly encloses. Spans nest through one stack per process. The
replication benchmark forks pool workers, which inherit the wrappers;
each worker clears the stack it inherited and appends what it recorded
to ``worker-<pid>.jsonl`` after every task, so the parent can merge the
workers' spans into the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

#: (layer, function) pairs that get a span, in report order.
LAYERS = (
    ("cli", "main"),
    ("dataio", "parse_config"),
    ("dataio", "read_dataset"),
    ("dataio", "write_report"),
    ("evaluation", "default_grid"),
    ("evaluation", "cv_select"),
    ("evaluation", "cv_select_classification"),
    ("evaluation", "holdout_predictions"),
    ("evaluation", "holdout_labels"),
    ("evaluation", "stratified_split"),
    ("evaluation", "benchmark_replications"),
    ("estimator", "predict"),
    ("estimator", "classify"),
    ("estimator", "knn_weights"),
    ("estimator", "nw_weights"),
    ("neighbors", "knn_bandwidth"),
    ("neighbors", "spatial_bandwidth"),
    ("kernels", "eval_scalar"),
    ("lattice", "pairwise_distances"),
    ("lattice", "distances_to"),
    ("simulate", "gen_dataset"),
    ("simulate", "sample_grf"),
)

#: Layers whose per-call durations are kept for percentiles.
SAMPLED = ("estimator.predict", "estimator.classify")

POOL_KEY = "evaluation.benchmark_replications"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "spatialknn" or name.startswith("spatialknn."))
    ]


class Rebinder:
    """Replaces an object under every name the package binds it to."""

    def __init__(self):
        self._bound = []  # (module, attribute, original)

    def rebind(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._bound.append((module, attr, original))

    def bind_one(self, module, attr: str, replacement) -> None:
        self._bound.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def bound_names(self):
        return [(m.__name__, attr, orig) for m, attr, orig in self._bound]


def _grid_points(args, kwargs) -> int:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    method = args[2] if len(args) > 2 else kwargs.get("method", "knn")
    if method == "knn":
        main, aux = grid.k_values, grid.k_prime_values
    else:
        main, aux = grid.h_values, grid.rho_values
    return (
        len(dict.fromkeys(main))
        * len(dict.fromkeys(aux))
        * len(dict.fromkeys(grid.k1_specs))
        * len(dict.fromkeys(grid.k2_specs))
    )


def _count_eval_scalar(stat, args, kwargs, result):
    elements = int(np.size(args[1] if len(args) > 1 else kwargs["u"]))
    stat["elements"] += elements
    # float64 argument read plus float64 result written
    stat["bytes_computed"] += 16 * elements


def _count_pairwise(stat, args, kwargs, result):
    coords = np.atleast_2d(np.asarray(args[0]))
    n, d = coords.shape
    # (n, n, d) difference tensor plus the (n, n) distance matrix
    stat["bytes_computed"] += 8 * n * n * (d + 1)


def _count_grid(stat, args, kwargs, result):
    stat["grid_points"] += _grid_points(args, kwargs)


def _count_unnormalized(stat, args, kwargs, result):
    stat["unnormalized"] += 0 if result.normalized else 1


def _count_read(stat, args, kwargs, result):
    stat["bytes"] += os.path.getsize(args[0])


def _count_write(stat, args, kwargs, result):
    stat["bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


COUNTERS = {
    "kernels.eval_scalar": _count_eval_scalar,
    "lattice.pairwise_distances": _count_pairwise,
    "evaluation.cv_select": _count_grid,
    "evaluation.cv_select_classification": _count_grid,
    "estimator.knn_weights": _count_unnormalized,
    "estimator.nw_weights": _count_unnormalized,
    "dataio.read_dataset": _count_read,
    "dataio.write_report": _count_write,
}

#: Extra per-layer fields beyond calls/total_s/self_s, zero when unused.
EXTRA_FIELDS = {
    "kernels.eval_scalar": ("elements", "bytes_computed"),
    "lattice.pairwise_distances": ("bytes_computed",),
    "evaluation.cv_select": ("grid_points",),
    "evaluation.cv_select_classification": ("grid_points",),
    "estimator.knn_weights": ("unnormalized",),
    "estimator.nw_weights": ("unnormalized",),
    "dataio.read_dataset": ("bytes",),
    "dataio.write_report": ("bytes",),
    POOL_KEY: ("worker_busy_s", "pool_wait_s"),
}


def empty_stats() -> dict:
    stats = {}
    for layer, fn in LAYERS:
        key = f"{layer}.{fn}"
        stats[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for field in EXTRA_FIELDS.get(key, ()):
            stats[key][field] = 0
    return stats


def merge_stats(into: dict, other: dict) -> None:
    for key, fields in other.items():
        for field, value in fields.items():
            into[key][field] += value


_active = None  # the installed Tracer; pool tasks find it after a fork


class Tracer:
    """Spans and counters for every layer in :data:`LAYERS`."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.stats = empty_stats()
        self.samples = {key: [] for key in SAMPLED}
        self._stack = []
        self._rebinder = Rebinder()

    def _wrap(self, key, fn):
        stat = self.stats[key]
        counter = COUNTERS.get(key)
        samples = self.samples.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - children[0]
                if samples is not None:
                    samples.append(elapsed)
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        global _active
        for layer, fn in LAYERS:
            module = importlib.import_module(f"spatialknn.{layer}")
            original = getattr(module, fn)
            self._rebinder.rebind(original, self._wrap(f"{layer}.{fn}", original))
        self._rebinder.rebind(ProcessPoolExecutor, _TimedPool)
        _active = self
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        global _active
        self._rebinder.restore()
        _active = None

    def bound_names(self):
        return self._rebinder.bound_names()

    def _reset(self) -> None:
        for stat in self.stats.values():
            for field in stat:
                stat[field] = 0
        for samples in self.samples.values():
            samples.clear()

    def _after_fork(self) -> None:
        # A forked worker starts inside its parent's open spans; those
        # belong to the parent, so the worker counts from zero.
        if _active is self:
            self._stack.clear()
            self._reset()

    def flush_worker(self) -> None:
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"stats": self.stats, "samples": self.samples}) + "\n")
        self._reset()

    def write_main(self) -> None:
        path = os.path.join(self.trace_dir, "main.json")
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "samples": self.samples}, fh)


class _TimedTask:
    """A pool task that records its queue wait and run time in the worker."""

    def __init__(self, fn, submitted: float):
        self.fn = fn
        self.submitted = submitted

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            tracer = _active
            if tracer is not None:
                stat = tracer.stats[POOL_KEY]
                # perf_counter is CLOCK_MONOTONIC, shared by all processes
                stat["pool_wait_s"] += start - self.submitted
                stat["worker_busy_s"] += perf_counter() - start
                tracer.flush_worker()


class _TimedPool(ProcessPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_TimedTask(fn, perf_counter()), *args, **kwargs)


def load_trace(trace_dir: str):
    """Stats and samples of one traced process and its pool workers, and
    the main process's summed self time (the time its spans account for)."""
    with open(os.path.join(trace_dir, "main.json")) as fh:
        main = json.load(fh)
    stats, samples = main["stats"], main["samples"]
    main_self = sum(fields["self_s"] for fields in stats.values())
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(trace_dir, name)) as fh:
                for line in fh:
                    record = json.loads(line)
                    merge_stats(stats, record["stats"])
                    for key, values in record["samples"].items():
                        samples[key].extend(values)
    return stats, samples, main_self
