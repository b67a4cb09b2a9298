"""Generated input files through the command line: an exit code, never a traceback.

Each example writes a dataset CSV and a config file into a fresh
temporary directory and runs ``cli.main`` in process on one of the
``cv``, ``predict``, ``classify`` and ``simulate`` subcommands (the
``benchmark`` one starts worker processes and is left out). Whatever
the files hold (ragged rows, missing or duplicated header names, empty
files, non-finite numbers, label codes from -1 to 10**9, malformed
config lines), the run must end with an exit code in {0, 1, 2, 3}, and a
failed run must end with exactly one error line on standard error.
"""

import contextlib
import io
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spatialknn.cli import main

FUZZ = settings(
    derandomize=True,
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

COLUMNS = ("s1", "s2", "x", "y", "p")
COORDS = st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0))
REALS = st.floats(-10.0, 10.0, allow_nan=False, width=32)
# finite, but huge or subnormal
EXTREME_REALS = st.one_of(REALS, st.sampled_from((-0.0, 1e300, -1e300, 5e-324)))
CODES = st.sampled_from((0, 1, 2, -1, 3000, 10**9))
ODD_CELLS = st.sampled_from(
    ("nan", "inf", "-inf", "", "abc", "1e400", " 1.5 ", "0x10", "1.0", "9" * 30)
)
#: What one example breaks; most examples break nothing.
DAMAGES = ("none",) * 12 + (
    "drop column",
    "duplicate column",
    "blank column name",
    "empty file",
    "few rows",
    "extreme values",
    "odd cell",
    "short row",
    "long row",
    "config line",
    "config section",
    "empty config",
    "odd setting",
)
PROGRESS = ("classify: ", "selected ")
ERRORS = ("error: ", "data error: ", "numerical failure: ")


@st.composite
def csv_files(draw, damage):
    """Text of a dataset file: s1, s2, x, y and label codes p."""
    if damage == "empty file":
        return ""
    header = list(COLUMNS)
    if damage == "drop column":
        header.remove(draw(st.sampled_from(COLUMNS)))
    elif damage == "duplicate column":
        header.append(draw(st.sampled_from(COLUMNS)))
    elif damage == "blank column name":
        header[draw(st.integers(0, len(header) - 1))] = ""
    codes = draw(st.lists(CODES, min_size=1, max_size=3, unique=True))
    reals = EXTREME_REALS if damage == "extreme values" else REALS
    rows = []
    n = draw(st.integers(0, 3) if damage == "few rows" else st.integers(12, 30))
    for _ in range(n):
        cells = {
            "s1": repr(draw(COORDS)),
            "s2": repr(draw(COORDS)),
            "x": repr(draw(reals)),
            "y": repr(draw(reals)),
            "p": str(draw(st.sampled_from(codes))),
        }
        rows.append([cells.get(name, "1.0") for name in header])
    if rows and damage in ("odd cell", "short row", "long row"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if damage == "odd cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        elif damage == "short row":
            row.pop()
        else:
            row.append("1.0")
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _values(draw, items):
    return ", ".join(str(v) for v in draw(st.lists(items, min_size=1, max_size=3)))


@st.composite
def config_files(draw, mode, damage, data_path, out_path):
    """Text of a config file for ``mode`` naming the files of the example."""
    odd = damage == "odd setting"
    sections = {"run": [f"mode = {mode}"]}
    if draw(st.booleans()):
        seeds = st.sampled_from((-1, "x", 2**64)) if odd else st.integers(0, 5)
        sections["run"].append(f"seed = {draw(seeds)}")
    if mode in ("cv", "predict"):
        methods = ("knn", "nw", "kernel") if odd else ("knn", "nw")
        sections["run"].append(f"method = {draw(st.sampled_from(methods))}")
    if mode == "simulate":
        side = st.integers(0, 4) if odd else st.integers(1, 4)
        shape = f"{draw(side)}x{draw(side)}"
        bad = st.sampled_from(("nan", "inf", "-1.0", "0.0", "x"))
        sections["simulation"] = [
            f"shape = {draw(st.sampled_from(('4', '2x2x2'))) if odd else shape}",
            f"a = {draw(bad if odd else st.floats(0.5, 10.0))}",
            f"sigma = {draw(bad if odd else st.floats(0.01, 5.0))}",
        ]
        sections["output"] = [f"path = {out_path}"]
    else:
        data = [
            f"path = {data_path}",
            "site_columns = s1, s2",
            "covariate_columns = x",
            "label_column = p" if mode == "classify" else "response_column = y",
        ]
        if mode == "predict":
            data.append(f"target = {data_path}")
        if mode == "classify" and (odd or draw(st.booleans())):
            fractions = (0.0, 1.0, 1e-9, "half") if odd else (0.5, 0.8, 0.99)
            data.append(f"train_fraction = {draw(st.sampled_from(fractions))}")
        sections["data"] = data
        if odd or draw(st.booleans()):
            counts = st.sampled_from((0, -1, 35)) if odd else st.integers(1, 4)
            widths = st.sampled_from((0.0, -1.0, 1e300, 5e-324)) if odd else st.floats(0.05, 3.0)
            sections["grid"] = [
                f"k_values = {_values(draw, counts)}",
                f"k_prime_values = {_values(draw, counts)}",
                f"h_values = {_values(draw, widths)}",
                f"rho_values = {_values(draw, widths)}",
            ]
    lines = []
    for name, body in sections.items():
        lines += [f"[{name}]", *body, ""]
    if damage == "empty config":
        return ""
    if damage == "config line":
        bad = draw(st.sampled_from(("garbage", "[run", "= 3", "  indented = 1", "[data]")))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    elif damage == "config section":
        lines += ["[run]", f"mode = {mode}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["classify", "cv", "predict", "simulate"])
@FUZZ
@given(damage=st.sampled_from(DAMAGES), data=st.data())
def test_generated_files_end_in_an_exit_code_and_one_error_line(mode, damage, data):
    with tempfile.TemporaryDirectory() as tmp:
        data_path = os.path.join(tmp, "data.csv")
        out_path = os.path.join(tmp, "out.csv")
        with open(data_path, "w") as fh:
            fh.write(data.draw(csv_files(damage)))
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(data.draw(config_files(mode, damage, data_path, out_path)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main([mode, "--config", cfg_path])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert all(line.startswith(PROGRESS) for line in lines[:-1]), lines
    if code == 0:
        assert not lines or lines[-1].startswith(PROGRESS), lines
    else:
        assert lines and lines[-1].startswith(ERRORS), lines
