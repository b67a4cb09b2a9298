"""Command-line front end tests.

Everything runs in process through ``main(argv)``; configs and data
files live in tmp_path. Oracles recompute the reports with direct
library calls on the same files.
"""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spatialknn
from spatialknn import evaluation
from spatialknn.cli import main
from spatialknn.dataio import CsvSchema, parse_config, read_dataset
from spatialknn.evaluation import (
    ParamGrid,
    benchmark_replications,
    cv_select,
    default_grid,
    holdout_predictions,
    mae,
)
from spatialknn.kernels import KERNEL_NAMES
from spatialknn.simulate import DgpParams, gen_dataset

SIM_SCHEMA = CsvSchema(("s1", "s2"), ("x",), response_column="y")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def simulate(tmp_path, name, seed=3, shape="6x6"):
    """Generate a dataset file through the CLI and return its path."""
    cfg = write(
        tmp_path,
        f"cfg_{name}.cfg",
        f"[run]\nmode = simulate\nseed = {seed}\n\n"
        f"[simulation]\nshape = {shape}\na = 5.0\nsigma = 0.1\n",
    )
    out = str(tmp_path / name)
    assert main(["simulate", "--config", cfg, "--output", out]) == 0
    return out


# ---------------------------------------------------------------------------
# argument handling and exit codes


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "simulate" in out and "benchmark" in out


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["warp"], ["cv", "--bogus"], ["cv", "--format", "json"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err


def test_threads_flag_must_be_positive(capsys):
    code, _, err = run(capsys, "cv", "--threads", "0")
    assert code == 1 and "--threads" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "cv", "--config", "/nonexistent.cfg")
    assert code == 1 and "cannot read config" in err


def test_config_mode_must_match_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", "[run]\nmode = simulate\n")
    code, _, err = run(capsys, "cv", "--config", cfg)
    assert code == 1 and "subcommand" in err


def test_mode_requirements_enforced(tmp_path, capsys):
    # no config at all: cv lacks its data path
    code, _, err = run(capsys, "cv")
    assert code == 1 and "[data] path" in err
    cfg = write(
        tmp_path,
        "b.cfg",
        "[run]\nmode = benchmark\n\n[simulation]\nshapes = 7x7\n"
        "a_values = 5.0\nsigma_values = 0.1\nn_reps = 2\n",
    )
    code, _, err = run(capsys, "benchmark", "--config", cfg)
    assert code == 1 and "seed" in err


def test_malformed_config_message_is_one_line(tmp_path, capsys):
    # configparser spreads these messages over several lines
    for text in ("not a section\n", "[run]\nmode = cv\n= 3\n"):
        cfg = write(tmp_path, "bad.cfg", text)
        code, _, err = run(capsys, "cv", "--config", cfg)
        assert code == 1
        assert err.startswith("error: malformed config") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, source):
    # numpy's seeding rejected it later with "expected non-negative integer"
    seed = "\nseed = -1" if source == "config" else ""
    cfg = write(
        tmp_path,
        "s.cfg",
        f"[run]\nmode = simulate{seed}\n\n[simulation]\nshape = 4x4\na = 5.0\nsigma = 0.1\n",
    )
    flag = ["--seed", "-1"] if source == "flag" else []
    out = str(tmp_path / "d.csv")
    code, _, err = run(capsys, "simulate", "--config", cfg, "--output", out, *flag)
    assert code == 1 and "seed must be >= 0, got -1" in err


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(spatialknn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "table.csv"
    argv = ["classify", "--config", classify_config(tmp_path, presence_file(tmp_path))]
    done = subprocess.run(
        [sys.executable, "-m", "spatialknn.cli", *argv, "--output", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "best knn pair" in done.stdout
    assert out.read_text().startswith("k1,k2,knn_all,knn_y1,knn_y0,")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_and_seed_override(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "sim.cfg",
        "[run]\nmode = simulate\nseed = 3\n\n"
        "[simulation]\nshape = 5x5\na = 5.0\nsigma = 0.1\n",
    )
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    code, out, _ = run(capsys, "simulate", "--config", cfg, "--output", str(a))
    assert code == 0
    assert "wrote 25 sites (5x5, seed 3)" in out
    run(capsys, "simulate", "--config", cfg, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()
    run(capsys, "simulate", "--config", cfg, "--output", str(c), "--seed", "4")
    assert a.read_bytes() != c.read_bytes()
    data = read_dataset(a, SIM_SCHEMA)
    assert len(data) == 25


def test_simulate_rejects_bad_range_parameter(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "sim.cfg",
        "[run]\nmode = simulate\n\n[simulation]\nshape = 5x5\na = -1.0\nsigma = 0.1\n",
    )
    code, _, err = run(capsys, "simulate", "--config", cfg, "--output", str(tmp_path / "x.csv"))
    assert code == 1 and "error:" in err


def test_simulate_unwritable_output(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "sim.cfg",
        "[run]\nmode = simulate\n\n[simulation]\nshape = 5x5\na = 5.0\nsigma = 0.1\n",
    )
    code, _, err = run(
        capsys, "simulate", "--config", cfg, "--output", str(tmp_path / "no" / "x.csv")
    )
    assert code == 2 and "cannot write" in err


# ---------------------------------------------------------------------------
# cv and predict


CV_GRID = "[grid]\nk_values = 3, 6\nk_prime_values = 4, 8\n"


def cv_config(tmp_path, data_path, extra=""):
    return write(
        tmp_path,
        "cv.cfg",
        "[run]\nmode = cv\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n\n" + CV_GRID + extra,
    )


def test_cv_report_matches_library(tmp_path, capsys):
    data_path = simulate(tmp_path, "d.csv")
    out = tmp_path / "report.csv"
    cfg = cv_config(tmp_path, data_path)
    code, _, _ = run(capsys, "cv", "--config", cfg, "--output", str(out))
    assert code == 0
    data = read_dataset(data_path, SIM_SCHEMA)
    params, score = cv_select(data, ParamGrid(k_values=(3, 6), k_prime_values=(4, 8)), "knn")
    lines = out.read_text().splitlines()
    assert lines[0] == "method,k,k_prime,h,rho,k1,k2,loo_mae"
    assert lines[1] == f"knn,{params.k},{params.k_prime},,,{params.k1},{params.k2},{score!r}"


@pytest.mark.parametrize("rows", ["", "0.0,0.0,1.0,2.0\n"], ids=["no site", "one site"])
@pytest.mark.parametrize(
    "grid", [CV_GRID, "[grid]\nh_values = 1.0\nrho_values = 1.0\n"], ids=["knn", "nw"]
)
def test_cv_under_two_sites_is_an_error(tmp_path, capsys, rows, grid):
    # a header-only file with an nw grid raised ZeroDivisionError, and a knn
    # grid said "exceeds the -1 available points"
    data_path = write(tmp_path, "d.csv", "s1,s2,x,y\n" + rows)
    cfg = write(
        tmp_path,
        "cv.cfg",
        f"[run]\nmode = cv\nmethod = {'nw' if 'h_values' in grid else 'knn'}\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n\n" + grid,
    )
    code, _, err = run(capsys, "cv", "--config", cfg)
    assert code == 1 and err == "error: leave-one-out needs at least 2 sites\n"


@pytest.mark.parametrize(
    "grid", [CV_GRID, "[grid]\nh_values = 1.0\nrho_values = 1.0\n", ""],
    ids=["knn", "nw", "nw default grid"],
)
def test_cv_distance_overflow_is_a_data_error(tmp_path, capsys, grid):
    # six covariates of +-1e300 among 20 sites: their squared differences
    # overflowed to inf, which reads as "excluded", and the run failed on
    # a rank ("k=6 out of range"), on an empty bandwidth scale, or reported
    # a search that ignored those sites
    rows = [
        f"{float(i % 5)!r},{float(i // 5)!r},{x!r},{float(i)!r}"
        for i, x in enumerate([1e300, -1e300] * 3 + [0.1 * i for i in range(14)])
    ]
    data_path = write(tmp_path, "d.csv", "s1,s2,x,y\n" + "\n".join(rows) + "\n")
    method = "knn" if "k_values" in grid else "nw"
    cfg = write(
        tmp_path,
        "cv.cfg",
        f"[run]\nmode = cv\nmethod = {method}\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n\n" + grid,
    )
    code, _, err = run(capsys, "cv", "--config", cfg)
    assert code == 2
    assert err.startswith("data error: ") and "overflow" in err and err.count("\n") == 1


def response_file(tmp_path, name, responses):
    """Sites on a 5-column grid with covariate 0.1 * i and the given responses."""
    rows = [
        f"{float(i % 5)!r},{float(i // 5)!r},{0.1 * i!r},{y!r}"
        for i, y in enumerate(responses)
    ]
    return write(tmp_path, name, "s1,s2,x,y\n" + "\n".join(rows) + "\n")


RESPONSE_OVERFLOW = "data error: responses overflow float64 in a mean or an error sum\n"


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_cv_response_overflow_is_a_data_error(tmp_path, capsys, method):
    # finite responses whose weighted means and errors overflowed: the run
    # reported loo_mae=inf, warned and exited 0
    data_path = response_file(tmp_path, "d.csv", [1e300, 1.7e308] * 5)
    cfg = write(
        tmp_path,
        "cv.cfg",
        f"[run]\nmode = cv\nmethod = {method}\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n",
    )
    code, out, err = run(capsys, "cv", "--config", cfg)
    assert (code, out, err) == (2, "", RESPONSE_OVERFLOW)


@pytest.mark.parametrize(
    "train, target",
    [([1e300, 1.7e308] * 5, [1.0] * 10), ([-1e307] * 10, [1.7e308] * 10)],
    ids=["training means", "reported mae"],
)
def test_predict_response_overflow_is_a_data_error(tmp_path, capsys, train, target):
    # the second case tunes and predicts finite values; only the reported
    # MAE, |1.7e308 - -1e307| per site, overflows
    train_path = response_file(tmp_path, "train.csv", train)
    target_path = response_file(tmp_path, "target.csv", target)
    cfg = write(
        tmp_path,
        "pred.cfg",
        "[run]\nmode = predict\n\n"
        f"[data]\npath = {train_path}\ntarget = {target_path}\n"
        "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n",
    )
    code, out, err = run(capsys, "predict", "--config", cfg)
    assert (code, out, err.splitlines(keepends=True)[-1]) == (2, "", RESPONSE_OVERFLOW)


def test_cv_prints_to_stdout_without_output(tmp_path, capsys):
    data_path = simulate(tmp_path, "d.csv")
    cfg = cv_config(tmp_path, data_path)
    capsys.readouterr()  # drop the simulate helper's chatter
    code, out, _ = run(capsys, "cv", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("method,")
    assert lines[1].startswith("knn,")
    assert lines[2].startswith("knn: k=")  # summary after the table


def test_predict_reports_rows_then_mae(tmp_path, capsys):
    train_path = simulate(tmp_path, "train.csv", seed=3)
    target_path = simulate(tmp_path, "target.csv", seed=4)
    out = tmp_path / "pred.csv"
    cfg = write(
        tmp_path,
        "pred.cfg",
        "[run]\nmode = predict\n\n"
        f"[data]\npath = {train_path}\ntarget = {target_path}\n"
        "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n\n"
        "[grid]\nk_values = 4\nk_prime_values = 6\n",
    )
    code, out_text, _ = run(capsys, "predict", "--config", cfg, "--output", str(out))
    assert code == 0

    train = read_dataset(train_path, SIM_SCHEMA)
    target = read_dataset(target_path, SIM_SCHEMA)
    params, _ = cv_select(train, ParamGrid(k_values=(4,), k_prime_values=(6,)), "knn")
    preds = holdout_predictions(train, target, params)
    err = mae(target.responses, preds)

    lines = out.read_text().splitlines()
    assert lines[0] == "s1,s2,y,prediction"
    assert len(lines) == len(target) + 2
    first = lines[1].split(",")
    assert [float(v) for v in first] == [
        target.sites.coords[0][0],
        target.sites.coords[0][1],
        target.responses[0],
        preds[0],
    ]
    assert lines[-1] == f"mae,,,{err!r}"
    assert f"mae={err!r}" in out_text


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_predict_report_does_not_depend_on_block_rows(tmp_path, capsys, monkeypatch, method):
    train_path = simulate(tmp_path, "train.csv", seed=3, shape="10x10")
    target_path = simulate(tmp_path, "target.csv", seed=4, shape="10x10")
    cfg = write(
        tmp_path,
        "pred.cfg",
        f"[run]\nmode = predict\nmethod = {method}\n\n"
        f"[data]\npath = {train_path}\ntarget = {target_path}\n"
        "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n",
    )
    train = read_dataset(train_path, SIM_SCHEMA)
    grid = default_grid(train, method)
    mains = len(grid.k_values or grid.h_values)
    reports = []
    for budget in (evaluation._COVARIATE_BLOCK_BYTES, 8 * len(train) * mains * 5):
        monkeypatch.setattr(evaluation, "_COVARIATE_BLOCK_BYTES", budget)
        out = tmp_path / f"pred_{budget}.csv"
        code, _, err = run(capsys, "predict", "--config", cfg, "--output", str(out))
        assert code == 0, err
        reports.append(out.read_bytes())
    # the second run scored the training sites in 20 blocks of 5 rows
    assert len(evaluation._row_blocks(len(train), mains)) == 20
    assert reports[0] == reports[1]


def test_predict_missing_target_file(tmp_path, capsys):
    train_path = simulate(tmp_path, "train.csv")
    cfg = write(
        tmp_path,
        "pred.cfg",
        "[run]\nmode = predict\n\n"
        f"[data]\npath = {train_path}\ntarget = {tmp_path}/gone.csv\n"
        "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n",
    )
    code, _, err = run(capsys, "predict", "--config", cfg)
    assert code == 2 and "cannot read" in err


# ---------------------------------------------------------------------------
# classify


def presence_file(tmp_path):
    rows = ["s1,s2,x,p"]
    for i in range(20):
        present = 1 if i >= 12 else 0
        x = 5.0 + 0.1 * i if present else 0.1 * i
        rows.append(f"{float(i % 4)!r},{float(i // 4)!r},{x!r},{present}")
    return write(tmp_path, "presence.csv", "\n".join(rows) + "\n")


def classify_config(tmp_path, data_path):
    return write(
        tmp_path,
        "cls.cfg",
        "[run]\nmode = classify\nseed = 1\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nlabel_column = p\n\n"
        "[grid]\nk_values = 3\nk_prime_values = 3\nh_values = 2.0\nrho_values = 1.0\n",
    )


def test_classify_table_layout_and_determinism(tmp_path, capsys):
    cfg = classify_config(tmp_path, presence_file(tmp_path))
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    code, summary, _ = run(capsys, "classify", "--config", cfg, "--output", str(out1))
    assert code == 0
    assert "best knn pair" in summary
    lines = out1.read_text().splitlines()
    # 0/1 presence data reports the presence class (y1) before absence
    assert lines[0] == "k1,k2,knn_all,knn_y1,knn_y0,nw_all,nw_y1,nw_y0"
    assert len(lines) == 37
    pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert pairs == [(k1, k2) for k1 in KERNEL_NAMES for k2 in KERNEL_NAMES]
    # overall rate recombines the per-class rates over the 2+2 test split
    knn_all, knn_y1, knn_y0 = (float(v) for v in lines[1].split(",")[2:5])
    assert knn_all == pytest.approx((2 * knn_y1 + 2 * knn_y0) / 4, abs=1e-12)
    run(capsys, "classify", "--config", cfg, "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_label_out_of_int64_range_is_a_data_error(tmp_path, capsys):
    rows = open(presence_file(tmp_path)).read().splitlines()
    cells = rows[5].split(",")
    cells[3] = "10000000000000000000000000"
    rows[5] = ",".join(cells)
    data = write(tmp_path, "huge.csv", "\n".join(rows) + "\n")
    code, _, err = run(capsys, "classify", "--config", classify_config(tmp_path, data))
    assert code == 2
    assert "line 6, column 'p'" in err and "out of range" in err


@pytest.mark.parametrize("codes", [(1, 2, 3), (1, 3), (0, 2), (-1, 1), (1, 3000), (1, 10**9)])
def test_classify_names_columns_by_label_code(tmp_path, capsys, codes):
    # the codes, ascending, are the classes: the table equals the one of the
    # same sites coded 1..M, under the codes' own column names
    def table(name, values):
        rows = ["s1,s2,x,p"]
        for i in range(24):
            j = i * len(values) // 24
            rows.append(f"{float(i % 4)!r},{float(i // 4)!r},{5.0 * j + 0.1 * i!r},{values[j]}")
        data = write(tmp_path, name, "\n".join(rows) + "\n")
        out = tmp_path / f"{name}.table"
        cfg = classify_config(tmp_path, data)
        code, _, _ = run(capsys, "classify", "--config", cfg, "--output", str(out))
        assert code == 0
        return out.read_text().splitlines()

    got = table("codes.csv", codes)
    blocks = ("all", *(f"class_{c}" for c in codes))
    assert got[0].split(",") == ["k1", "k2", *(f"{m}_{b}" for m in ("knn", "nw") for b in blocks)]
    assert got[1:] == table("classes.csv", range(1, len(codes) + 1))[1:]


def test_classify_header_only_file(tmp_path, capsys):
    # the split of no sites raised "need at least one array to concatenate"
    cfg = classify_config(tmp_path, write(tmp_path, "empty.csv", "s1,s2,x,p\n"))
    code, _, err = run(capsys, "classify", "--config", cfg)
    assert code == 2 and "empty test set" in err


def test_classify_all_singleton_classes(tmp_path, capsys):
    data = write(
        tmp_path, "tiny.csv", "s1,s2,x,p\n0.0,0.0,1.0,1\n1.0,0.0,2.0,2\n0.0,1.0,3.0,3\n"
    )
    cfg = classify_config(tmp_path, data)
    with pytest.warns(UserWarning, match="fewer than 2"):
        code = main(["classify", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2 and "empty test set" in err


# ---------------------------------------------------------------------------
# benchmark


BENCH_CFG = """\
[run]
mode = benchmark
seed = 5

[simulation]
shapes = 6x6
a_values = 5.0
sigma_values = 0.1, 5.0
n_reps = 2

[grid]
k_values = 4
k_prime_values = 5
h_values = 1.0
rho_values = 0.3
"""


def test_benchmark_cells_match_library_seeding(tmp_path, capsys):
    cfg = write(tmp_path, "bench.cfg", BENCH_CFG)
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "benchmark", "--config", cfg, "--output", str(out))
    assert code == 0
    assert "cell 1/2" in err and "cell 2/2" in err

    grids = (
        ParamGrid(k_values=(4,), k_prime_values=(5,)),
        ParamGrid(h_values=(1.0,), rho_values=(0.3,)),
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("shape,sigma,a,n_reps,knn_mean")
    assert len(lines) == 3
    # cell index i runs with base seed 5 + 2 i
    for i, sigma in enumerate((0.1, 5.0)):
        res = benchmark_replications(
            (6, 6), 5.0, sigma, 2, grids=grids, base_seed=5 + 2 * i
        )
        cells = lines[1 + i].split(",")
        assert cells[:4] == ["6x6", repr(sigma), "5.0", "2"]
        assert float(cells[4]) == res.knn.mean
        assert float(cells[6]) == res.nw.mean
        assert float(cells[8]) == res.t_stat


def test_benchmark_byte_identical_across_thread_counts(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "bench.cfg", BENCH_CFG)
    outs = [tmp_path / f"b{i}.csv" for i in range(3)]
    run(capsys, "benchmark", "--config", cfg, "--output", str(outs[0]), "--threads", "1")
    run(capsys, "benchmark", "--config", cfg, "--output", str(outs[1]), "--threads", "2")
    monkeypatch.setenv("SPATIALKNN_THREADS", "2")
    run(capsys, "benchmark", "--config", cfg, "--output", str(outs[2]))
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    assert b"degenerate" not in blobs[0]


def test_benchmark_default_grids_byte_identical_across_thread_counts(tmp_path, capsys):
    # default grids use every kept value: neighbour counts, the rho axis,
    # the site distances and bandwidths of the lattice a worker reuses
    cfg = write(
        tmp_path,
        "bench.cfg",
        "[run]\nmode = benchmark\nseed = 2\n\n"
        "[simulation]\nshapes = 10x10, 9x8\na_values = 5.0\nsigma_values = 0.1\nn_reps = 4\n",
    )
    outs = [tmp_path / f"b{i}.csv" for i in range(2)]
    for threads, out in zip(("1", "2"), outs):
        code, _, _ = run(
            capsys, "benchmark", "--config", cfg, "--output", str(out), "--threads", threads
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 3


def test_benchmark_degenerate_cell_reported(tmp_path, capsys):
    # indicator kernels that keep every neighbour against huge fixed
    # bandwidths: both methods give the all-points average, so the
    # paired differences vanish and the t columns say so
    cfg = write(
        tmp_path,
        "deg.cfg",
        "[run]\nmode = benchmark\nseed = 0\n\n"
        "[simulation]\nshapes = 7x7\na_values = 5.0\nsigma_values = 0.1\nn_reps = 2\n\n"
        "[grid]\nk_values = 48\nk_prime_values = 48\nh_values = 1e9\nrho_values = 1e9\n"
        "k1 = indicator\nk2 = indicator\n",
    )
    out = tmp_path / "deg.csv"
    code, _, _ = run(capsys, "benchmark", "--config", cfg, "--output", str(out))
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[8:] == ["degenerate", "degenerate"]
    assert row[4] == row[6]  # identical means too


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "bench.cfg", BENCH_CFG)
    monkeypatch.setenv("SPATIALKNN_THREADS", "many")
    code, _, err = run(capsys, "benchmark", "--config", cfg)
    assert code == 1 and "not an integer" in err
    monkeypatch.setenv("SPATIALKNN_THREADS", "0")
    code, _, err = run(capsys, "benchmark", "--config", cfg)
    assert code == 1 and ">= 1" in err


@pytest.mark.parametrize("key", ["shapes", "a_values", "sigma_values"])
def test_benchmark_empty_list_key_is_a_config_error(tmp_path, capsys, key):
    # an empty list would run zero cells and write a header-only report
    text = re.sub(rf"^{key} = .*$", f"{key} =", BENCH_CFG, flags=re.M)
    cfg = write(tmp_path, "bench.cfg", text)
    out = tmp_path / "bench.csv"
    code, stdout, err = run(capsys, "benchmark", "--config", cfg, "--output", str(out))
    assert code == 1
    assert err == f"error: [simulation] {key} lists no values\n"
    assert stdout == "" and not out.exists()


def test_benchmark_empty_grid_axis_means_default(tmp_path, capsys):
    cfg = write(tmp_path, "bench.cfg", BENCH_CFG.replace("k_values = 4", "k_values ="))
    code, stdout, err = run(capsys, "benchmark", "--config", cfg, "--print-config")
    assert code == 0, err
    assert "k_values" not in stdout and "k_prime_values = 5" in stdout


# ---------------------------------------------------------------------------
# --print-config


def test_print_config_echo_roundtrip(tmp_path, capsys):
    cfg_path = write(tmp_path, "bench.cfg", BENCH_CFG)
    out = tmp_path / "bench.csv"
    code, echoed, _ = run(
        capsys, "benchmark", "--config", cfg_path, "--output", str(out), "--print-config"
    )
    assert code == 0
    assert not out.exists()  # echo only, nothing ran
    reparsed = parse_config(write(tmp_path, "echo.cfg", echoed))
    want = parse_config(cfg_path, check_required=False)
    want.output_path = str(out)
    from spatialknn.dataio import validate_config

    validate_config(want)
    assert reparsed == want


# ---------------------------------------------------------------------------
# [grid] sections that set only some axes


KERNELS_ONLY = "[grid]\nk1 = indicator\nk2 = gaussian\n"


def kernels_only(grid):
    """``grid`` searched with the kernels of ``KERNELS_ONLY``."""
    return replace(grid, k1_specs=("indicator",), k2_specs=("gaussian",))


def test_cv_grid_of_kernels_only_takes_default_axes(tmp_path, capsys):
    data_path = simulate(tmp_path, "d.csv")
    cfg = write(
        tmp_path,
        "cv.cfg",
        "[run]\nmode = cv\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n\n" + KERNELS_ONLY,
    )
    out = tmp_path / "report.csv"
    code, _, err = run(capsys, "cv", "--config", cfg, "--output", str(out))
    assert code == 0, err
    data = read_dataset(data_path, SIM_SCHEMA)
    params, score = cv_select(data, kernels_only(default_grid(data, "knn")), "knn")
    assert out.read_text().splitlines()[1] == (
        f"knn,{params.k},{params.k_prime},,,indicator,gaussian,{score!r}"
    )


def test_predict_grid_of_kernels_only_takes_default_axes(tmp_path, capsys):
    train_path = simulate(tmp_path, "train.csv", seed=3)
    target_path = simulate(tmp_path, "target.csv", seed=4)
    cfg = write(
        tmp_path,
        "pred.cfg",
        "[run]\nmode = predict\nmethod = nw\n\n"
        f"[data]\npath = {train_path}\ntarget = {target_path}\n"
        "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n\n" + KERNELS_ONLY,
    )
    out = tmp_path / "pred.csv"
    code, _, err = run(capsys, "predict", "--config", cfg, "--output", str(out))
    assert code == 0, err
    assert "k1=indicator k2=gaussian" in err
    train = read_dataset(train_path, SIM_SCHEMA)
    target = read_dataset(target_path, SIM_SCHEMA)
    params, _ = cv_select(train, kernels_only(default_grid(train, "nw")), "nw")
    err = mae(target.responses, holdout_predictions(train, target, params))
    assert out.read_text().splitlines()[-1] == f"mae,,,{err!r}"


def test_classify_grid_of_kernels_only_takes_default_axes(tmp_path, capsys):
    # classify tunes every kernel pair whatever k1/k2 say, so a [grid]
    # naming only kernels runs the same searches as no [grid] at all
    data_path = presence_file(tmp_path)
    base = (
        "[run]\nmode = classify\nseed = 1\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nlabel_column = p\n\n"
    )
    outs = [tmp_path / "plain.csv", tmp_path / "kernels.csv"]
    for name, text, out in zip(("a.cfg", "b.cfg"), (base, base + KERNELS_ONLY), outs):
        cfg = write(tmp_path, name, text)
        code, _, err = run(capsys, "classify", "--config", cfg, "--output", str(out))
        assert code == 0, err
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 37


def test_benchmark_grid_of_kernels_only_keeps_its_kernels(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "bench.cfg",
        "[run]\nmode = benchmark\nseed = 5\n\n"
        "[simulation]\nshapes = 6x6\na_values = 5.0\nsigma_values = 0.1\nn_reps = 2\n\n"
        + KERNELS_ONLY,
    )
    out = tmp_path / "bench.csv"
    code, _, err = run(
        capsys, "benchmark", "--config", cfg, "--output", str(out), "--threads", "1"
    )
    assert code == 0, err
    # each replication fills the value axes from its own dataset
    scores = {"knn": [], "nw": []}
    for r in range(2):
        data = gen_dataset(DgpParams(shape=(6, 6), a=5.0, sigma=0.1, seed=5 + r))
        for method, values in scores.items():
            values.append(cv_select(data, kernels_only(default_grid(data, method)), method)[1])
    cells = out.read_text().splitlines()[1].split(",")
    assert float(cells[4]) == float(np.mean(scores["knn"]))
    assert float(cells[6]) == float(np.mean(scores["nw"]))
