"""Command-line front end tests.

Everything runs in process through ``main(argv)``; configs and data
files live in tmp_path. Oracles recompute the reports with direct
library calls on the same files.
"""

from dataclasses import replace

import numpy as np
import pytest

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
