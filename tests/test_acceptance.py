"""Acceptance suite: nine end-to-end checks with frozen tolerances.

Each test prints one verdict line of the form

    ACCEPTANCE n: PASS - detail

outside pytest's capture (``capsys.disabled()``) so the lines appear in
the -v log. The assertion carries the same condition, so a FAIL line is
always followed by the test failing.

Statistical designs (seeds, grid sizes, replication counts) are frozen;
every tolerance below was chosen before the implementation ran.
"""

import math
import time
from pathlib import Path

import numpy as np

import spatialknn
from spatialknn.cli import main
from spatialknn.estimator import (
    KnnParams,
    SpatialDataset,
    knn_weights,
    predict,
    regress,
)
from spatialknn.evaluation import (
    benchmark_replications,
    cv_select,
    default_grid,
    holdout_labels,
    paired_ttest,
    stratified_split,
    student_t_sf,
)
from spatialknn.kernels import KERNEL_NAMES
from spatialknn.lattice import SiteSet, make_lattice
from spatialknn.neighbors import knn_bandwidth
from spatialknn.simulate import DgpParams, FieldParams, gen_dataset, sample_grf


def verdict(capsys, n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. adaptive bandwidth == full-sort order statistic, exactly


def test_criterion_1_bandwidth_oracle_equivalence(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, d))
        query = rng.normal(size=d)
        got = knn_bandwidth(points, query, k).bandwidth
        want = float(np.sort(np.linalg.norm(points - query, axis=1))[k - 1])
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    verdict(
        capsys,
        1,
        ok,
        f"1000 random instances (n<=500, d<=4), {mismatches} mismatches "
        f"vs exact sort oracle, {elapsed:.2f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 2. weight and predictor invariants on random data


def test_criterion_2_weight_predictor_invariants(capsys):
    rng = np.random.default_rng(2)
    bad = []
    normalized_count = 0
    for trial in range(500):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 4))
        data = SpatialDataset(
            sites=SiteSet(rng.normal(size=(n, 2))),
            covariates=rng.normal(size=(n, d)),
            responses=rng.normal(size=n),
        )
        p = KnnParams(
            k=int(rng.integers(1, n)),
            k_prime=int(rng.integers(1, n)),
            k1=KERNEL_NAMES[rng.integers(0, 6)],
            k2=KERNEL_NAMES[rng.integers(0, 6)],
        )
        s0 = rng.normal(size=2)
        x = rng.normal(size=d)

        wv = knn_weights(data, s0, x, p)
        if wv.normalized:
            normalized_count += 1
            if abs(wv.weights.sum() - 1.0) > 1e-10:
                bad.append((trial, "weight sum"))

        pred = predict(data, s0, x, p)
        lo, hi = data.responses.min(), data.responses.max()
        if not (lo - 1e-12 <= pred <= hi + 1e-12):
            bad.append((trial, "range"))

        a, b = float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))
        shifted = SpatialDataset(
            sites=data.sites,
            covariates=data.covariates,
            responses=a + b * data.responses,
        )
        if abs(predict(shifted, s0, x, p) - (a + b * pred)) > 1e-9:
            bad.append((trial, "affine"))

        if abs(regress(data, s0, x, p) - pred) > 1e-12:
            bad.append((trial, "regress vs predict"))
    ok = not bad
    verdict(
        capsys,
        2,
        ok,
        f"500 random datasets: {normalized_count} normalized weight sums ok "
        f"(tol 1e-10), range containment, affine equivariance (tol 1e-9), "
        f"ratio form vs constant form (tol 1e-12); failures: {bad[:3]}",
    )


# ---------------------------------------------------------------------------
# 3. random field sampler hits its mean and lag covariances


def test_criterion_3_random_field_fidelity(capsys):
    start = time.perf_counter()
    params = FieldParams(mean=0.0, variance=5.0, scale=3.0, shape=(10, 10))
    fields = np.stack(
        [sample_grf(params, seed).reshape(10, 10) for seed in range(500)]
    )
    grand_mean = float(fields.mean())

    def lag_cov(di, dj):
        a = fields[:, : 10 - di, : 10 - dj] if dj else fields[:, : 10 - di, :]
        b = fields[:, di:, dj:] if dj else fields[:, di:, :]
        return float((a * b).mean())

    checks = []
    for (di, dj) in ((1, 0), (0, 1), (3, 0)):
        want = 5.0 * math.exp(-((math.hypot(di, dj) / 3.0) ** 2))
        got = lag_cov(di, dj)
        checks.append((di, dj, got, want, abs(got - want) <= 0.15 * want))
    elapsed = time.perf_counter() - start
    mean_ok = abs(grand_mean) <= 0.15
    ok = mean_ok and all(c[-1] for c in checks) and elapsed < 60.0
    detail = ", ".join(
        f"lag({di},{dj}) {got:.3f} vs {want:.3f}" for di, dj, got, want, _ in checks
    )
    verdict(
        capsys,
        3,
        ok,
        f"500 fields on 10x10, mean {grand_mean:.4f} (tol 0.15), {detail} "
        f"(tol 15%), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 4. adaptive beats fixed bandwidths across the 6-cell replication study


def test_criterion_4_adaptive_vs_fixed_direction(capsys):
    start = time.perf_counter()
    rows = []
    for sigma in (5.0, 0.1):
        for a in (5.0, 10.0, 20.0):
            res = benchmark_replications((25, 25), a, sigma, n_reps=30, base_seed=0)
            rows.append((sigma, a, res.knn.mean, res.nw.mean, res.p_value))
    elapsed = time.perf_counter() - start
    direction = [r for r in rows if r[2] < r[3]]
    significant = [r for r in rows if r[0] == 0.1 and r[4] < 0.05]
    ok = len(direction) == 6 and len(significant) == 3 and elapsed < 1800.0
    worst_p = max(r[4] for r in rows if r[0] == 0.1)
    verdict(
        capsys,
        4,
        ok,
        f"25x25 grid, 30 replications x 6 cells: adaptive mean MAE lower in "
        f"{len(direction)}/6 cells, one-sided p<0.05 in {len(significant)}/3 "
        f"low-noise cells (worst p {worst_p:.2e}), {elapsed:.0f}s (budget 1800s)",
    )


# ---------------------------------------------------------------------------
# 5. cross-validated error falls as the lattice grows


def test_criterion_5_convergence_trend(capsys):
    start = time.perf_counter()
    means = []
    for shape in ((15, 15), (25, 25), (35, 30)):
        scores = []
        for seed in range(20):
            data = gen_dataset(DgpParams(shape=shape, a=5.0, sigma=0.1, seed=seed))
            scores.append(cv_select(data, default_grid(data, "knn"), "knn")[1])
        means.append(float(np.mean(scores)))
    elapsed = time.perf_counter() - start
    ok = means[0] > means[1] > means[2]
    verdict(
        capsys,
        5,
        ok,
        f"mean tuned LOO MAE over 20 replications: "
        f"{means[0]:.4f} (15x15) > {means[1]:.4f} (25x25) > {means[2]:.4f} "
        f"(35x30): monotone={ok}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. classifier separates disjoint-support clustered classes


def clustered_two_class(seed):
    sites = make_lattice((12, 12))
    left = sites.coords[:, 0] <= 0.5
    labels = np.where(left, 1, 2)
    rng = np.random.default_rng(seed)
    x = np.where(left, rng.uniform(0.0, 1.0, size=144), rng.uniform(5.0, 6.0, size=144))
    return SpatialDataset(sites=sites, covariates=x, labels=labels)


def test_criterion_6_classifier_sanity(capsys):
    p = KnnParams(k=40, k_prime=100, k1="epanechnikov", k2="gaussian")
    rates = []
    equivariant = True
    for seed in range(10):
        data = clustered_two_class(seed)
        train_idx, test_idx = stratified_split(data, 0.8, seed=seed)
        train, test = data.subset(train_idx), data.subset(test_idx)
        pred = holdout_labels(train, test, p)
        rates.append(float((pred == test.labels).mean()))

        swapped = SpatialDataset(
            sites=data.sites, covariates=data.covariates, labels=3 - data.labels
        )
        pred_swapped = holdout_labels(swapped.subset(train_idx), swapped.subset(test_idx), p)
        if not np.array_equal(pred_swapped, 3 - pred):
            equivariant = False
    ok = min(rates) >= 0.95 and equivariant
    verdict(
        capsys,
        6,
        ok,
        f"10 seeded runs on two clustered classes with disjoint covariate "
        f"supports: min test CCR {min(rates):.3f} (floor 0.95), label-swap "
        f"equivariance exact={equivariant}",
    )


# ---------------------------------------------------------------------------
# 7. paired t statistic and tail probability


def test_criterion_7_t_test_correctness(capsys):
    t, p = paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    t_ok = abs(t - 4.24264) <= 1e-4
    p_ok = abs(p - 0.00660) <= 1e-4
    half_ok = all(abs(student_t_sf(0.0, df) - 0.5) <= 1e-10 for df in (1, 4, 30, 200))
    t0, p0 = paired_ttest([1.0, -1.0, 2.0, -2.0], [0.0] * 4)
    zero_ok = t0 == 0.0 and abs(p0 - 0.5) <= 1e-10
    ok = t_ok and p_ok and half_ok and zero_ok
    verdict(
        capsys,
        7,
        ok,
        f"differences 1..5: t={t:.5f} (want 4.24264 tol 1e-4), p={p:.5f} "
        f"(want 0.00660 tol 1e-4); sf(0)=0.5 within 1e-10: {half_ok and zero_ok}",
    )


# ---------------------------------------------------------------------------
# 8. benchmark runs are byte-identical under a fixed seed


def test_criterion_8_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "[run]\nmode = benchmark\nseed = 0\n\n"
        "[simulation]\nshapes = 7x7\na_values = 5.0\nsigma_values = 0.1\nn_reps = 2\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = main(["benchmark", "--config", str(cfg), "--output", str(out1)])
    code2 = main(["benchmark", "--config", str(cfg), "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    verdict(
        capsys,
        8,
        ok,
        f"benchmark command twice with seed 0: exit codes ({code1}, {code2}), "
        f"reports byte-identical={identical}",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end kernel-pair classification on the bundled survey


def test_criterion_9_survey_protocol_dry_run(tmp_path, capsys):
    survey = Path(spatialknn.__file__).parent / "data" / "synthetic_survey.csv"
    assert survey.is_file()
    cfg = tmp_path / "cls.cfg"
    cfg.write_text(
        "[run]\nmode = classify\nseed = 0\n\n"
        f"[data]\npath = {survey}\nsite_columns = lon, lat\n"
        "covariate_columns = sbt, sst, sbs, sss\nlabel_column = presence\n"
    )
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    code = main(["classify", "--config", str(cfg), "--output", str(out)])
    elapsed = time.perf_counter() - start

    lines = out.read_text().splitlines() if out.exists() else []
    header_ok = lines and lines[0] == "k1,k2,knn_all,knn_y1,knn_y0,nw_all,nw_y1,nw_y0"
    pairs_ok = len(lines) == 37

    from spatialknn.dataio import load_survey

    data = load_survey()
    _, test_idx = stratified_split(data, 0.8, seed=0)
    n1 = int((data.labels[test_idx] == 2).sum())  # presence rows in the test split
    n0 = test_idx.size - n1
    recombine_ok = True
    for line in lines[1:]:
        cells = line.split(",")
        for base in (2, 5):
            allr, y1, y0 = (float(v) for v in cells[base : base + 3])
            if abs(allr - (n1 * y1 + n0 * y0) / (n1 + n0)) > 1e-9:
                recombine_ok = False
    ok = code == 0 and header_ok and pairs_ok and recombine_ok and elapsed < 300.0
    verdict(
        capsys,
        9,
        ok,
        f"classify on the bundled 495-station survey: exit {code}, "
        f"{len(lines) - 1} kernel-pair rows (want 36), header ok={header_ok}, "
        f"per-class rates recombine to overall (tol 1e-9)={recombine_ok}, "
        f"{elapsed:.0f}s (budget 300s)",
    )
