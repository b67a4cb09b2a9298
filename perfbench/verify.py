"""Correctness checks on one CLI call's report.

Three gates, each returning a list of problems (empty means pass):

* every seed: the report is consistent with what the CLI computed
  (captured by cli_entry.py), and a sample of the ``predict_2025``
  predictions and of the ``survey_classify`` held-out labels agrees with
  :func:`oracle_predict` / :func:`oracle_classify`, a brute-force
  estimator written here from the paper's definitions. It sorts fully for
  the bandwidths, evaluates the kernels in closed form and applies the
  mean or majority fallback; it calls nothing in the package;
* the reference seed: the report matches the one recorded at the seed
  commit (``reference/<workload>.json``) under the pinned BLAS setting.
  Kernel names and integer parameters must match exactly; real numbers
  within ``REL_TOL``;
* ``replication_625`` reports are checked for shape and range, since the
  per-replication work happens in pool workers the capture cannot see.

A report's SHA-256 is recorded by run.py for information only: a change
of summation order may move the last digits without being wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

#: Relative tolerance for real numbers against the recorded reference.
#: Changing only the summation order (BLAS threads) moved replication_625
#: fields by up to 6.7e-4 relative, the p-values most, through near-tied
#: grid points (README); a wrong kernel or bandwidth moves them by percents.
REL_TOL = 5e-3
#: Relative tolerance between the package's predictions and the oracle's,
#: which only sum in a different order.
ORACLE_TOL = 1e-9
#: Held-out sites checked against the oracle per call (per kernel pair
#: and method for classification).
PREDICT_SAMPLE = 64
CLASSIFY_SAMPLE = 4

REFERENCE_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

KERNEL_ORDER = ("biweight", "epanechnikov", "gaussian", "indicator", "parzen", "triangular")


# ---------------------------------------------------------------------------
# brute-force oracle


def kernel(name: str, u: np.ndarray) -> np.ndarray:
    """Closed-form kernels on |u|, compact ones closed at |u| = 1."""
    u = np.abs(u)
    inside = u <= 1.0
    if name == "biweight":
        return np.where(inside, 0.9375 * (1.0 - u * u) ** 2, 0.0)
    if name == "epanechnikov":
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)
    if name == "gaussian":
        return np.exp(-0.5 * u * u)
    if name == "indicator":
        return np.where(inside, 1.0, 0.0)
    if name == "parzen":
        inner = 1.0 - 6.0 * u * u + 6.0 * u**3
        outer = 2.0 * (1.0 - u) ** 3
        return np.where(u < 0.5, inner, np.where(inside, outer, 0.0))
    if name == "triangular":
        return np.where(inside, 1.0 - u, 0.0)
    raise ValueError(f"unknown kernel {name!r}")


def _weights(train, s0, x0, params) -> np.ndarray:
    sites, covs = train["sites"], train["covs"]
    dx = np.sqrt(((covs - x0) ** 2).sum(axis=1))
    ds = np.sqrt(((sites - s0) ** 2).sum(axis=1))
    if params["type"] == "NwParams":
        u1, u2 = dx / params["h"], ds / params["rho"]
    else:
        big_h = np.sort(dx)[params["k"] - 1]
        small_h = np.sort(ds[ds > 0.0])[params["k_prime"] - 1]
        if big_h > 0.0:
            u1 = dx / big_h
        else:
            u1 = np.where(dx == 0.0, 0.0, np.inf)
        u2 = ds / small_h
    return kernel(params["k1"], u1) * kernel(params["k2"], u2)


def oracle_predict(train, s0, x0, params) -> float:
    w = _weights(train, s0, x0, params)
    total = w.sum()
    if total > 0.0:
        return float((w * train["y"]).sum() / total)
    return float(train["y"].mean())


def oracle_classify(train, s0, x0, params, n_classes: int) -> set:
    """Admissible labels: the top-scoring class, or every class within
    ``ORACLE_TOL`` of the top score, since summation order can split a
    tie either way."""
    w = _weights(train, s0, x0, params)
    labels = train["labels"]
    if w.sum() > 0.0:
        scores = np.array([w[labels == j].sum() for j in range(1, n_classes + 1)])
    else:
        scores = np.array([(labels == j).sum() for j in range(1, n_classes + 1)], float)
    top = scores.max()
    return {j + 1 for j in range(n_classes) if scores[j] >= top * (1.0 - ORACLE_TOL)}


# ---------------------------------------------------------------------------
# file reading, independent of the package's reader


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_points(path, sites, covs, response=None, label=None):
    header, rows = read_table(path)
    col = {name: header.index(name) for name in header}
    pick = lambda names: np.array([[float(r[col[c]]) for c in names] for r in rows])
    out = {"sites": pick(sites), "covs": pick(covs)}
    if response is not None:
        out["y"] = pick([response])[:, 0]
    if label is not None:
        raw = np.array([int(r[col[label]]) for r in rows])
        out["labels"] = raw + 1 if raw.min() == 0 else raw
    return out


def _subset(points, idx):
    return {key: value[idx] for key, value in points.items()}


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) and math.isnan(b):  # rate of a class absent from the test set
        return True
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# per-workload checks


def _sample(n: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=min(size, n), replace=False))


def check_predict(input_dir, report_path, capture, seed) -> list:
    problems = []
    train = read_points(os.path.join(input_dir, "train.csv"), ("s1", "s2"), ("x",), "y")
    target = read_points(os.path.join(input_dir, "target.csv"), ("s1", "s2"), ("x",), "y")
    header, rows = read_table(report_path)
    n = len(target["y"])
    if header != ["s1", "s2", "y", "prediction"] or len(rows) != n + 1:
        return [f"report layout: header {header}, {len(rows)} rows for {n} targets"]
    if len(capture["holdout"]) != 1:
        return [f"expected one holdout call, captured {len(capture['holdout'])}"]
    params = capture["holdout"][0]["params"]
    captured = capture["holdout"][0]["result"]
    body = np.array([[float(v) for v in r] for r in rows[:-1]])
    if not np.array_equal(body[:, :2], target["sites"]) or not np.array_equal(
        body[:, 2], target["y"]
    ):
        problems.append("report sites or responses differ from the target file")
    if not np.array_equal(body[:, 3], np.array(captured)):
        problems.append("report predictions differ from the computed ones")
    mae = float(np.mean(np.abs(target["y"] - body[:, 3])))
    if rows[-1][0] != "mae" or not _close(float(rows[-1][-1]), mae, 1e-12):
        problems.append(f"report mae {rows[-1][-1]} != {mae!r}")
    for i in _sample(n, PREDICT_SAMPLE, seed):
        want = oracle_predict(train, target["sites"][i], target["covs"][i], params)
        if not _close(body[i, 3], want, ORACLE_TOL):
            problems.append(f"target {i}: predicted {float(body[i, 3])!r}, oracle {want!r}")
    return problems


def _check_split(labels, split) -> list:
    train, test = split["train"], split["test"]
    if sorted(train + test) != list(range(len(labels))):
        return ["split is not a partition of the sites"]
    for c in np.unique(labels):
        size = int((labels == c).sum())
        want = min(max(int(round(0.8 * size)), 1), size - 1) if size > 1 else size
        if int((labels[train] == c).sum()) != want:
            return [f"split puts the wrong number of class {c} sites in training"]
    return []


def check_classify(input_dir, report_path, capture, seed) -> list:
    data = read_points(
        os.path.join(input_dir, "survey.csv"),
        ("lon", "lat"),
        ("sbt", "sst", "sbs", "sss"),
        label="presence",
    )
    if capture["split"] is None:
        return ["no stratified split was captured"]
    problems = _check_split(data["labels"], capture["split"])
    if problems:
        return problems
    train = _subset(data, capture["split"]["train"])
    test = _subset(data, capture["split"]["test"])
    m = int(data["labels"].max())
    header, rows = read_table(report_path)
    pairs = [(k1, k2) for k1 in KERNEL_ORDER for k2 in KERNEL_ORDER]
    if len(rows) != len(pairs) or len(capture["holdout"]) != 2 * len(pairs):
        return [f"{len(rows)} report rows, {len(capture['holdout'])} holdout calls"]
    sample = _sample(len(test["labels"]), CLASSIFY_SAMPLE, seed)
    holdouts = iter(capture["holdout"])
    for (k1, k2), row in zip(pairs, rows):
        if row[:2] != [k1, k2]:
            problems.append(f"report row {row[:2]} where {k1}*{k2} was expected")
            continue
        values = [float(v) if v else math.nan for v in row[2:]]
        for method, ccr_cells in (("knn", values[0:3]), ("nw", values[3:6])):
            record = next(holdouts)
            params, pred = record["params"], np.array(record["result"])
            if (params["k1"], params["k2"]) != (k1, k2):
                problems.append(f"{k1}*{k2} {method}: tuned {params['k1']}*{params['k2']}")
            truth = test["labels"]
            # columns: all, presence (class 2), absence (class 1)
            want = [np.mean(truth == pred)] + [
                np.mean(pred[truth == j] == j) for j in (2, 1)
            ]
            if not all(_close(a, b, 1e-12) for a, b in zip(ccr_cells, want)):
                problems.append(f"{k1}*{k2} {method}: ccr {ccr_cells} != {want}")
            for i in sample:
                allowed = oracle_classify(train, test["sites"][i], test["covs"][i], params, m)
                if int(pred[i]) not in allowed:
                    problems.append(
                        f"{k1}*{k2} {method} site {i}: label {pred[i]}, oracle {allowed}"
                    )
    return problems


def check_replication(input_dir, report_path, capture, seed) -> list:
    header, rows = read_table(report_path)
    expected = ["shape", "sigma", "a", "n_reps", "knn_mean", "knn_sd",
                "nw_mean", "nw_sd", "t_stat", "p_value"]
    if header != expected or len(rows) != 2:
        return [f"report layout: header {header}, {len(rows)} rows"]
    problems = []
    for row, sigma in zip(rows, ("0.1", "5.0")):
        if row[1:3] != [sigma, "5.0"]:
            problems.append(f"cell {row[:4]} where sigma {sigma}, a 5.0 was expected")
        means = [float(row[4]), float(row[6])]
        sds = [float(row[5]), float(row[7])]
        if not all(math.isfinite(v) and v > 0.0 for v in means):
            problems.append(f"cell {row[:3]}: mean LOO MAE {means} not positive")
        if not all(math.isfinite(v) and v >= 0.0 for v in sds):
            problems.append(f"cell {row[:3]}: sd {sds} not a finite non-negative")
        if row[9] != "degenerate" and not 0.0 <= float(row[9]) <= 1.0:
            problems.append(f"cell {row[:3]}: p-value {row[9]} outside [0, 1]")
    return problems


CHECKS = {
    "replication_625": check_replication,
    "survey_classify": check_classify,
    "predict_2025": check_predict,
}


# ---------------------------------------------------------------------------
# reference at the seed commit


def reference_record(workload, report_path, capture) -> dict:
    """What the reference file stores for one report."""
    header, rows = read_table(report_path)
    return {
        "rows": rows if workload != "predict_2025" else rows[-1:],
        "predictions": [float(r[3]) for r in rows[:-1]] if workload == "predict_2025" else None,
        "params": [h["params"] for h in capture["holdout"]],
    }


def _same_value(a, b) -> bool:
    """Integers and names exactly, real numbers within ``REL_TOL``."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    try:
        return _close(float(a), float(b), REL_TOL)
    except ValueError:  # a kernel or class name, a shape, "degenerate"
        return a == b


def _same_record(got, want) -> bool:
    if isinstance(got, dict):
        return set(got) == set(want) and all(_same_value(got[k], want[k]) for k in got)
    return len(got) == len(want) and all(_same_value(a, b) for a, b in zip(got, want))


def check_reference(workload, report_path, capture) -> list:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        want = json.load(fh)
    got = reference_record(workload, report_path, capture)
    problems = []
    for field in ("rows", "params"):
        if len(got[field]) != len(want[field]):
            problems.append(f"{len(got[field])} {field} where the reference has {len(want[field])}")
            continue
        for g, w in zip(got[field], want[field]):
            if not _same_record(g, w):
                problems.append(f"{field} {g} where the reference has {w}")
    if want["predictions"] is not None:
        g, w = np.array(got["predictions"]), np.array(want["predictions"])
        if g.shape != w.shape or not np.allclose(g, w, rtol=REL_TOL, atol=1e-12):
            problems.append("predictions differ from the reference")
    return problems
