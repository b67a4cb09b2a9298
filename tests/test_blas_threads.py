"""Reports on a given input file do not depend on the BLAS thread count.

Each command runs in a fresh interpreter under ``OPENBLAS_NUM_THREADS``
(and its OpenMP and MKL twins) set to 1 and then 2, and the two reports
must be the same bytes. The ``cv`` data are a fixed 35x30 file written
here, not simulated: the simulator's draws do depend on the thread
count, which would hide what the estimator does.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spatialknn

SRC = Path(spatialknn.__file__).resolve().parent.parent
SURVEY = SRC / "spatialknn" / "data" / "synthetic_survey.csv"


def lattice_file(path: Path) -> str:
    """Responses on a 35x30 lattice with two covariates, written as exact floats."""
    rng = np.random.default_rng(3530)
    rows = ["s1,s2,x1,x2,y"]
    for i in range(1, 36):
        for j in range(1, 31):
            x1, x2 = rng.normal(size=2)
            y = np.sin(3.0 * x1) + x2 * (i / 35) + 0.1 * rng.normal()
            rows.append(",".join(repr(float(v)) for v in (i / 35, j / 30, x1, x2, y)))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def report(tmp_path: Path, threads: str, command: str, config: str) -> bytes:
    out = tmp_path / f"{command}_{threads}.csv"
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    )
    subprocess.run(
        [sys.executable, "-m", "spatialknn.cli", command, "--config", config,
         "--output", str(out)],
        env=env,
        check=True,
        capture_output=True,
    )
    return out.read_bytes()


@pytest.mark.parametrize("method", ["knn", "nw"])
def test_cv_report_is_the_same_at_one_and_two_blas_threads(tmp_path, method):
    data_path = lattice_file(tmp_path / "lattice.csv")
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(
        f"[run]\nmode = cv\nmethod = {method}\n\n"
        f"[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x1, x2\nresponse_column = y\n"
    )
    one, two = (report(tmp_path, t, "cv", str(cfg)) for t in ("1", "2"))
    assert one == two
    assert one.startswith(b"method,")


def test_classify_report_is_the_same_at_one_and_two_blas_threads(tmp_path):
    cfg = tmp_path / "cls.cfg"
    cfg.write_text(
        "[run]\nmode = classify\nseed = 0\n\n"
        f"[data]\npath = {SURVEY}\nsite_columns = lon, lat\n"
        "covariate_columns = sbt, sst, sbs, sss\nlabel_column = presence\n"
    )
    one, two = (report(tmp_path, t, "classify", str(cfg)) for t in ("1", "2"))
    assert one == two
    assert len(one.splitlines()) == 37
