"""The benchmark's workloads and the inputs each one hands the CLI.

Input generation runs in a fresh interpreter, timed as set-up:

    python3 perfbench/workloads.py <workload> <seed> <out_dir> [--smoke] [--trace DIR]

It writes the config (and, for ``predict_2025``, the simulated training
and target CSVs; for ``survey_classify``, a copy of the bundled survey)
into ``out_dir``. The CLI later runs with ``out_dir`` as its working
directory, so configs name their files without a directory.

``--smoke`` shrinks every workload to a run of about a second, for the
harness self-test; the full sizes are the ones the README justifies.
``--trace`` records layer spans of the generation (see tracer.py).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

WORKLOADS = ("replication_625", "survey_classify", "predict_2025")

SURVEY_SOURCE = os.path.join("src", "spatialknn", "data", "synthetic_survey.csv")


@dataclass(frozen=True)
class Size:
    replication_side: int  # lattice side of the benchmark cells
    n_reps: int  # replications per benchmark cell
    predict_side: int  # lattice side of the training and target files
    survey_rows: int | None  # None keeps every station


FULL = Size(replication_side=25, n_reps=8, predict_side=45, survey_rows=None)
SMOKE = Size(replication_side=8, n_reps=3, predict_side=8, survey_rows=120)

# the one parallel knob; equals nproc of the 2-core machine the
# README's numbers come from
THREADS = 2


def cli_args(workload: str) -> list:
    """CLI arguments for one call; the report goes to ``report.csv``."""
    command = {
        "replication_625": ["benchmark", "--config", "benchmark.ini", "--threads", str(THREADS)],
        "survey_classify": ["classify", "--config", "classify.ini"],
        "predict_2025": ["predict", "--config", "predict.ini"],
    }[workload]
    return command + ["--output", "report.csv"]


def _write(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write(text)


def generate(workload: str, seed: int, out_dir: str, smoke: bool) -> None:
    size = SMOKE if smoke else FULL
    if workload == "replication_625":
        _write(
            out_dir,
            "benchmark.ini",
            f"[run]\nmode = benchmark\nseed = {seed}\n\n"
            f"[simulation]\nshapes = {size.replication_side}x{size.replication_side}\n"
            "a_values = 5.0\n"
            f"sigma_values = 0.1, 5.0\nn_reps = {size.n_reps}\n",
        )
    elif workload == "survey_classify":
        with open(SURVEY_SOURCE, newline="") as fh:
            lines = fh.readlines()
        if size.survey_rows is not None:
            lines = lines[: 1 + size.survey_rows]
        _write(out_dir, "survey.csv", "".join(lines))
        _write(
            out_dir,
            "classify.ini",
            f"[run]\nmode = classify\nseed = {seed}\n\n"
            "[data]\npath = survey.csv\nsite_columns = lon, lat\n"
            "covariate_columns = sbt, sst, sbs, sss\nlabel_column = presence\n",
        )
    elif workload == "predict_2025":
        from spatialknn.dataio import CsvSchema, write_dataset
        from spatialknn.simulate import DgpParams, gen_dataset

        side = size.predict_side
        schema = CsvSchema(("s1", "s2"), ("x",), response_column="y")
        # the target lattice has the training coordinates but its own draw
        for name, s in (("train.csv", seed), ("target.csv", seed + 1_000_003)):
            data = gen_dataset(DgpParams(shape=(side, side), a=5.0, sigma=1.0, seed=s))
            write_dataset(data, os.path.join(out_dir, name), schema)
        _write(
            out_dir,
            "predict.ini",
            "[run]\nmode = predict\nmethod = knn\n\n"
            "[data]\npath = train.csv\ntarget = target.csv\n"
            "site_columns = s1, s2\ncovariate_columns = x\nresponse_column = y\n",
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="generate one workload's inputs")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", metavar="DIR", help="record layer spans here")
    args = parser.parse_args(argv)
    import spatialknn  # noqa: F401  (set-up time includes the package import)

    if args.trace is None:
        generate(args.workload, args.seed, args.out_dir, args.smoke)
        return 0
    import tracer as tracing

    tracer = tracing.Tracer(args.trace)
    tracer.install()
    generate(args.workload, args.seed, args.out_dir, args.smoke)
    tracer.uninstall()
    tracer.write_main()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
