"""Command-line front end.

Subcommands: simulate, cv, predict, classify, benchmark. Each takes a
configuration file (``--config``) plus overriding flags; progress goes
to standard error, results to standard output or the ``--output`` file.
Exit codes: 0 success, 1 user error, 2 data error, 3 numerical failure.
Runs with the same configuration and seed produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .dataio import (
    CsvSchema,
    ExperimentConfig,
    format_config,
    parse_config,
    read_dataset,
    report_lines,
    validate_config,
    write_dataset,
    write_report,
)
from .errors import ConfigError, DataError, NumericalError
from .estimator import NwParams, _responses_in_range
from .evaluation import (
    ParamGrid,
    _complete_grid,
    benchmark_cells,
    ccr,
    cv_select,
    cv_select_classification_pairs,
    holdout_labels,
    holdout_predictions,
    mae,
    stratified_split,
)
from .kernels import KERNEL_NAMES
from .simulate import DgpParams, gen_dataset

THREADS_ENV = "SPATIALKNN_THREADS"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; user errors are exit 1
    # here, so route them through the normal error mapping instead.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spatialknn",
        description="Spatial nearest-neighbour prediction and classification.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser, metavar="COMMAND"
    )
    helps = {
        "simulate": "generate a dataset on a lattice and write it as CSV",
        "cv": "cross-validate smoothing parameters on a dataset",
        "predict": "tune on a training file, predict a target file, report MAE",
        "classify": "stratified split, per-kernel-pair tuning, CCR table",
        "benchmark": "replicated adaptive-vs-fixed bandwidth comparison",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", metavar="PATH", help="configuration file")
        sp.add_argument("--seed", type=int, metavar="U64", help="random seed override")
        sp.add_argument(
            "--threads",
            type=int,
            metavar="INT",
            help=f"worker process cap (default: ${THREADS_ENV} or machine parallelism)",
        )
        sp.add_argument("--output", metavar="PATH", help="report/dataset destination")
        sp.add_argument("--format", choices=("csv",), help="report format")
        sp.add_argument(
            "--print-config",
            action="store_true",
            help="echo the effective configuration and exit",
        )
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = parse_config(args.config, check_required=False)
        if cfg.mode != args.command:
            raise ConfigError(
                f"config says mode {cfg.mode!r} but the subcommand is {args.command!r}"
            )
    else:
        cfg = ExperimentConfig(mode=args.command)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg.threads = args.threads
    if args.output is not None:
        cfg.output_path = args.output
    if args.format is not None:
        cfg.output_format = args.format
    validate_config(cfg)
    return cfg


def _threads(cfg: ExperimentConfig) -> int:
    if cfg.threads is not None:
        return cfg.threads
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"${THREADS_ENV}={env!r} is not an integer") from None
        if value < 1:
            raise ConfigError(f"${THREADS_ENV} must be >= 1")
        return value
    return os.cpu_count() or 1


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _emit(report, cfg: ExperimentConfig) -> None:
    """Write the report to the output path, or print it to stdout."""
    if cfg.output_path is not None:
        write_report(report, cfg.output_path, cfg.output_format)
    else:
        for line in report_lines(report):
            print(line)


_SIM_SCHEMA = CsvSchema(
    site_columns=("s1", "s2"), covariate_columns=("x",), response_column="y"
)


def cmd_simulate(cfg: ExperimentConfig) -> str:
    seed = 0 if cfg.seed is None else cfg.seed
    data = gen_dataset(DgpParams(shape=cfg.shape, a=cfg.a, sigma=cfg.sigma, seed=seed))
    schema = cfg.schema if cfg.schema is not None else _SIM_SCHEMA
    write_dataset(data, cfg.output_path, schema)
    return (
        f"wrote {len(data)} sites ({cfg.shape[0]}x{cfg.shape[1]}, seed {seed}) "
        f"to {cfg.output_path}"
    )


def _params_row(params, score):
    if isinstance(params, NwParams):
        k = k_prime = ""
        h, rho = params.h, params.rho
        method = "nw"
    else:
        k, k_prime = params.k, params.k_prime
        h = rho = ""
        method = "knn"
    return (method, k, k_prime, h, rho, params.k1, params.k2, score)


_CV_HEADER = ("method", "k", "k_prime", "h", "rho", "k1", "k2", "loo_mae")


def _describe(params) -> str:
    if isinstance(params, NwParams):
        return f"h={params.h!r} rho={params.rho!r} k1={params.k1} k2={params.k2}"
    return f"k={params.k} k_prime={params.k_prime} k1={params.k1} k2={params.k2}"


def cmd_cv(cfg: ExperimentConfig) -> str:
    data = read_dataset(cfg.data_path, cfg.schema)
    grid = _complete_grid(cfg.grid, data, cfg.method)
    params, score = cv_select(data, grid, cfg.method)
    _emit((_CV_HEADER, [_params_row(params, score)]), cfg)
    return f"{cfg.method}: {_describe(params)} loo_mae={score!r}"


def cmd_predict(cfg: ExperimentConfig) -> str:
    train = read_dataset(cfg.data_path, cfg.schema)
    target = read_dataset(cfg.target_path, cfg.schema)
    grid = _complete_grid(cfg.grid, train, cfg.method)
    params, cv_score = cv_select(train, grid, cfg.method)
    _progress(f"selected {_describe(params)} (training loo_mae {cv_score!r})")
    predictions = holdout_predictions(train, target, params)
    with _responses_in_range():
        err = mae(target.responses, predictions)
    header = cfg.schema.site_columns + (cfg.schema.response_column, "prediction")
    rows = [
        tuple(target.sites.coords[i]) + (target.responses[i], predictions[i])
        for i in range(len(target))
    ]
    rows.append(("mae",) + ("",) * (len(header) - 2) + (err,))
    _emit((header, rows), cfg)
    return f"predicted {len(target)} sites, mae={err!r} ({cfg.method})"


def _class_columns(data):
    """Per-class column suffixes and their class indices.

    Each class is named by its code in the file, ``class_<code>`` in
    ascending order; presence/absence files (codes 0/1) report the
    presence class first, mirroring the ``Y=1`` then ``Y=0`` convention.
    """
    if data.label_values == (0, 1):
        return (("y1", 2), ("y0", 1))
    return tuple((f"class_{code}", j) for j, code in enumerate(data.label_values, 1))


def cmd_classify(cfg: ExperimentConfig) -> str:
    data = read_dataset(cfg.data_path, cfg.schema)
    if data.labels is None:
        raise DataError("classification needs a label column")
    seed = 0 if cfg.seed is None else cfg.seed
    train_idx, test_idx = stratified_split(data, cfg.train_fraction, seed)
    if test_idx.size == 0:
        raise DataError("the stratified split produced an empty test set")
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    m = data.n_classes
    every_pair = replace(
        cfg.grid or ParamGrid(), k1_specs=KERNEL_NAMES, k2_specs=KERNEL_NAMES
    )
    grids = {method: _complete_grid(every_pair, train, method) for method in ("knn", "nw")}
    winners = {}
    for method, grid in grids.items():
        _progress(f"classify: {method} search over every kernel pair")
        winners[method] = cv_select_classification_pairs(train, grid, method)
    columns = _class_columns(data)
    header = (
        ("k1", "k2")
        + tuple(f"knn_{c}" for c, _ in (("all", 0),) + columns)
        + tuple(f"nw_{c}" for c, _ in (("all", 0),) + columns)
    )
    rows = []
    best = None
    for k1 in KERNEL_NAMES:
        for k2 in KERNEL_NAMES:
            row = [k1, k2]
            for method in grids:
                params, _ = winners[method][k1, k2]
                report = ccr(test.labels, holdout_labels(train, test, params), m)
                row.append(report.overall)
                row.extend(report.per_class[j - 1] for _, j in columns)
                if method == "knn" and (best is None or report.overall > best[0]):
                    best = (report.overall, k1, k2)
            rows.append(tuple(row))
    _emit((header, rows), cfg)
    return (
        f"classified {len(test)} held-out sites over {len(rows)} kernel pairs; "
        f"best knn pair {best[1]}*{best[2]} ccr={best[0]!r}"
    )


def cmd_benchmark(cfg: ExperimentConfig) -> str:
    designs = [
        (shape, sigma, a)
        for shape in cfg.shapes
        for sigma in cfg.sigma_values
        for a in cfg.a_values
    ]
    for index, (shape, sigma, a) in enumerate(designs):
        _progress(
            f"benchmark cell {index + 1}/{len(designs)}: "
            f"shape={shape[0]}x{shape[1]} sigma={sigma!r} a={a!r} "
            f"({cfg.n_reps} replications)"
        )
    cells = benchmark_cells(
        designs,
        cfg.n_reps,
        grids=(cfg.grid, cfg.grid),
        base_seed=cfg.seed,
        n_jobs=_threads(cfg),
    )
    _emit(cells, cfg)
    return f"benchmarked {len(cells)} cells x {cfg.n_reps} replications (seed {cfg.seed})"


_COMMANDS = {
    "simulate": cmd_simulate,
    "cv": cmd_cv,
    "predict": cmd_predict,
    "classify": cmd_classify,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ConfigError as exc:
        return _fail("error", exc, 1)
    try:
        cfg = _load_config(args)
        if args.print_config:
            sys.stdout.write(format_config(cfg))
            return 0
        print(_COMMANDS[cfg.mode](cfg))
        return 0
    except ConfigError as exc:
        return _fail("error", exc, 1)
    except (DataError, OSError) as exc:
        return _fail("data error", exc, 2)
    except NumericalError as exc:
        return _fail("numerical failure", exc, 3)
    except ValueError as exc:
        return _fail("error", exc, 1)


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print one line for an error (configparser messages span several)."""
    message = " ".join(line.strip() for line in str(exc).splitlines())
    print(f"{kind}: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
