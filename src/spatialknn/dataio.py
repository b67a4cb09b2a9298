"""CSV dataset ingestion, report serialization, and run configuration.

File conventions: RFC-4180-style CSV with a header row; one data row
per site, row order defining the site index order. Floats are written
with ``repr`` (shortest round-trip decimal), so write-then-read is an
identity up to 1 ulp and report files are byte-stable for fixed inputs.
Binary presence/absence labels may be coded 0/1 in files; they are
mapped onto internal classes {1, 2} (class 2 = presence) and the
original codes are kept on the dataset so reports can translate back.

Configuration files are flat ``key = value`` text (configparser
syntax) with sections [run], [simulation], [data], [grid], [output].
Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .estimator import SpatialDataset
from .evaluation import BenchmarkCell, CcrReport, EvalReport, ParamGrid
from .lattice import SiteSet

_MODES = ("simulate", "cv", "predict", "classify", "benchmark")


# ---------------------------------------------------------------------------
# dataset files


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a dataset file.

    ``site_columns`` hold the N spatial coordinates, ``covariate_columns``
    the d covariates; ``response_column`` and ``label_column`` are each
    optional. All names must be distinct.
    """

    site_columns: tuple
    covariate_columns: tuple
    response_column: str | None = None
    label_column: str | None = None
    delimiter: str = ","

    def __post_init__(self):
        object.__setattr__(self, "site_columns", tuple(self.site_columns))
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        if not self.site_columns or not self.covariate_columns:
            raise ValueError("schema needs at least one site and one covariate column")
        names = self.column_names()
        if len(set(names)) != len(names):
            raise ValueError(f"schema names a column twice: {names}")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")

    def column_names(self) -> tuple:
        extra = [c for c in (self.response_column, self.label_column) if c is not None]
        return self.site_columns + self.covariate_columns + tuple(extra)


def survey_schema() -> CsvSchema:
    """Schema of the bundled synthetic survey file."""
    return CsvSchema(
        site_columns=("lon", "lat"),
        covariate_columns=("sbt", "sst", "sbs", "sss"),
        label_column="presence",
    )


def _parse_real(cell: str, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"line {line}, column {column!r}: cannot parse {cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}, column {column!r}: non-finite value {cell!r}")
    return value


_LABEL_RANGE = np.iinfo(np.int64)


def _parse_label(cell: str, line: int, column: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(
            f"line {line}, column {column!r}: cannot parse {cell!r} as an integer label"
        ) from None
    if not _LABEL_RANGE.min <= value <= _LABEL_RANGE.max:
        raise ParseError(f"line {line}, column {column!r}: label {cell!r} is out of range")
    return value


def read_dataset(path, schema: CsvSchema) -> SpatialDataset:
    """Load a dataset file; row i of the file becomes site i.

    Labels coded with a 0 present are treated as 0/1 presence data and
    mapped to classes {1, 2}; the original codes land in
    ``label_values``. Any other coding must already be integers >= 1.
    """
    if schema.response_column is None and schema.label_column is None:
        raise DataError("schema names neither a response nor a label column")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=schema.delimiter))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (no header row)")
    header = [name.strip() for name in rows[0]]
    positions = {}
    for name in schema.column_names():
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r} (header: {header})")
        positions[name] = header.index(name)

    def column(name, parser, as_type):
        out = []
        for r, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {r} has {len(row)} fields, header has {len(header)}"
                )
            out.append(parser(row[positions[name]].strip(), r, name))
        return np.array(out, dtype=as_type)

    coords = np.column_stack(
        [column(c, _parse_real, float) for c in schema.site_columns]
    )
    covariates = np.column_stack(
        [column(c, _parse_real, float) for c in schema.covariate_columns]
    )
    responses = None
    if schema.response_column is not None:
        responses = column(schema.response_column, _parse_real, float)
    labels = None
    label_values = None
    if schema.label_column is not None:
        labels = column(schema.label_column, _parse_label, np.int64)
        if labels.size and labels.min() == 0:
            if labels.max() > 1:
                raise DataError(
                    f"{path}: labels mix 0 with values > 1; use either 0/1 coding "
                    "or classes starting at 1"
                )
            label_values = (0, 1)
            labels = labels + 1
    return SpatialDataset(
        sites=SiteSet(coords),
        covariates=covariates,
        responses=responses,
        labels=labels,
        label_values=label_values,
    )


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_dataset(data: SpatialDataset, path, schema: CsvSchema) -> None:
    """Write a dataset file per the schema; see :func:`read_dataset`."""
    if schema.response_column is not None and data.responses is None:
        raise DataError(
            f"schema names response column {schema.response_column!r} "
            "but the dataset has no responses"
        )
    if schema.label_column is not None and data.labels is None:
        raise DataError(
            f"schema names label column {schema.label_column!r} "
            "but the dataset has no labels"
        )
    if len(schema.site_columns) != data.sites.ndim:
        raise DataError(
            f"{len(schema.site_columns)} site columns for "
            f"{data.sites.ndim}-dimensional sites"
        )
    if len(schema.covariate_columns) != data.d:
        raise DataError(
            f"{len(schema.covariate_columns)} covariate columns for d={data.d}"
        )
    rows = []
    for i in range(len(data)):
        row = [_format_value(v) for v in data.sites.coords[i]]
        row += [_format_value(v) for v in data.covariates[i]]
        if schema.response_column is not None:
            row.append(_format_value(data.responses[i]))
        if schema.label_column is not None:
            lab = int(data.labels[i])
            if data.label_values is not None:
                lab = data.label_values[lab - 1]
            row.append(str(lab))
        rows.append(row)
    _write_csv(path, schema.column_names(), rows, schema.delimiter)


def _write_csv(path, header, rows, delimiter=","):
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def load_survey() -> SpatialDataset:
    """The bundled synthetic survey dataset (495 stations)."""
    src = resources.files("spatialknn.data").joinpath("synthetic_survey.csv")
    with resources.as_file(src) as p:
        return read_dataset(p, survey_schema())


# ---------------------------------------------------------------------------
# reports


def _report_cell(value, none_as: str = "") -> str:
    if value is None:
        return none_as
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _eval_report_rows(report: EvalReport):
    if not report.per_replication_metric:
        raise ValueError("empty replication list")
    rows = [
        (f"metric_{i}", _report_cell(v))
        for i, v in enumerate(report.per_replication_metric)
    ]
    rows += [
        ("mean", _report_cell(report.mean)),
        ("sd", _report_cell(report.sd)),
        ("t_stat", _report_cell(report.t_stat)),
        ("p_value", _report_cell(report.p_value)),
    ]
    return ("record", "value"), rows


def _ccr_report_rows(report: CcrReport):
    rows = [("all", str(sum(report.counts)), _report_cell(report.overall))]
    for j, (rate, count) in enumerate(zip(report.per_class, report.counts), start=1):
        rows.append((f"class_{j}", str(count), _report_cell(rate)))
    return ("group", "count", "rate"), rows


BENCHMARK_COLUMNS = (
    "shape",
    "sigma",
    "a",
    "n_reps",
    "knn_mean",
    "knn_sd",
    "nw_mean",
    "nw_sd",
    "t_stat",
    "p_value",
)


def _benchmark_rows(cells):
    rows = []
    for cell in cells:
        shape = "x".join(str(int(v)) for v in cell.shape)
        r = cell.result
        rows.append(
            (
                shape,
                _report_cell(cell.sigma),
                _report_cell(cell.a),
                str(cell.n_reps),
                _report_cell(r.knn.mean),
                _report_cell(r.knn.sd),
                _report_cell(r.nw.mean),
                _report_cell(r.nw.sd),
                _report_cell(r.t_stat, none_as="degenerate"),
                _report_cell(r.p_value, none_as="degenerate"),
            )
        )
    return BENCHMARK_COLUMNS, rows


def report_lines(report) -> list:
    """CSV lines (no trailing newline) for any supported report shape.

    Accepts an :class:`EvalReport`, a :class:`CcrReport`, a sequence of
    :class:`BenchmarkCell`, or a generic ``(header, rows)`` pair.
    """
    if isinstance(report, EvalReport):
        header, rows = _eval_report_rows(report)
    elif isinstance(report, CcrReport):
        header, rows = _ccr_report_rows(report)
    elif isinstance(report, tuple) and len(report) == 2:
        header, raw = report
        rows = [tuple(_report_cell(v) for v in row) for row in raw]
    elif isinstance(report, (list, tuple)) and all(
        isinstance(c, BenchmarkCell) for c in report
    ):
        header, rows = _benchmark_rows(report)
    else:
        raise TypeError(f"unsupported report type: {type(report).__name__}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


def write_report(report, path, format: str = "csv") -> None:
    """Serialize a report; see :func:`report_lines` for accepted shapes."""
    if format != "csv":
        raise ConfigError(f"unsupported report format {format!r} (only csv)")
    lines = report_lines(report)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class ExperimentConfig:
    """Everything a command run needs, flags already merged in.

    Only the fields relevant to ``mode`` must be set; the rest keep
    their defaults. ``grid`` is None when the run should build default
    grids from the data.
    """

    mode: str
    seed: int | None = None
    threads: int | None = None
    method: str = "knn"
    shape: tuple | None = None
    a: float | None = None
    sigma: float | None = None
    shapes: tuple | None = None
    a_values: tuple | None = None
    sigma_values: tuple | None = None
    n_reps: int = 30
    data_path: str | None = None
    target_path: str | None = None
    schema: CsvSchema | None = None
    train_fraction: float = 0.8
    grid: ParamGrid | None = None
    output_path: str | None = None
    output_format: str = "csv"


def _cfg_error(section, key, message) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}")


def _as_int(section, key, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _cfg_error(section, key, f"expected an integer, got {raw!r}") from None


def _as_real(section, key, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _cfg_error(section, key, f"expected a number, got {raw!r}") from None


def _split_list(raw) -> list:
    return [tok for tok in raw.replace(",", " ").split() if tok]


def _as_shape(section, key, raw) -> tuple:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise _cfg_error(section, key, f"expected N1xN2 (e.g. 25x25), got {raw!r}")
    return tuple(_as_int(section, key, p) for p in parts)


_KNOWN_KEYS = {
    "run": ("mode", "seed", "threads", "method"),
    "simulation": ("shape", "a", "sigma", "shapes", "a_values", "sigma_values", "n_reps"),
    "data": (
        "path",
        "target",
        "site_columns",
        "covariate_columns",
        "response_column",
        "label_column",
        "delimiter",
        "train_fraction",
    ),
    "grid": ("k_values", "k_prime_values", "h_values", "rho_values", "k1", "k2"),
    "output": ("path", "format"),
}


def parse_config(path, check_required: bool = True) -> ExperimentConfig:
    """Read and validate a configuration file.

    With ``check_required`` the mode's required fields must already be
    present; the command line passes False here, merges its flags, and
    runs :func:`validate_config` afterwards.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown section [{section}] (expected one of "
                f"{', '.join(_KNOWN_KEYS)})"
            )
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (expected one of "
                    f"{', '.join(_KNOWN_KEYS[section])})"
                )

    def get(section, key, default=None):
        return parser.get(section, key, fallback=default)

    mode = get("run", "mode")
    if mode is None:
        raise ConfigError("[run] mode is required")
    if mode not in _MODES:
        raise _cfg_error("run", "mode", f"expected one of {_MODES}, got {mode!r}")
    cfg = ExperimentConfig(mode=mode)

    if get("run", "seed") is not None:
        cfg.seed = _as_int("run", "seed", get("run", "seed"))
    if get("run", "threads") is not None:
        cfg.threads = _as_int("run", "threads", get("run", "threads"))
        if cfg.threads < 1:
            raise _cfg_error("run", "threads", "must be >= 1")
    if get("run", "method") is not None:
        cfg.method = get("run", "method")
        if cfg.method not in ("knn", "nw"):
            raise _cfg_error("run", "method", f"expected knn or nw, got {cfg.method!r}")

    sim = "simulation"
    if get(sim, "shape") is not None:
        cfg.shape = _as_shape(sim, "shape", get(sim, "shape"))
    if get(sim, "a") is not None:
        cfg.a = _as_real(sim, "a", get(sim, "a"))
    if get(sim, "sigma") is not None:
        cfg.sigma = _as_real(sim, "sigma", get(sim, "sigma"))
    if get(sim, "shapes") is not None:
        cfg.shapes = tuple(
            _as_shape(sim, "shapes", tok) for tok in _split_list(get(sim, "shapes"))
        )
    if get(sim, "a_values") is not None:
        cfg.a_values = tuple(
            _as_real(sim, "a_values", tok) for tok in _split_list(get(sim, "a_values"))
        )
    if get(sim, "sigma_values") is not None:
        cfg.sigma_values = tuple(
            _as_real(sim, "sigma_values", tok)
            for tok in _split_list(get(sim, "sigma_values"))
        )
    if get(sim, "n_reps") is not None:
        cfg.n_reps = _as_int(sim, "n_reps", get(sim, "n_reps"))

    cfg.data_path = get("data", "path")
    cfg.target_path = get("data", "target")
    if get("data", "train_fraction") is not None:
        cfg.train_fraction = _as_real(
            "data", "train_fraction", get("data", "train_fraction")
        )
    schema_keys = ("site_columns", "covariate_columns", "response_column", "label_column")
    if any(get("data", k) is not None for k in schema_keys):
        for k in ("site_columns", "covariate_columns"):
            if get("data", k) is None:
                raise _cfg_error("data", k, "required when describing a dataset file")
        try:
            cfg.schema = CsvSchema(
                site_columns=tuple(_split_list(get("data", "site_columns"))),
                covariate_columns=tuple(_split_list(get("data", "covariate_columns"))),
                response_column=get("data", "response_column"),
                label_column=get("data", "label_column"),
                delimiter=get("data", "delimiter", ","),
            )
        except ValueError as exc:
            raise ConfigError(f"[data] bad schema: {exc}") from exc

    grid_keys = _KNOWN_KEYS["grid"]
    if any(get("grid", k) is not None for k in grid_keys):
        kwargs = {}
        for key, attr in (("k_values", "k_values"), ("k_prime_values", "k_prime_values")):
            if get("grid", key) is not None:
                kwargs[attr] = tuple(
                    _as_int("grid", key, tok) for tok in _split_list(get("grid", key))
                )
        for key, attr in (("h_values", "h_values"), ("rho_values", "rho_values")):
            if get("grid", key) is not None:
                kwargs[attr] = tuple(
                    _as_real("grid", key, tok) for tok in _split_list(get("grid", key))
                )
        for key, attr in (("k1", "k1_specs"), ("k2", "k2_specs")):
            if get("grid", key) is not None:
                kwargs[attr] = tuple(_split_list(get("grid", key)))
        try:
            cfg.grid = ParamGrid(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[grid] invalid: {exc}") from exc

    cfg.output_path = get("output", "path")
    cfg.output_format = get("output", "format", "csv")
    if cfg.output_format != "csv":
        raise _cfg_error("output", "format", f"only csv is supported, got {cfg.output_format!r}")

    if check_required:
        validate_config(cfg)
    return cfg


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check mode-required fields; benchmark singulars promote to lists."""
    _require(cfg.mode in _MODES, f"mode must be one of {_MODES}, got {cfg.mode!r}")
    if cfg.mode == "simulate":
        _require(cfg.shape is not None, "simulate needs [simulation] shape")
        _require(cfg.a is not None, "simulate needs [simulation] a")
        _require(cfg.sigma is not None, "simulate needs [simulation] sigma")
        _require(cfg.output_path is not None, "simulate needs [output] path (or --output)")
    elif cfg.mode in ("cv", "predict"):
        _require(cfg.data_path is not None, f"{cfg.mode} needs [data] path")
        _require(cfg.schema is not None, f"{cfg.mode} needs [data] column names")
        _require(
            cfg.schema is None or cfg.schema.response_column is not None,
            f"{cfg.mode} needs [data] response_column",
        )
        if cfg.mode == "predict":
            _require(cfg.target_path is not None, "predict needs [data] target")
    elif cfg.mode == "classify":
        _require(cfg.data_path is not None, "classify needs [data] path")
        _require(cfg.schema is not None, "classify needs [data] column names")
        _require(
            cfg.schema is None or cfg.schema.label_column is not None,
            "classify needs [data] label_column",
        )
        _require(
            0.0 < cfg.train_fraction < 1.0,
            f"train_fraction must be in (0, 1), got {cfg.train_fraction}",
        )
    elif cfg.mode == "benchmark":
        for plural, singular in (
            ("shapes", "shape"),
            ("a_values", "a"),
            ("sigma_values", "sigma"),
        ):
            if getattr(cfg, plural) is None:
                single = getattr(cfg, singular)
                _require(
                    single is not None,
                    f"benchmark needs [simulation] {plural} (or {singular})",
                )
                setattr(cfg, plural, (single,))
                setattr(cfg, singular, None)
            else:
                _require(
                    getattr(cfg, singular) is None,
                    f"give either [simulation] {singular} or {plural}, not both",
                )
        _require(cfg.n_reps >= 2, "benchmark needs n_reps >= 2")
        _require(cfg.seed is not None, "benchmark needs a seed (config [run] seed or --seed)")
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    """Render a config back to file syntax (the --print-config echo).

    ``parse_config`` of the result reproduces the config; defaults are
    written out explicitly.
    """
    out = ["[run]", f"mode = {cfg.mode}"]
    if cfg.seed is not None:
        out.append(f"seed = {cfg.seed}")
    if cfg.threads is not None:
        out.append(f"threads = {cfg.threads}")
    out.append(f"method = {cfg.method}")

    sim = []
    if cfg.shape is not None:
        sim.append("shape = %dx%d" % cfg.shape)
    if cfg.a is not None:
        sim.append(f"a = {cfg.a!r}")
    if cfg.sigma is not None:
        sim.append(f"sigma = {cfg.sigma!r}")
    if cfg.shapes is not None:
        sim.append("shapes = " + ", ".join("%dx%d" % s for s in cfg.shapes))
    if cfg.a_values is not None:
        sim.append("a_values = " + ", ".join(repr(v) for v in cfg.a_values))
    if cfg.sigma_values is not None:
        sim.append("sigma_values = " + ", ".join(repr(v) for v in cfg.sigma_values))
    sim.append(f"n_reps = {cfg.n_reps}")
    if sim:
        out += ["", "[simulation]"] + sim

    dat = []
    if cfg.data_path is not None:
        dat.append(f"path = {cfg.data_path}")
    if cfg.target_path is not None:
        dat.append(f"target = {cfg.target_path}")
    if cfg.schema is not None:
        dat.append("site_columns = " + ", ".join(cfg.schema.site_columns))
        dat.append("covariate_columns = " + ", ".join(cfg.schema.covariate_columns))
        if cfg.schema.response_column is not None:
            dat.append(f"response_column = {cfg.schema.response_column}")
        if cfg.schema.label_column is not None:
            dat.append(f"label_column = {cfg.schema.label_column}")
        if cfg.schema.delimiter != ",":
            dat.append(f"delimiter = {cfg.schema.delimiter}")
    dat.append(f"train_fraction = {cfg.train_fraction!r}")
    if dat:
        out += ["", "[data]"] + dat

    if cfg.grid is not None:
        out += ["", "[grid]"]
        g = cfg.grid
        if g.k_values:
            out.append("k_values = " + ", ".join(str(v) for v in g.k_values))
        if g.k_prime_values:
            out.append("k_prime_values = " + ", ".join(str(v) for v in g.k_prime_values))
        if g.h_values:
            out.append("h_values = " + ", ".join(repr(v) for v in g.h_values))
        if g.rho_values:
            out.append("rho_values = " + ", ".join(repr(v) for v in g.rho_values))
        out.append("k1 = " + ", ".join(g.k1_specs))
        out.append("k2 = " + ", ".join(g.k2_specs))

    out += ["", "[output]"]
    if cfg.output_path is not None:
        out.append(f"path = {cfg.output_path}")
    out.append(f"format = {cfg.output_format}")
    return "\n".join(out) + "\n"
