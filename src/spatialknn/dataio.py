"""CSV dataset ingestion, report serialization, and run configuration.

File conventions: RFC-4180-style CSV with a header row; one data row
per site, row order defining the site index order. Floats are written
with ``repr`` (shortest round-trip decimal), so write-then-read returns
every finite float bit for bit and report files are byte-stable for
fixed inputs.
Label columns hold any integer codes: the distinct codes, ascending,
become classes 1..M (0/1 presence data: class 2 = presence), and the
codes are kept on the dataset so files and reports can translate back.

Configuration files are flat ``key = value`` text (configparser
syntax) with sections [run], [simulation], [data], [grid], [output].
Unknown sections or keys are rejected by name. Each key is declared
once, in ``_KEYS``, which parsing and the --print-config echo read.
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
from .evaluation import BenchmarkCell, ParamGrid
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

    The distinct label codes, ascending, become classes 1..M, and
    ``label_values`` records them: class j has code ``label_values[j - 1]``.
    """
    if schema.response_column is None and schema.label_column is None:
        raise DataError("schema names neither a response nor a label column")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=schema.delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (no header row)")
    header = [name.strip() for name in rows[0]]
    positions = {}
    for name in schema.column_names():
        if name not in header:
            raise SchemaError(f"{path}: missing column {name!r} (header: {header})")
        if header.count(name) > 1:
            raise SchemaError(f"{path}: column {name!r} appears twice in the header")
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
        codes, classes = np.unique(
            column(schema.label_column, _parse_label, np.int64), return_inverse=True
        )
        labels = classes + 1
        label_values = tuple(int(c) for c in codes)
    return SpatialDataset(
        sites=SiteSet(coords),
        covariates=covariates,
        responses=responses,
        labels=labels,
        label_values=label_values,
    )


def _report_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


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
        row = [*data.sites.coords[i], *data.covariates[i]]
        if schema.response_column is not None:
            row.append(data.responses[i])
        if schema.label_column is not None:
            lab = int(data.labels[i])
            row.append(lab if data.label_values is None else data.label_values[lab - 1])
        rows.append([_report_cell(v) for v in row])
    _write_text(path, _csv_text(schema.column_names(), rows, schema.delimiter))


def _csv_text(header, rows, delimiter=",") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_text(path, text) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def load_survey() -> SpatialDataset:
    """The bundled synthetic survey dataset (495 stations)."""
    src = resources.files("spatialknn.data").joinpath("synthetic_survey.csv")
    with resources.as_file(src) as p:
        return read_dataset(p, survey_schema())


# ---------------------------------------------------------------------------
# reports


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
        test = ["degenerate" if v is None else v for v in (r.t_stat, r.p_value)]
        rows.append(
            (shape, cell.sigma, cell.a, cell.n_reps)
            + (r.knn.mean, r.knn.sd, r.nw.mean, r.nw.sd, *test)
        )
    return BENCHMARK_COLUMNS, rows


def report_lines(report) -> list:
    """CSV lines (no trailing newline) for any supported report shape.

    Accepts a ``(header, rows)`` pair or a sequence of
    :class:`BenchmarkCell`.
    """
    if isinstance(report, (list, tuple)) and all(
        isinstance(c, BenchmarkCell) for c in report
    ):
        header, rows = _benchmark_rows(report)
    elif isinstance(report, tuple) and len(report) == 2:
        header, rows = report
    else:
        raise TypeError(f"unsupported report type: {type(report).__name__}")
    cells = [[_report_cell(v) for v in row] for row in rows]
    return _csv_text(header, cells).splitlines()


def write_report(report, path, format: str = "csv") -> None:
    """Serialize a report; see :func:`report_lines` for accepted shapes."""
    if format != "csv":
        raise ConfigError(f"unsupported report format {format!r} (only csv)")
    _write_text(path, "\n".join(report_lines(report)) + "\n")


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


def _as_int(raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _as_count(raw) -> int:
    if (value := _as_int(raw)) < 1:
        raise ValueError("must be >= 1")
    return value


def _as_real(raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _as_shape(raw) -> tuple:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected N1xN2 (e.g. 25x25), got {raw!r}")
    return tuple(_as_int(p) for p in parts)


def _one_of(allowed, expected):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"{expected}, got {raw!r}")
        return raw

    return parse


def _list_of(parse_item):
    return lambda raw: tuple(parse_item(tok) for tok in raw.replace(",", " ").split())


def _shape_text(shape) -> str:
    return "%dx%d" % shape


def _joined(show_item):
    return lambda values: ", ".join(show_item(v) for v in values)


@dataclass(frozen=True)
class _Key:
    """One ``[section] name`` of a config file and the field it sets.

    ``parse(text)`` reads the value or raises ValueError with the reason,
    to which parse_config adds the key; ``show(value)`` writes it back.
    :func:`format_config` leaves out None and ``implied``, the value an
    absent key means. ``part`` is None for a field of ExperimentConfig
    itself, else the config field holding the object the key fills in
    (``schema``: a :class:`CsvSchema`, ``grid``: a :class:`ParamGrid`).
    """

    section: str
    name: str
    parse: object
    show: object
    field: str | None = None  # defaults to ``name``
    part: str | None = None
    implied: object = None
    required: bool = False  # must be given when its part is described
    describes: bool = True  # given alone, describes its part

    @property
    def attr(self) -> str:
        return self.field or self.name


_STRS, _INTS, _REALS = _list_of(str), _list_of(_as_int), _list_of(_as_real)
_MODE = _Key("run", "mode", _one_of(_MODES, f"expected one of {_MODES}"), str)

#: Every config key, in file order; sections in order of first appearance.
_KEYS = (
    _MODE,
    _Key("run", "seed", _as_int, str),
    _Key("run", "threads", _as_count, str),
    _Key("run", "method", _one_of(("knn", "nw"), "expected knn or nw"), str),
    _Key("simulation", "shape", _as_shape, _shape_text),
    _Key("simulation", "a", _as_real, repr),
    _Key("simulation", "sigma", _as_real, repr),
    _Key("simulation", "shapes", _list_of(_as_shape), _joined(_shape_text)),
    _Key("simulation", "a_values", _REALS, _joined(repr)),
    _Key("simulation", "sigma_values", _REALS, _joined(repr)),
    _Key("simulation", "n_reps", _as_int, str),
    _Key("data", "path", str, str, "data_path"),
    _Key("data", "target", str, str, "target_path"),
    _Key("data", "site_columns", _STRS, _joined(str), part="schema", required=True),
    _Key("data", "covariate_columns", _STRS, _joined(str), part="schema", required=True),
    _Key("data", "response_column", str, str, part="schema"),
    _Key("data", "label_column", str, str, part="schema"),
    _Key("data", "delimiter", str, str, part="schema", implied=",", describes=False),
    _Key("data", "train_fraction", _as_real, repr),
    _Key("grid", "k_values", _INTS, _joined(str), part="grid", implied=()),
    _Key("grid", "k_prime_values", _INTS, _joined(str), part="grid", implied=()),
    _Key("grid", "h_values", _REALS, _joined(repr), part="grid", implied=()),
    _Key("grid", "rho_values", _REALS, _joined(repr), part="grid", implied=()),
    _Key("grid", "k1", _STRS, _joined(str), "k1_specs", part="grid"),
    _Key("grid", "k2", _STRS, _joined(str), "k2_specs", part="grid"),
    _Key("output", "path", str, str, "output_path"),
    _Key("output", "format", _one_of(("csv",), "only csv is supported"), str, "output_format"),
)
_SECTIONS = {k.section: [j for j in _KEYS if j.section == k.section] for k in _KEYS}
_KNOWN_KEYS = {section: tuple(k.name for k in keys) for section, keys in _SECTIONS.items()}
#: The objects a section's keys can describe: class and error prefix.
_PARTS = {"schema": (CsvSchema, "bad schema"), "grid": (ParamGrid, "invalid")}


def _build_part(part, section, keys, given):
    described = [k for k in keys if k.part == part]
    if not any(k.describes and k in given for k in described):
        return None
    for k in described:
        if k.required and k not in given:
            raise _cfg_error(section, k.name, "required when describing a dataset file")
    cls, prefix = _PARTS[part]
    try:
        return cls(**{k.attr: given[k] for k in described if k in given})
    except ValueError as exc:
        raise ConfigError(f"[{section}] {prefix}: {exc}") from exc


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
    if parser.get(_MODE.section, _MODE.name, fallback=None) is None:
        raise ConfigError(f"[{_MODE.section}] {_MODE.name} is required")

    # Section by section in table order, each section's objects built
    # before the next section is read: a file with several errors
    # always reports the first in that order.
    fields = {}
    for section, keys in _SECTIONS.items():
        given = {}
        for key in keys:
            raw = parser.get(section, key.name, fallback=None)
            if raw is not None:
                try:
                    given[key] = key.parse(raw)
                except ValueError as exc:
                    raise _cfg_error(section, key.name, exc) from None
        fields.update((k.attr, v) for k, v in given.items() if k.part is None)
        for part in _PARTS.keys() & {k.part for k in keys}:
            fields[part] = _build_part(part, section, keys, given)
    cfg = ExperimentConfig(**fields)
    if check_required:
        validate_config(cfg)
    return cfg


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check mode-required fields; benchmark singulars promote to lists."""
    _require(cfg.mode in _MODES, f"mode must be one of {_MODES}, got {cfg.mode!r}")
    _require(cfg.seed is None or cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}")
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
                _require(getattr(cfg, plural), f"[simulation] {plural} lists no values")
        _require(cfg.n_reps >= 2, "benchmark needs n_reps >= 2")
        _require(cfg.seed is not None, "benchmark needs a seed (config [run] seed or --seed)")
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    """Render a config back to file syntax (the --print-config echo).

    ``parse_config`` of the result reproduces the config; defaults are
    written out explicitly.
    """
    out = []
    for section, keys in _SECTIONS.items():
        lines = []
        for key in keys:
            holder = cfg if key.part is None else getattr(cfg, key.part)
            value = None if holder is None else getattr(holder, key.attr)
            if value is not None and value != key.implied:
                lines.append(f"{key.name} = {key.show(value)}")
        if lines:
            out += ["", f"[{section}]"] + lines
    return "\n".join(out[1:]) + "\n"
