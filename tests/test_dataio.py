"""File format tests: dataset CSV, report serialization, run configs."""

import math

import numpy as np
import pytest

from spatialknn.dataio import (
    BENCHMARK_COLUMNS,
    CsvSchema,
    ExperimentConfig,
    format_config,
    load_survey,
    parse_config,
    read_dataset,
    report_lines,
    survey_schema,
    validate_config,
    write_dataset,
    write_report,
)
from spatialknn.errors import ConfigError, DataError, ParseError, SchemaError
from spatialknn.estimator import SpatialDataset
from spatialknn.evaluation import (
    BenchmarkCell,
    BenchmarkResult,
    EvalReport,
    ccr,
)
from spatialknn.lattice import SiteSet


def simple_schema(**kw):
    base = dict(site_columns=("s1", "s2"), covariate_columns=("x",))
    base.update(kw)
    return CsvSchema(**base)


def make_data(rng, n=6, d=1, responses=True, labels=None, label_values=None):
    return SpatialDataset(
        sites=SiteSet(rng.normal(size=(n, 2))),
        covariates=rng.normal(size=(n, d)),
        responses=rng.normal(size=n) if responses else None,
        labels=None if labels is None else np.asarray(labels),
        label_values=label_values,
    )


# ---------------------------------------------------------------------------
# dataset files


def test_schema_validation():
    with pytest.raises(ValueError, match="at least one"):
        CsvSchema((), ("x",))
    with pytest.raises(ValueError, match="twice"):
        CsvSchema(("s", "x"), ("x",))
    with pytest.raises(ValueError, match="delimiter"):
        simple_schema(delimiter=";;")
    assert simple_schema(response_column="y").column_names() == ("s1", "s2", "x", "y")


def test_roundtrip_responses(tmp_path):
    rng = np.random.default_rng(0)
    data = make_data(rng, n=9)
    path = tmp_path / "d.csv"
    schema = simple_schema(response_column="y")
    write_dataset(data, path, schema)
    back = read_dataset(path, schema)
    np.testing.assert_array_equal(back.sites.coords, data.sites.coords)
    np.testing.assert_array_equal(back.covariates, data.covariates)
    np.testing.assert_array_equal(back.responses, data.responses)
    assert back.labels is None


def test_roundtrip_labels_from_one(tmp_path):
    rng = np.random.default_rng(1)
    data = make_data(rng, n=6, responses=False, labels=[1, 2, 3, 1, 2, 3])
    path = tmp_path / "d.csv"
    schema = simple_schema(label_column="c")
    write_dataset(data, path, schema)
    back = read_dataset(path, schema)
    np.testing.assert_array_equal(back.labels, data.labels)
    assert back.label_values == (1, 2, 3)


def test_presence_codes_map_to_classes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,s2,x,p\n0.0,0.0,1.5,0\n1.0,0.0,2.5,1\n0.0,1.0,3.5,0\n")
    data = read_dataset(path, simple_schema(label_column="p"))
    np.testing.assert_array_equal(data.labels, [1, 2, 1])
    assert data.label_values == (0, 1)


@pytest.mark.parametrize(
    "codes", [(0, 2), (-1, 1), (1, 3), (1, 3000), (1, 10**9), (-(2**63), 0, 2**63 - 1)]
)
def test_label_codes_map_to_ascending_classes(tmp_path, codes):
    # any integer codes read as classes 1..M in code order, and write back as written
    src = tmp_path / "a.csv"
    column = [codes[-1], *codes, codes[0]]
    src.write_text("s1,s2,x,p\n" + "".join(f"{i}.0,0.0,1.0,{c}\n" for i, c in enumerate(column)))
    schema = simple_schema(label_column="p")
    data = read_dataset(src, schema)
    assert data.label_values == codes
    m = len(codes)
    np.testing.assert_array_equal(data.labels, [m, *range(1, m + 1), 1])
    assert data.n_classes == m
    out = tmp_path / "b.csv"
    write_dataset(data, out, schema)
    assert out.read_bytes() == src.read_bytes()
    assert read_dataset(out, schema).label_values == codes


def test_presence_roundtrip_is_byte_identical(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text("s1,s2,x,p\n0.25,0.5,1.5,0\n1.0,0.75,2.5,1\n")
    schema = simple_schema(label_column="p")
    data = read_dataset(src, schema)
    out = tmp_path / "b.csv"
    write_dataset(data, out, schema)
    assert out.read_bytes() == src.read_bytes()


def test_double_roundtrip_idempotent(tmp_path):
    rng = np.random.default_rng(7)
    data = make_data(rng, n=1000, d=3)
    schema = CsvSchema(("s1", "s2"), ("x1", "x2", "x3"), response_column="y")
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    write_dataset(data, first, schema)
    write_dataset(read_dataset(first, schema), second, schema)
    assert first.read_bytes() == second.read_bytes()


def test_read_by_column_name_not_position(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("junk,y,x,s2,s1\n9,4.0,3.0,2.0,1.0\n")
    data = read_dataset(path, simple_schema(response_column="y"))
    np.testing.assert_array_equal(data.sites.coords, [[1.0, 2.0]])
    np.testing.assert_array_equal(data.covariates, [[3.0]])
    np.testing.assert_array_equal(data.responses, [4.0])


def test_header_only_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("s1,s2,x,y\n")
    data = read_dataset(path, simple_schema(response_column="y"))
    assert len(data) == 0


def test_semicolon_delimiter_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    data = make_data(rng, n=5)
    schema = simple_schema(response_column="y", delimiter=";")
    path = tmp_path / "d.csv"
    write_dataset(data, path, schema)
    assert ";" in path.read_text().splitlines()[0]
    back = read_dataset(path, schema)
    np.testing.assert_array_equal(back.responses, data.responses)


def test_read_errors_name_the_problem(tmp_path):
    schema = simple_schema(response_column="y")
    path = tmp_path / "d.csv"

    with pytest.raises(DataError, match="neither"):
        read_dataset(path, simple_schema())

    with pytest.raises(DataError, match="cannot read"):
        read_dataset(tmp_path / "missing.csv", schema)

    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        read_dataset(path, schema)

    path.write_text("s1,s2,z,y\n0,0,1,2\n")
    with pytest.raises(SchemaError, match="missing column 'x'"):
        read_dataset(path, schema)

    path.write_text("s1,s2,x,y\n0.0,0.0,oops,2.0\n")
    with pytest.raises(ParseError, match="line 2, column 'x'"):
        read_dataset(path, schema)

    path.write_text("s1,s2,x,y\n0.0,0.0,1.0,2.0\n0.0,1.0,nan,3.0\n")
    with pytest.raises(ParseError, match="line 3.*non-finite"):
        read_dataset(path, schema)

    path.write_text("s1,s2,x,y\n0.0,0.0,1.0\n")
    with pytest.raises(ParseError, match="line 2 has 3 fields"):
        read_dataset(path, schema)

    path.write_text("s1,s2,x,p\n0,0,1,1.5\n")
    with pytest.raises(ParseError, match="integer label"):
        read_dataset(path, simple_schema(label_column="p"))



def test_write_errors(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "d.csv"
    with pytest.raises(DataError, match="no responses"):
        write_dataset(make_data(rng, responses=False, labels=[1, 1, 2, 2, 1, 2]),
                      path, simple_schema(response_column="y"))
    with pytest.raises(DataError, match="no labels"):
        write_dataset(make_data(rng), path, simple_schema(label_column="c"))
    with pytest.raises(DataError, match="site columns"):
        write_dataset(make_data(rng), path,
                      CsvSchema(("s1",), ("x",), response_column="y"))
    with pytest.raises(DataError, match="covariate columns"):
        write_dataset(make_data(rng, d=2), path, simple_schema(response_column="y"))
    with pytest.raises(DataError, match="cannot write"):
        write_dataset(make_data(rng), tmp_path / "no" / "dir.csv",
                      simple_schema(response_column="y"))


def test_bundled_survey():
    data = load_survey()
    assert len(data) == 495
    assert data.d == 4
    assert data.label_values == (0, 1)
    counts = np.bincount(data.labels, minlength=3)
    assert (counts[1], counts[2]) == (357, 138)
    assert survey_schema().label_column == "presence"


# ---------------------------------------------------------------------------
# reports


def fake_cell(t_stat, p_value):
    knn = EvalReport.from_values([0.25, 0.5])
    nw = EvalReport.from_values([0.5, 1.0])
    res = BenchmarkResult(knn=knn, nw=nw, t_stat=t_stat, p_value=p_value)
    return BenchmarkCell(shape=(6, 6), sigma=0.1, a=5.0, n_reps=2, result=res)


def test_benchmark_report_lines():
    lines = report_lines([fake_cell(2.5, 0.125), fake_cell(None, None)])
    assert lines[0] == ",".join(BENCHMARK_COLUMNS)
    first = lines[1].split(",")
    assert first[:4] == ["6x6", "0.1", "5.0", "2"]
    assert first[4] == "0.375" and first[6] == "0.75"
    assert first[8:] == ["2.5", "0.125"]
    assert lines[2].split(",")[8:] == ["degenerate", "degenerate"]
    # a pair of cells is cells, not a (header, rows) pair
    assert report_lines((fake_cell(2.5, 0.125), fake_cell(None, None))) == lines


def test_generic_report_pair():
    # a rate of an absent class is nan, written as an empty cell
    lines = report_lines((("a", "b"), [(1, 2.5), ("x", None), ("y", math.nan)]))
    assert lines == ["a,b", "1,2.5", "x,", "y,"]


def test_report_lines_rejects_unknown():
    # no command writes a lone replication or classification-rate report
    for report in ({"not": "a report"}, EvalReport.from_values([1.0]), ccr([1, 2], [1, 1], 2)):
        with pytest.raises(TypeError, match="unsupported report"):
            report_lines(report)


def test_write_report_roundtrip_and_stability(tmp_path):
    report = (("group", "rate"), [("all", 0.8), ("class_1", 2 / 3), ("class_2", math.nan)])
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines() == report_lines(report)
    assert p1.read_text().endswith("\n")


def test_write_report_format_and_io_errors(tmp_path):
    report = (("a",), [(1.0,)])
    with pytest.raises(ConfigError, match="only csv"):
        write_report(report, tmp_path / "r.json", format="json")
    with pytest.raises(DataError, match="cannot write"):
        write_report(report, tmp_path / "no" / "r.csv")


# ---------------------------------------------------------------------------
# run configuration


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


SIM_CFG = """\
[run]
mode = simulate
seed = 7

[simulation]
shape = 10x12
a = 5.0
sigma = 0.1

[output]
path = out.csv
"""


def test_parse_simulate_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SIM_CFG))
    assert cfg.mode == "simulate"
    assert cfg.seed == 7
    assert cfg.shape == (10, 12)
    assert cfg.a == 5.0 and cfg.sigma == 0.1
    assert cfg.output_path == "out.csv"
    assert cfg.output_format == "csv"
    assert cfg.grid is None and cfg.schema is None


def test_parse_grid_and_schema_sections(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """\
[run]
mode = cv
method = nw

[data]
path = d.csv
site_columns = s1, s2
covariate_columns = x1 x2
response_column = y

[grid]
h_values = 0.5, 1.0
rho_values = 0.25
k1 = gaussian
k2 = parzen indicator
"""))
    assert cfg.method == "nw"
    assert cfg.schema.site_columns == ("s1", "s2")
    assert cfg.schema.covariate_columns == ("x1", "x2")
    assert cfg.grid.h_values == (0.5, 1.0)
    assert cfg.grid.rho_values == (0.25,)
    assert cfg.grid.k1_specs == ("gaussian",)
    assert cfg.grid.k2_specs == ("parzen", "indicator")


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.cfg")

    cases = [
        ("x = 1\n", "malformed"),
        ("[bogus]\nx = 1\n", r"unknown section \[bogus\]"),
        ("[run]\nmode = cv\nturbo = 1\n", "unknown key 'turbo'"),
        ("[output]\npath = out.csv\n", r"\[run\] mode is required"),
        ("[run]\nmode = dance\n", "expected one of"),
        ("[run]\nmode = cv\nseed = two\n", "expected an integer"),
        ("[run]\nmode = cv\nthreads = 0\n", "must be >= 1"),
        ("[run]\nmode = cv\nmethod = ols\n", "expected knn or nw"),
        ("[run]\nmode = simulate\n[simulation]\nshape = 10\n", "expected N1xN2"),
        ("[run]\nmode = cv\n[grid]\nk_values = 0\n", r"\[grid\] invalid"),
        ("[run]\nmode = cv\n[data]\nresponse_column = y\n", "required when describing"),
        ("[run]\nmode = cv\n[output]\nformat = json\n", "only csv"),
    ]
    for text, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            parse_config(write_cfg(tmp_path, text), check_required=False)


def test_required_fields_by_mode(tmp_path):
    incomplete = {
        "simulate": ("[run]\nmode = simulate\n", "shape"),
        "cv": ("[run]\nmode = cv\n", r"\[data\] path"),
        "predict": (
            "[run]\nmode = predict\n[data]\npath = d.csv\n"
            "site_columns = s\ncovariate_columns = x\nresponse_column = y\n",
            "target",
        ),
        "classify": (
            "[run]\nmode = classify\n[data]\npath = d.csv\n"
            "site_columns = s\ncovariate_columns = x\nresponse_column = y\n",
            "label_column",
        ),
        "benchmark": ("[run]\nmode = benchmark\n", "shapes"),
    }
    for mode, (text, pattern) in incomplete.items():
        path = write_cfg(tmp_path, text)
        parse_config(path, check_required=False)  # lazily fine
        with pytest.raises(ConfigError, match=pattern):
            parse_config(path)


def test_cv_needs_response_column(tmp_path):
    text = (
        "[run]\nmode = cv\n[data]\npath = d.csv\n"
        "site_columns = s\ncovariate_columns = x\nlabel_column = p\n"
    )
    with pytest.raises(ConfigError, match="response_column"):
        parse_config(write_cfg(tmp_path, text))


def test_benchmark_promotes_singulars(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """\
[run]
mode = benchmark
seed = 0

[simulation]
shape = 7x7
a = 5.0
sigma_values = 0.1, 5.0
n_reps = 2
"""))
    assert cfg.shapes == ((7, 7),) and cfg.shape is None
    assert cfg.a_values == (5.0,) and cfg.a is None
    assert cfg.sigma_values == (0.1, 5.0)


def test_benchmark_rejects_singular_plural_mix(tmp_path):
    text = SIM_CFG.replace("mode = simulate", "mode = benchmark").replace(
        "sigma = 0.1", "sigma = 0.1\na_values = 1.0"
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config(write_cfg(tmp_path, text))


def test_benchmark_needs_seed_and_reps(tmp_path):
    base = "[run]\nmode = benchmark\n{run_extra}[simulation]\nshapes = 7x7\na_values = 5.0\nsigma_values = 0.1\n{sim_extra}"
    with pytest.raises(ConfigError, match="seed"):
        parse_config(write_cfg(tmp_path, base.format(run_extra="", sim_extra="")))
    with pytest.raises(ConfigError, match="n_reps >= 2"):
        parse_config(
            write_cfg(tmp_path, base.format(run_extra="seed = 1\n", sim_extra="n_reps = 1\n"))
        )


def test_validate_config_promotion_in_place():
    cfg = ExperimentConfig(mode="benchmark", seed=1, shape=(5, 5), a=1.0, sigma=0.5, n_reps=2)
    validate_config(cfg)
    assert cfg.shapes == ((5, 5),)
    assert cfg.shape is None and cfg.a is None and cfg.sigma is None


def test_format_config_roundtrip(tmp_path):
    texts = [
        SIM_CFG,
        """\
[run]
mode = classify
seed = 3
threads = 2

[data]
path = survey.csv
site_columns = lon, lat
covariate_columns = sbt, sst
label_column = presence
delimiter = ;
train_fraction = 0.75

[grid]
k_values = 2, 4
k_prime_values = 3
k1 = gaussian, biweight
k2 = parzen

[output]
path = out.csv
""",
        """\
[run]
mode = benchmark
seed = 11

[simulation]
shapes = 7x7, 9x8
a_values = 5.0, 10.0
sigma_values = 0.1
n_reps = 4

[output]
path = bench.csv
""",
    ]
    for text in texts:
        cfg = parse_config(write_cfg(tmp_path, text))
        echoed = format_config(cfg)
        again = parse_config(write_cfg(tmp_path, echoed))
        assert again == cfg, echoed
