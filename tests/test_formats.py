"""File-format edge cases: the config key table, malformed dataset
files at the command line, and the exact dataset round trip.
"""

import codecs
import locale

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spatialknn.cli import main
from spatialknn.dataio import CsvSchema, format_config, parse_config, read_dataset, write_dataset
from spatialknn.errors import ConfigError
from spatialknn.estimator import SpatialDataset
from spatialknn.lattice import SiteSet

# ---------------------------------------------------------------------------
# config files

EVERY_KEY = """\
[run]
mode = benchmark
seed = 5
threads = 2
method = nw

[simulation]
shape = 7x8
a = 5
sigma = 0.1
shapes = 7x7 9X8
a_values = 5.0, 1e-3
sigma_values = 0.1
n_reps = 4

[data]
path = d.csv
target = t.csv
site_columns = s1 s2
covariate_columns = x1, x2
response_column = y
label_column = p
delimiter = ;
train_fraction = .75

[grid]
k_values = 2, 4
k_prime_values = 3
h_values = 0.5 1
rho_values = 0.25
k1 = gaussian, biweight
k2 = parzen

[output]
path = out.csv
format = csv
"""


def cfg_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_format_config_writes_every_key_once_in_file_order(tmp_path):
    cfg = parse_config(cfg_file(tmp_path, EVERY_KEY), check_required=False)
    echoed = format_config(cfg)
    assert echoed == (
        "[run]\nmode = benchmark\nseed = 5\nthreads = 2\nmethod = nw\n\n"
        "[simulation]\nshape = 7x8\na = 5.0\nsigma = 0.1\nshapes = 7x7, 9x8\n"
        "a_values = 5.0, 0.001\nsigma_values = 0.1\nn_reps = 4\n\n"
        "[data]\npath = d.csv\ntarget = t.csv\nsite_columns = s1, s2\n"
        "covariate_columns = x1, x2\nresponse_column = y\nlabel_column = p\n"
        "delimiter = ;\ntrain_fraction = 0.75\n\n"
        "[grid]\nk_values = 2, 4\nk_prime_values = 3\nh_values = 0.5, 1.0\n"
        "rho_values = 0.25\nk1 = gaussian, biweight\nk2 = parzen\n\n"
        "[output]\npath = out.csv\nformat = csv\n"
    )
    assert parse_config(cfg_file(tmp_path, echoed), check_required=False) == cfg


def test_a_lone_delimiter_describes_no_dataset_file(tmp_path):
    cfg = parse_config(cfg_file(tmp_path, "[run]\nmode = cv\n[data]\ndelimiter = ;\n"), False)
    assert cfg.schema is None
    assert "delimiter" not in format_config(cfg)


@pytest.mark.parametrize(
    "text, first_error",
    [
        (
            "[run]\nmode = cv\nthreads = 0\nmethod = ols\n[grid]\nk_values = 0\n",
            "[run] threads: must be >= 1",
        ),
        (
            "[run]\nmode = cv\nmethod = ols\n[simulation]\nshape = 10\n",
            "[run] method: expected knn or nw, got 'ols'",
        ),
        ("[run]\nseed = x\nthreads = 0\n", "[run] mode is required"),
        (
            "[run]\nmode = cv\n[simulation]\nn_reps = x\n[data]\ntrain_fraction = f\n",
            "[simulation] n_reps: expected an integer, got 'x'",
        ),
        (
            "[run]\nmode = cv\n[data]\nresponse_column = y\ntrain_fraction = f\n"
            "[output]\nformat = json\n",
            "[data] train_fraction: expected a number, got 'f'",
        ),
        (
            "[run]\nmode = cv\n[data]\nresponse_column = y\n[grid]\nk_values = a\n",
            "[data] site_columns: required when describing a dataset file",
        ),
        (
            "[run]\nmode = cv\n[data]\nsite_columns = s\ncovariate_columns = s\n"
            "[grid]\nk_values = a\n",
            "[data] bad schema: schema names a column twice: ('s', 's')",
        ),
        (
            "[run]\nmode = cv\n[grid]\nk_values = a\nk1 = bogus\n[output]\nformat = json\n",
            "[grid] k_values: expected an integer, got 'a'",
        ),
        (
            "[run]\nmode = cv\n[grid]\nk_values = 0\n[output]\nformat = json\n",
            "[grid] invalid: k_values must all be >= 1",
        ),
    ],
)
def test_config_with_two_errors_reports_the_first_in_file_order(tmp_path, text, first_error):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg_file(tmp_path, text), check_required=False)
    assert str(info.value) == first_error


# ---------------------------------------------------------------------------
# malformed dataset files at the command line


def run_cv(tmp_path, capsys, data: bytes):
    data_path = tmp_path / "d.csv"
    data_path.write_bytes(data)
    cfg = cfg_file(
        tmp_path,
        f"[run]\nmode = cv\n[data]\npath = {data_path}\nsite_columns = s1, s2\n"
        "covariate_columns = x\nresponse_column = y\n",
    )
    code = main(["cv", "--config", str(cfg)])
    return code, capsys.readouterr().err, str(data_path)


GOOD_ROWS = "".join(f"{i % 4}.0,{i // 4}.0,{i * 0.5},{i * i * 0.25}\n" for i in range(12))


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="files are read in the locale's encoding; 0xff is valid in single-byte ones",
)
def test_non_utf8_bytes_are_a_data_error_naming_the_file(tmp_path, capsys):
    data = b"s1,s2,x,y\n" + GOOD_ROWS.encode() + b"0.0,0.0,\xff,1.0\n"
    code, err, path = run_cv(tmp_path, capsys, data)
    assert code == 2 and path in err
    assert "Traceback" not in err


def test_oversized_field_is_a_data_error_naming_the_file(tmp_path, capsys):
    data = ("s1,s2,x,y\n" + GOOD_ROWS + "0.0,0.0," + "1" * 131073 + ",1.0\n").encode()
    code, err, path = run_cv(tmp_path, capsys, data)
    assert code == 2 and path in err and "field" in err


def test_schema_column_named_twice_in_the_header_is_a_schema_error(tmp_path, capsys):
    rows = "".join(f"{i % 4}.0,{i // 4}.0,{i}.0,{-i}.0,{i}.5\n" for i in range(12))
    code, err, path = run_cv(tmp_path, capsys, ("s1,s2,x,x,y\n" + rows).encode())
    assert code == 2 and path in err and "'x'" in err and "twice" in err


# ---------------------------------------------------------------------------
# the dataset round trip

PROPERTY = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308)
LABEL_CODES = st.one_of(
    st.sampled_from((0, 1, -1, 3000, 10**9)),
    st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
)
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(FLOATS, min_size=n * (3 + d), max_size=n * (3 + d)))
    values = np.array(cells, dtype=float).reshape(n, 3 + d)
    if draw(st.booleans()):  # classes with the codes of a file
        codes = draw(st.lists(LABEL_CODES, min_size=1, max_size=4, unique=True))
        label_values = tuple(sorted(codes))
    else:  # classes built in the library, which are their own codes
        label_values = None
    top = 5 if label_values is None else len(label_values)
    labels = np.array(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    return SpatialDataset(
        sites=SiteSet(values[:, :2]),
        covariates=values[:, 2 : 2 + d],
        responses=values[:, -1],
        labels=labels,
        label_values=label_values,
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def label_codes(data):
    if data.label_values is None:
        return data.labels.tolist()
    return [data.label_values[j - 1] for j in data.labels]


@PROPERTY
@given(data=datasets(), delimiter=st.sampled_from((",", ";", "\t")))
def test_write_then_read_returns_every_float_bit_for_bit(tmp_path_factory, data, delimiter):
    schema = CsvSchema(
        ("s1", "s2"),
        tuple(f"x{j}" for j in range(data.d)),
        response_column="y",
        label_column="p",
        delimiter=delimiter,
    )
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    write_dataset(data, path, schema)
    back = read_dataset(path, schema)
    assert np.array_equal(bits(back.sites.coords), bits(data.sites.coords))
    assert np.array_equal(bits(back.covariates), bits(data.covariates))
    assert np.array_equal(bits(back.responses), bits(data.responses))
    assert label_codes(back) == label_codes(data)
    assert back.label_values == tuple(sorted(set(label_codes(data))))
