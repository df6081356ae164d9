import ast
import copy
import functools
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regvar
from regvar import specs
from regvar.batch import SampleBatch
from regvar.cli import (
    _BLOCK_ROWS,
    _CSV_BLOCK_ROWS,
    _bad_line,
    _first_rejected,
    blocks,
    cli_main,
    read_csv,
    write_csv,
)
from regvar.errors import (
    InvalidConstruction,
    InvalidGain,
    InvalidParameter,
    NonFiniteInput,
    RegvarError,
    SpecError,
)
from regvar.estimation import estimate
from regvar.g17 import _significands
from regvar.measures import SpectralMeasure
from regvar.rng import CHUNK, GAIN_STREAM, substream
from regvar.scenarios import SCENARIO_NAMES, Check, Report, Scenario, run_scenario
from regvar.sphere import TWO_PI
from regvar.specs import (
    any_gain_from_spec,
    gain_from_spec,
    load_spec,
    map_from_spec,
    measure_from_spec,
    measure_to_spec,
    model_from_spec,
    radial_from_spec,
    random_gain_from_spec,
    report_json,
)
from regvar.transforms import TransformedModel, radial_scale_apply, randomized_scale_apply

UNIFORM_PARETO = {
    "kind": "polar_independent", "alpha": 1.0,
    "sigma": {"kind": "density", "dim": 2, "density": {"name": "uniform"}},
    "radial": {"kind": "pareto", "alpha": 1.0},
}


def refused_spec(err: str, command: str, flag: str) -> str:
    """What argparse's one error line says of a flag's value, a spec's or
    another's, after its `argument --flag: ` prefix; the usage line comes
    first."""
    assert err.startswith(f"usage: regvar {command} ")
    prefix = f"regvar {command}: error: argument {flag}: "
    *_, line = err.splitlines()
    assert line.startswith(prefix) and "Traceback" not in err
    return line[len(prefix):]


# ----------------------------------------------------------------------
# spec round trips


def test_measure_spec_roundtrip_discrete():
    m = SpectralMeasure.discrete([0.1, 2.0, 5.5], [0.2, 0.3, 0.5])
    again = measure_from_spec(json.loads(json.dumps(measure_to_spec(m))))
    np.testing.assert_allclose(again.angles, m.angles, atol=1e-12)
    np.testing.assert_allclose(again.weights, m.weights, atol=1e-12)
    assert again.kind == "discrete"


def test_measure_spec_roundtrip_density_and_empirical():
    u = measure_from_spec(measure_to_spec(SpectralMeasure.uniform()))
    assert u.total_mass == 1.0
    bump = measure_from_spec(measure_to_spec(SpectralMeasure.cosine_bump(0.3)))
    assert bump.density_spec["amplitude"] == 0.3
    e = measure_from_spec({"kind": "empirical", "dim": 2, "atoms": [
        {"angle": 0.5, "weight": 0.5}, {"angle": 1.0, "weight": 0.5}]})
    again = measure_from_spec(measure_to_spec(e))
    assert again.kind == "empirical"
    np.testing.assert_array_equal(again.angles, [0.5, 1.0])
    np.testing.assert_array_equal(again.weights, [0.5, 0.5])


def test_measure_spec_roundtrip_d3():
    coords = np.eye(3)
    m = SpectralMeasure.discrete(coords, [0.2, 0.3, 0.5])
    again = measure_from_spec(measure_to_spec(m))
    assert again.dim == 3
    np.testing.assert_allclose(again.coords, m.coords, atol=1e-12)


def test_model_spec_roundtrip():
    for spec in (UNIFORM_PARETO,
                 {"kind": "example1", "alpha": 1.0, "amplitude": 0.5},
                 {"kind": "example2", "alpha": 1.0, "nu": 0.5, "beta": 1.2},
                 {"kind": "example3", "alpha": 2.0}):
        model = model_from_spec(spec)
        assert model.alpha == spec["alpha"]


OSCILLATING = {"kind": "oscillating", "alpha": 1.0, "amplitude": 0.5}


def test_radial_spec_kinds():
    assert radial_from_spec({"kind": "pareto", "alpha": 2.0}).alpha == 2.0
    law = radial_from_spec({"kind": "atom_plus_pareto", "alpha": 1.0,
                            "tail_coefficient": 0.3})
    assert law.tail_coefficient == 0.3
    assert radial_from_spec(OSCILLATING).sign == 1
    for sign in (1, -1, -1.0):
        assert radial_from_spec(dict(OSCILLATING, sign=sign)).sign == sign


@pytest.mark.parametrize("sign", [True, "1", None, 1.5, 0],
                         ids=["true", "string", "null", "fraction", "zero"])
def test_oscillating_sign_is_checked(sign):
    with pytest.raises(SpecError, match="spec field 'sign'"):
        radial_from_spec(dict(OSCILLATING, sign=sign))


def test_cli_sample_names_a_bad_oscillating_sign(tmp_path, capsys):
    model = dict(UNIFORM_PARETO, radial=dict(OSCILLATING, sign=True))
    out = tmp_path / "x.csv"
    assert cli_main(["sample", "--model", json.dumps(model), "-n", "10",
                     "-o", str(out)]) == 2
    assert refused_spec(capsys.readouterr().err, "sample", "--model").startswith(
        "spec field 'sign'")
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [1.5, 0.0, -0.5],
                         ids=["above", "zero", "negative"])
def test_oscillating_amplitude_is_checked(amplitude):
    with pytest.raises(SpecError, match="spec field 'amplitude'"):
        radial_from_spec(dict(OSCILLATING, amplitude=amplitude))


def test_cli_sample_names_a_bad_oscillating_amplitude(tmp_path, capsys):
    model = dict(UNIFORM_PARETO, radial=dict(OSCILLATING, amplitude=1.5))
    out = tmp_path / "x.csv"
    assert cli_main(["sample", "--model", json.dumps(model), "-n", "10",
                     "-o", str(out)]) == 2
    assert refused_spec(capsys.readouterr().err, "sample", "--model") == \
        "spec field 'amplitude' must lie in (0, 1), got 1.5"
    assert not out.exists()


def test_polar_independent_alpha_defaults_to_the_radial_law():
    spec = dict(UNIFORM_PARETO, radial={"kind": "pareto", "alpha": 1.5})
    del spec["alpha"]
    model = model_from_spec(spec)
    assert model.alpha == 1.5
    stated = model_from_spec(dict(spec, alpha=1.5))
    assert model.sample(100, 1).points.tobytes() == stated.sample(100, 1).points.tobytes()
    with pytest.raises(InvalidConstruction, match="radial law index must equal alpha"):
        model_from_spec(dict(spec, alpha=1.0))


def test_gain_and_map_specs():
    g = gain_from_spec({"kind": "cosine", "base": 1.0, "amplitude": 0.5})
    assert g.declared_bound == 1.5
    g = gain_from_spec({"kind": "power_cusp", "center": np.pi, "gamma": 0.2})
    assert g.declared_bound is None
    g = gain_from_spec({"kind": "indicator_arc", "arcs": [[0.5, 1.5]]})
    assert g.at_angles(np.array([1.0]))[0] == 1.0
    m = map_from_spec({"kind": "step", "breakpoints": [0.0, np.pi],
                       "values": [0.5, 4.0]})
    assert m.apply_angles(np.array([0.1]))[0] == 0.5
    m = map_from_spec({"kind": "quantile_transform",
                       "target": {"kind": "discrete", "dim": 2,
                                  "atoms": [{"angle": 1.0, "weight": 1.0}]}})
    assert m.apply_angles(np.array([3.0]))[0] == 1.0


UNKNOWN_KIND = {
    "measure": lambda kind: measure_from_spec({"kind": kind}),
    "density": lambda kind: measure_from_spec({"kind": "density",
                                               "density": {"name": kind}}),
    "radial law": lambda kind: radial_from_spec({"kind": kind}),
    "model": lambda kind: model_from_spec({"kind": kind}),
    "map": lambda kind: map_from_spec({"kind": kind}),
    "gain": lambda kind: gain_from_spec({"kind": kind}),
    "random gain": lambda kind: random_gain_from_spec({"kind": kind}),
}


@pytest.mark.parametrize("family", UNKNOWN_KIND)
@pytest.mark.parametrize("kind", ["cosin", None, 3])
def test_unknown_kind_names_every_kind_of_its_family(family, kind):
    assert set(UNKNOWN_KIND) == set(specs._KINDS)
    with pytest.raises(SpecError) as info:
        UNKNOWN_KIND[family](kind)
    assert str(info.value).endswith(
        "; expected one of " + ", ".join(specs._KINDS[family]))


def test_unknown_specs_raise():
    with pytest.raises(SpecError):
        measure_from_spec({"kind": "nope"})
    with pytest.raises(SpecError):
        model_from_spec({"kind": "nope"})
    with pytest.raises(SpecError):
        gain_from_spec({"kind": "nope"})
    with pytest.raises(SpecError):
        load_spec("{not json")
    with pytest.raises(SpecError):
        load_spec("/does/not/exist.json")


# ----------------------------------------------------------------------
# CSV round trips


def read_batch(path: str) -> SampleBatch:
    """A CSV's whole sample: read_csv's rows as one batch, once its blocks
    have passed the checks that name a rejected point's line."""
    rows, start = read_csv(path)
    for _ in blocks(path, rows, start):
        pass
    return SampleBatch.from_points(rows.T)


def test_csv_roundtrip_bit_exact(tmp_path):
    model = model_from_spec(UNIFORM_PARETO)
    batch = model.sample(10_000, 5)
    path = tmp_path / "pts.csv"
    write_csv(str(path), batch.dim, [batch])
    again = read_batch(str(path))
    np.testing.assert_array_equal(again.points, batch.points)


def test_csv_empty_batch(tmp_path):
    empty = SampleBatch(np.empty((2, 0)), np.empty(0), np.empty((2, 0)))
    path = tmp_path / "empty.csv"
    write_csv(str(path), empty.dim, [empty])
    assert path.read_text().strip() == "x1,x2"
    again = read_batch(str(path))
    assert again.size == 0 and again.dim == 2


MAX = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal


def reference_csv(points: np.ndarray) -> str:
    """The per-value f-string formatting write_csv must reproduce byte for byte."""
    lines = [",".join(f"x{i + 1}" for i in range(points.shape[0]))]
    lines += [",".join(f"{v:.17g}" for v in row) for row in points.T]
    return "\n".join(lines) + "\n"


def raw_batch(rows) -> SampleBatch:
    """Batch holding exactly these coordinates; write_csv reads points only."""
    points = np.array(rows, dtype=float).T
    return SampleBatch(points, np.zeros(points.shape[1]), points)


def rows_of(first, rest):
    """1 to 40 rows of dimension 1 to 3."""
    return st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(first, *[rest] * (d - 1)), min_size=1, max_size=40))


finite = st.floats(allow_nan=False, allow_infinity=False)


@example([(0.0, -0.0), (TINY, -TINY), (MAX, -MAX), (-MAX, 1e-310)])
@given(rows_of(finite, finite))
def test_write_csv_matches_reference_formatter(tmp_path_factory, rows):
    batch = raw_batch(rows)
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    write_csv(str(path), batch.dim, [batch])
    assert path.read_text(encoding="utf-8") == reference_csv(batch.points)


# a lead coordinate bounded away from 0 keeps every row nonzero, and magnitudes
# up to 1e150 keep the squares in SampleBatch.from_points finite
lead = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)
coordinate = st.floats(-1e150, 1e150)


@example([(1.0, -0.0, TINY), (-1e-150, 1e150, -TINY)])
@given(rows_of(lead, coordinate))
def test_csv_roundtrip_property(tmp_path_factory, rows):
    batch = raw_batch(rows)
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    write_csv(str(path), batch.dim, [batch])
    assert read_batch(str(path)).points.tobytes() == batch.points.tobytes()


def assert_writes_reference(path, points):
    """write_csv's file of these (rows, d) points equals reference_csv,
    compared line by line."""
    batch = raw_batch(points)
    write_csv(str(path), batch.dim, [batch])
    got = path.read_text(encoding="utf-8").splitlines()
    want = reference_csv(points.T).splitlines()
    # a plain == on long texts makes pytest diff them for minutes
    diff = [i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]]
    assert len(got) == len(want) and not diff, \
        f"lines {diff[:3]} differ: {[got[i] for i in diff[:3]]}"


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_block_boundary(tmp_path, offset):
    n = _CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(offset + 1)
    batch = SampleBatch.from_points(rng.standard_cauchy((2, n)))
    path = tmp_path / "pts.csv"
    assert_writes_reference(path, batch.points.T)
    assert read_batch(str(path)).points.tobytes() == batch.points.tobytes()


def test_write_csv_rounds_exact_ties_half_to_even(tmp_path):
    # 18 significant digits ending in 5: exactly halfway between two
    # 17-digit outputs, so the kernel leaves them to '%.17g' %
    quarter = (2.0 ** 53 - 1) / 4
    assert repr(quarter) == "2251799813685247.8"  # ...47.75, to even
    assert f"{quarter - 1.5:.17g}" == "2251799813685246.2"  # ...46.25
    m = np.arange(10 ** 15, 10 ** 15 + 400, dtype=float)
    eighths = 10 ** 14 + np.arange(200) + np.arange(1, 16, 2)[:, None] / 8
    ties = np.concatenate([[quarter, quarter - 1.5], m + 0.25, m + 0.75,
                           eighths.ravel()])
    assert all(len(f"{v:.18g}".replace(".", "")) == 18
               and f"{v:.18g}".endswith("5") for v in ties)
    assert _significands(ties)[2].all()
    assert_writes_reference(tmp_path / "ties.csv",
                            np.stack([ties, -ties], axis=1))


def test_write_csv_layout_switches_and_carries(tmp_path):
    # %g switches to e-notation below X = -4 and from X = 17 on
    assert f"{np.nextafter(1e-4, 0):.17g}" == "9.9999999999999991e-05"
    assert f"{1e-4:.17g}" == "0.0001"
    assert f"{np.nextafter(1e17, 0):.17g}" == "99999999999999984"
    assert f"{1e17:.17g}" == "1e+17"
    # a value that rounds up to 10**k carries into the next exponent: the
    # doubles nearest 1e-305 and 1e-14 lie below them
    for k in (305, 14):
        assert Fraction(float(f"1e-{k}")) < Fraction(1, 10 ** k)
        assert f"{float(f'1e-{k}'):.17g}" == f"1e-{k}"
    values = []
    for k in range(-324, 309):
        for text in (f"1e{k}", f"9.99999999999999999e{k - 1}",
                     f"9.9999999999999999e{k - 1}", f"1.00000000000000001e{k}"):
            v = float(text)
            values += [v, np.nextafter(v, 0), np.nextafter(v, np.inf)]
    values = np.array([v for v in values if 0 < v < np.inf])
    assert_writes_reference(tmp_path / "layout.csv",
                            np.stack([values, -values], axis=1))


def test_write_csv_every_binary_exponent(tmp_path):
    powers = 2.0 ** np.arange(-1074, 1024)
    below = np.nextafter(powers, 0)
    special = [0.0, -0.0, MAX, -MAX, np.inf, -np.inf, np.nan, TINY, -TINY]
    values = np.concatenate([powers, below, -powers, special])
    assert_writes_reference(tmp_path / "exponents.csv", values.reshape(-1, 3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_write_csv_random_bit_patterns(tmp_path, d):
    # every float64, NaN payloads and infinities included, across a block
    rows = max(_CSV_BLOCK_ROWS + 17, -(-100_000 // d))
    rng = np.random.default_rng(d)
    bits = rng.integers(0, 2 ** 64, size=(rows, d), dtype=np.uint64)
    assert_writes_reference(tmp_path / "bits.csv", bits.view(np.float64))


@pytest.mark.parametrize("body", ["", "\n\n", "\n  \n\t\n",
                                  "# one\n\n  # two\n"])
def test_read_csv_blank_body_is_empty(tmp_path, body):
    path = tmp_path / "blank.csv"
    path.write_text("x1,x2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = read_batch(str(path))
    assert batch.points.shape == (2, 0)


@pytest.mark.parametrize("body, message", [
    ("1.0,2.0\n3.0,4.0,5.0\n", "line 3: expected 2 values, found 3"),
    ("1.0,abc\n", "line 2: 'abc' is not a number"),
    ("1.0,2.0\n1.0,abc\n", "line 3: 'abc' is not a number"),
    ("\n1.0,2.0\n1.0,2.0,3.0\n", "line 4: expected 2 values, found 3"),
    ("1.0\n", "line 2: expected 2 values, found 1"),
    # numpy skips whitespace-only lines only before the first row, and
    # rejects the underscores that float() accepts
    ("1.0,2.0\n  \n", "line 3: expected 2 values, found 1"),
    ("  \n1.0,1_0\n", "line 3: '1_0' is not a number"),
], ids=["ragged", "non-numeric", "non-numeric-later", "ragged-after-blank",
        "short-rows", "blank-after-data", "underscore"])
def test_read_csv_rejects_malformed_rows(tmp_path, capsys, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n" + body)
    with pytest.raises(RegvarError) as info:
        read_csv(str(path))
    assert str(info.value) == f"{path}, {message}"
    assert cli_main(["estimate", "--input", str(path), "--top", "1",
                     "-o", str(tmp_path / "rep.json")]) == 2
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "a,b\n1.0,2.0\n", "x1,y\n1.0,2.0\n"],
                         ids=["empty", "no-x", "one-not-x"])
def test_cli_refuses_a_csv_without_its_header(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert cli_main(["estimate", "--input", str(path), "--top", "1",
                     "-o", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: expected a x1,...,xd header\n"


def test_read_csv_names_line_of_non_utf8_bytes(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"x1,x2\n1.0,2.0\n1.0,\xff\n")
    with pytest.raises(RegvarError) as info:
        read_csv(str(path))
    assert str(info.value) == f"{path}, line 3: '\ufffd' is not a number"


@pytest.mark.parametrize("body, message", [
    ("1.0,2.0\n0,0\n3.0,4.0\n", "line 3: the zero vector"),
    ("1.0,2.0\nnan,1\n", "line 3: a coordinate is NaN or infinite"),
    # blank and comment lines count as file lines but not as rows
    ("\n1.0,2.0\n# note\n\n1.0,inf\n", "line 6: a coordinate is NaN or infinite"),
    ("1.5e308,1.5e308\n", "line 2: a norm exceeds the double range"),
    # the first rejected row is named, whatever the later rows hold
    ("1.0,2.0\n-0.0,0.0\nnan,1\n", "line 3: the zero vector"),
], ids=["zero", "nan", "inf-after-skipped-lines", "overflowing-norm",
        "first-of-two"])
def test_read_csv_names_line_of_rejected_point(tmp_path, capsys, body,
                                               message):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n" + body)
    rep = tmp_path / "rep.json"
    assert cli_main(["estimate", "--input", str(path), "--top", "1",
                     "-o", str(rep)]) == 2
    assert capsys.readouterr().err == f"error: {path}, {message}\n"
    assert not rep.exists()
    assert cli_main(["transform", "--input", str(path), "--map",
                     '{"kind": "identity"}', "-o", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}, {message}\n"


def test_csv_names_first_rejected_line_in_file_order(tmp_path, capsys):
    # a zero point before a syntax error: the point's line is named, though
    # numpy stops at the syntax error while parsing
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n0,0\n1.0,abc\n")
    message = f"{path}, line 3: the zero vector"
    with pytest.raises(RegvarError) as info:
        read_csv(str(path))
    assert str(info.value) == message
    for step, args in (("estimate", ["--top", "1"]),
                       ("transform", ["--map", '{"kind": "identity"}'])):
        out = tmp_path / "out"
        assert cli_main([step, "--input", str(path), *args,
                         "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [path]


# a row past two blocks, after blank and comment lines, and what the CLI
# says of it: the steps take the parsed rows 65 536 at a time
LATE_ROWS = [
    ("nan,1", "a coordinate is NaN or infinite"),
    ("0,0", "the zero vector"),
    ("1.5e308,1.5e308", "a norm exceeds the double range"),
    ("1.0,2.0,3.0", "expected 2 values, found 3"),
    ("1.0,\udcff", "'\ufffd' is not a number"),
]


def write_late_row(path, row: str) -> int:
    """A CSV whose row 2 * CHUNK + 3 is row, with a blank and a comment line
    before the data and another comment in the first block; a row written
    as a surrogate escape becomes that raw byte. Returns row's file line."""
    good = "1.5,2.5\n"
    head = "x1,x2\n\n# leading comment\n"
    body = good * 10 + "# a comment inside the first block\n" \
        + good * (2 * CHUNK - 8)
    text = head + body + row + "\n" + good * 5
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8", "surrogateescape"))
    return (head + body).count("\n") + 1


@pytest.mark.parametrize("step", ["transform", "estimate"])
@pytest.mark.parametrize("row, message", LATE_ROWS,
                         ids=["nan", "zero", "overflowing-norm", "ragged",
                              "non-utf8"])
def test_cli_names_line_of_rejected_row_in_a_later_block(tmp_path, capsys, step,
                                                         row, message):
    path = tmp_path / "late.csv"
    lineno = write_late_row(path, row)
    assert lineno > 2 * CHUNK
    out = tmp_path / "out"
    args = ["--map", '{"kind": "identity"}'] if step == "transform" \
        else ["--top", "10"]
    assert cli_main([step, "--input", str(path), *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}, line {lineno}: {message}\n"
    # no output, and no temporary file beside it
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("step", ["transform", "estimate"])
def test_cli_failing_in_third_block_keeps_existing_output(tmp_path, capsys,
                                                          step):
    path = tmp_path / "late.csv"
    lineno = write_late_row(path, "nan,1")
    out = tmp_path / "out"
    out.write_text("earlier output\n")
    args = ["--map", '{"kind": "identity"}'] if step == "transform" \
        else ["--top", "10"]
    assert cli_main([step, "--input", str(path), *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}, line {lineno}: a coordinate is NaN or infinite\n"
    assert sorted(tmp_path.iterdir()) == [path, out]
    assert out.read_text() == "earlier output\n"


# Pareto norms with alpha 0.02 overflow in about one chunk in three; with
# this seed the first two chunks are finite and the third is not
OVERFLOWING = dict(UNIFORM_PARETO, alpha=0.02,
                   radial={"kind": "pareto", "alpha": 0.02})
OVERFLOW_SEED = 17


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_cli_sample_failing_in_third_chunk_writes_nothing(tmp_path, capsys,
                                                          workers, existing):
    chunks = model_from_spec(OVERFLOWING).chunks(3 * CHUNK, OVERFLOW_SEED)
    assert [next(chunks).size for _ in range(2)] == [CHUNK, CHUNK]
    with pytest.raises(NonFiniteInput):
        next(chunks)
    out = tmp_path / "x.csv"
    if existing:
        out.write_text("earlier output\n")
    assert cli_main(["sample", "--model", json.dumps(OVERFLOWING),
                     "-n", str(3 * CHUNK), "--seed", str(OVERFLOW_SEED),
                     "--workers", workers, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: a norm is NaN or infinite\n"
    assert sorted(tmp_path.iterdir()) == ([out] if existing else [])
    if existing:
        assert out.read_text() == "earlier output\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_writes_into_a_pipe_directly(tmp_path):
    # a pipe holds nothing to leave half written, and a file renamed over
    # it would cut its reader off
    ref, fifo = tmp_path / "ref.csv", tmp_path / "pipe"
    argv = ["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "5",
            "--seed", "1", "-o"]
    assert cli_main(argv + [str(ref)]) == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert cli_main(argv + [str(fifo)]) == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [ref.read_bytes()]


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 1])
def test_streamed_steps_equal_whole_batch_steps(tmp_path, capsys, n):
    spec = json.dumps(UNIFORM_PARETO)
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    for workers, out in (("1", one), ("2", two)):
        assert cli_main(["sample", "--model", spec, "-n", str(n), "--seed", "5",
                         "--workers", workers, "-o", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"wrote {n} points (d=2, seed=5) -> {out}\n"
    assert one.read_bytes() == two.read_bytes()
    batch = read_batch(str(one))
    ref = tmp_path / "ref.csv"
    # a randomized gain draws from one generator, block after block
    gain = {"kind": "exp_cosine", "amplitude": 0.5}
    whole = randomized_scale_apply(batch, random_gain_from_spec(gain),
                                   substream(9, GAIN_STREAM))
    # an indicator gain drops the points outside its arc in every block
    arc = {"kind": "indicator_arc", "arcs": [[0.0, 2.0]]}
    dropped = radial_scale_apply(batch, gain_from_spec(arc))
    assert dropped.zero_count > 0
    for flags, expected in ((["--gain", json.dumps(gain), "--gain-seed", "9"],
                             whole),
                            (["--gain", json.dumps(arc)], dropped)):
        out = tmp_path / "t.csv"
        assert cli_main(["transform", "--input", str(one), *flags,
                         "-o", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"wrote {expected.size} points (zero_count={expected.zero_count}) "
            f"-> {out}\n")
        write_csv(str(ref), 2, [expected])
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("row, message, calls", [
    # numpy rejects the second block; the 7 clean points before its first
    # rejected line are judged at once
    ("1.0", "expected 2 values, found 1", [_BLOCK_ROWS, 7]),
    # from_points rejects the second block; halving finds its eighth line
    # in 16 calls on 65 535 points in all, and one more names its fault
    ("nan,1", "a coordinate is NaN or infinite",
     [_BLOCK_ROWS, _BLOCK_ROWS] + [_BLOCK_ROWS >> i for i in range(1, 14)]
     + [4, 2, 1, 1]),
], ids=["ragged", "nan"])
def test_bad_line_judges_points_a_block_at_a_time(tmp_path, monkeypatch, row,
                                                  message, calls):
    path = tmp_path / "bad.csv"
    good = "1.5,2.5\n"
    path.write_text("x1,x2\n" + good * (_BLOCK_ROWS + 7) + row + "\n"
                    + good * (_BLOCK_ROWS - 3))
    judged = []
    from_points = SampleBatch.from_points

    def counting(points, zero_count=0):
        judged.append(points.shape[1])
        return from_points(points, zero_count)

    monkeypatch.setattr(SampleBatch, "from_points", staticmethod(counting))
    error = _bad_line(str(path), 2, 2, "cause")
    assert str(error) == f"{path}, line {_BLOCK_ROWS + 9}: {message}"
    assert judged == calls


@pytest.mark.parametrize(
    "at, judge", [(at, "syntax") for at in range(9)] + [(at, "points") for at in range(9)],
    ids=[str(at) for at in range(9)] + [f"points-{at}" for at in range(9)])
def test_first_rejected_parses_each_line_about_once(at, judge):
    # numpy's parse of line texts, or from_points on parsed rows; a later
    # fault is not named
    if judge == "syntax":
        items = [f"{i}.5,1" for i in range(9)]
        items[at] = "1.0"
        items[-1] = items[-1] if at == 8 else "x,1"
        judge = functools.partial(regvar.cli._rows, d=2)
    else:
        items = np.array([[i + 0.5, 1.0] for i in range(9)])
        items[at] = [np.nan, 1.0]
        items[-1] = items[-1] if at == 8 else [0.0, 0.0]
        judge = regvar.cli._sound
    judged = []

    def counting(part):
        judged.append(len(part))
        return judge(part)

    parts, end = _first_rejected(items, counting)
    assert end == at
    rows = np.concatenate([np.empty((0, 2)), *parts])
    assert rows.tolist() == [[i + 0.5, 1] for i in range(at)]
    # halving: about one judgement of items in all, in few calls
    assert sum(judged) <= len(items)
    assert len(judged) <= (len(items) - 1).bit_length()


def test_bad_line_falls_back_to_numpy_message(tmp_path):
    path = tmp_path / "good.csv"
    path.write_text("x1,x2\n1.0,2.0\n")
    assert str(_bad_line(str(path), 2, 2, "cause")) == f"{path}: cause"


def numpy_value(cell: str) -> float | None:
    """The value np.loadtxt reads from cell, or None when it rejects it."""
    try:
        return np.loadtxt(io.StringIO("0," + cell + "\n"), delimiter=",",
                          ndmin=2)[0, 1]
    except ValueError:
        return None


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\x1c1", "infinity"],
                         ids=["underscore", "arabic-digit", "separator", "infinity"])
def test_read_csv_reads_a_cell_as_numpy_does(tmp_path, cell):
    path = tmp_path / "cell.csv"
    path.write_text("x1,x2\n1," + cell + "\n", encoding="utf-8")
    want = numpy_value(cell)
    if want is None:
        with pytest.raises(RegvarError) as info:
            read_csv(str(path))
        assert str(info.value) == f"{path}, line 2: {cell.strip()!r} is not a number"
    else:
        rows, _ = read_csv(str(path))
        assert rows[0, 1] == want


csv_piece = st.sampled_from(list("0123456789.,eE+-_ #\t\n\r\x0c\x1c\xa0")
                            + ["inf", "nan", "\u0661", "\ufffd", "1.5", "x"])


@given(st.lists(csv_piece, max_size=25).map("".join))
def test_read_csv_errors_name_a_line(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x1,x2\n" + body)
    try:
        read_batch(str(path))
    except RegvarError as e:
        # a rejected file names its line; numpy's fallback message is unused
        assert not str(e).startswith(f"{path}: ")
        # a cell named as not a number is one numpy rejects on its own
        named = re.fullmatch(r".*, line \d+: (.*) is not a number", str(e),
                             flags=re.DOTALL)
        if named is not None:
            assert numpy_value(ast.literal_eval(named.group(1))) is None


@pytest.mark.parametrize("row, norm", [("1e-170,0", 1e-170), ("1e200,1", 1e200)],
                         ids=["tiny", "huge"])
def test_read_csv_tiny_and_huge_rows(tmp_path, row, norm):
    path = tmp_path / "edge.csv"
    path.write_text("x1,x2\n" + row + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = read_batch(str(path))
    assert batch.norms.tolist() == [norm]
    assert batch.dirs[0, 0] == 1.0


# ----------------------------------------------------------------------
# CLI behavior


def test_cli_sample_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    spec = json.dumps(UNIFORM_PARETO)
    assert cli_main(["sample", "--model", spec, "-n", "5000", "--seed", "7",
                     "-o", str(a)]) == 0
    assert cli_main(["sample", "--model", spec, "-n", "5000", "--seed", "7",
                     "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_transform_removing_everything(tmp_path):
    src = tmp_path / "src.csv"
    out = tmp_path / "out.csv"
    atom = {"kind": "polar_independent", "alpha": 1.0,
            "sigma": {"kind": "discrete", "dim": 2,
                      "atoms": [{"angle": 0.0, "weight": 1.0}]},
            "radial": {"kind": "pareto", "alpha": 1.0}}
    assert cli_main(["sample", "--model", json.dumps(atom), "-n", "500",
                     "--seed", "1", "-o", str(src)]) == 0
    gain = {"kind": "indicator_arc", "arcs": [[0.1, 6.0]]}
    assert cli_main(["transform", "--input", str(src), "--gain",
                     json.dumps(gain), "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines == ["x1,x2"]


def test_cli_random_gain_on_3d_input_exits_2(tmp_path, capsys):
    src = tmp_path / "d3.csv"
    src.write_text("x1,x2,x3\n1.0,2.0,3.0\n-1.0,0.5,2.0\n")
    out = tmp_path / "out.csv"
    gain = {"kind": "exp_cosine", "amplitude": 0.5}
    assert cli_main(["transform", "--input", str(src), "--gain",
                     json.dumps(gain), "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: random gains act on planar angles (d = 2)\n"
    assert not out.exists()


def test_cli_estimate(tmp_path):
    src = tmp_path / "src.csv"
    rep = tmp_path / "rep.json"
    cli_main(["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "20000",
              "--seed", "3", "-o", str(src)])
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"kind": "density", "dim": 2, "density": {"name": "uniform"}}))
    assert cli_main(["estimate", "--input", str(src), "--top", "0.01",
                     "--target", str(target), "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["k_used"] == 200
    assert 0.5 < data["alpha_hat"] < 2.0
    assert "ks" in data["distances"]


def test_cli_estimate_on_d3_writes_tv_and_no_ks(tmp_path):
    # KS is defined through the angle, so a d = 3 estimate has TV alone
    src, rep = tmp_path / "d3.csv", tmp_path / "rep.json"
    src.write_text("x1,x2,x3\n" + "".join(
        f"{1.0 + i},0,0\n0,0,{1.5 + i}\n" for i in range(10)))
    target = {"kind": "discrete", "dim": 3,
              "atoms": [{"coords": [1.0, 0.0, 0.0], "weight": 0.5},
                        {"coords": [0.0, 0.0, 1.0], "weight": 0.5}]}
    assert cli_main(["estimate", "--input", str(src), "--top", "4",
                     "--target", json.dumps(target), "-o", str(rep)]) == 0
    distances = json.loads(rep.read_text())["distances"]
    assert list(distances) == ["tv"]
    assert distances["tv"] == pytest.approx(0.0, abs=1e-12)


def test_cli_estimate_matches_target_atoms_one_ulp_away(tmp_path):
    # quadrant_snap's atoms come back from the CSV one ulp from the
    # centres pi/4 + j pi/2 written in the target: TV and KS both count
    # them as the same atom, so KS stays at or below TV
    bump, q = 0.5, np.pi / 2
    model = dict(UNIFORM_PARETO, sigma={"kind": "density", "dim": 2, "density":
                                        {"name": "cosine_bump", "amplitude": bump}})
    centres = [q / 2 + j * q for j in range(4)]
    masses = [(q + bump * (np.sin((j + 1) * q) - np.sin(j * q))) / TWO_PI
              for j in range(4)]
    x, y, rep = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "rep.json"
    target = json.dumps({"kind": "discrete", "dim": 2, "atoms": [
        {"angle": c, "weight": w} for c, w in zip(centres, masses)]})
    assert cli_main(["sample", "--model", json.dumps(model), "-n", "20000",
                     "--seed", "7", "-o", str(x)]) == 0
    assert cli_main(["transform", "--input", str(x), "--map",
                     '{"kind": "quadrant_snap"}', "-o", str(y)]) == 0
    assert cli_main(["estimate", "--input", str(y), "--top", "0.01", "--target",
                     target, "--seed", "8", "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    atoms = data["spectral_hat"]["atoms"]
    gaps = [abs(a["angle"] - c) for a, c in zip(atoms, centres)]
    assert len(atoms) == 4 and 0.0 < max(gaps) < 1e-15
    tv = 0.5 * sum(abs(a["weight"] - w) for a, w in zip(atoms, masses))
    assert data["distances"]["tv"] == pytest.approx(tv, abs=1e-15)
    assert data["distances"]["ks"] <= data["distances"]["tv"]


def test_cli_verify_exit_codes(tmp_path):
    rep = tmp_path / "r.json"
    assert cli_main(["verify", "--scenario", "example2", "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert set(data) == {"scenario", "config", "checks", "runtime_s"}
    # tolerances sit once, in the checks; the config ends with n and seed
    assert "tolerances" not in data["config"]
    assert list(data["config"])[-2:] == ["n", "seed"]
    for c in data["checks"]:
        assert set(c) == {"name", "value", "tolerance", "pass"}
    # deterministic failure: tiny budget makes the KS check miss
    assert cli_main(["verify", "--scenario", "theorem3", "--n", "1000",
                     "--seed", "0", "-o", str(rep)]) == 1
    # usage errors exit 2
    assert cli_main(["verify", "--scenario", "not_a_scenario"]) == 2
    assert cli_main(["sample", "--model", "{broken", "-n", "5",
                     "-o", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_fewer_than_one_worker(workers, capsys):
    """Fewer than one worker, or a sample size below 1, is a usage error of
    every scenario (exit 2, no traceback)."""
    for name in SCENARIO_NAMES:
        for flag in ("--workers", "--n"):
            assert cli_main(["verify", "--scenario", name, flag, workers]) == 2
            err = capsys.readouterr().err
            assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("n", [0, -1])
def test_scenario_refuses_fewer_than_one_point(n):
    with pytest.raises(InvalidParameter, match="n must be"):
        Scenario("example2", n=n)


def test_cli_sample_rejects_overflowing_draws(tmp_path, capsys):
    out = tmp_path / "x.csv"
    model = dict(UNIFORM_PARETO, alpha=0.01,
                 radial={"kind": "pareto", "alpha": 0.01})
    assert cli_main(["sample", "--model", json.dumps(model), "-n", "20000",
                     "--seed", "1", "-o", str(out)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("top", ["inf", "1e400", "nan", "abc"])
def test_cli_estimate_rejects_non_finite_top(tmp_path, capsys, top):
    src, out = tmp_path / "s.csv", tmp_path / "e.json"
    src.write_text("x1,x2\n1.0,2.0\n3.0,0.5\n")
    assert cli_main(["estimate", "--input", str(src), "--top", top,
                     "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--top" in err and "Traceback" not in err
    assert not out.exists()


SCAN_ARGS = ["scan", "--model", json.dumps(UNIFORM_PARETO), "--alpha", "1",
             "--r-grid", "1:2:2"]


@pytest.mark.parametrize("argv, flag, raw", [
    (["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "5"], "--seed", "-1"),
    (["sample", "--model", json.dumps(UNIFORM_PARETO), "--seed", "1"], "-n", "-1"),
    (["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "5"], "--seed", "1.5"),
    (["transform", "--input", "in.csv", "--gain", '{"kind": "exp_cosine"}'],
     "--gain-seed", "-1"),
    (["estimate", "--input", "in.csv", "--top", "1"], "--seed", "-1"),
    (["verify", "--scenario", "example2"], "--seed", "-1"),
    (["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "5"], "--workers", "0"),
    (SCAN_ARGS, "--seed", "-1"),
    (SCAN_ARGS, "--n", "-1"),
    (SCAN_ARGS, "--workers", "0"),
    (["sample", "--model", json.dumps(UNIFORM_PARETO), "--seed", "1"], "-n", "1.5"),
    (["estimate", "--input", "in.csv"], "--top", "abc"),
    (SCAN_ARGS, "--alpha", "x"),
], ids=["sample-seed", "sample-n", "sample-seed-not-integer", "gain-seed",
        "estimate-seed", "verify-seed", "sample-workers", "scan-seed", "scan-n",
        "scan-workers", "sample-n-not-integer", "top-not-a-number",
        "alpha-not-a-number"])
def test_cli_names_the_flag_of_a_bad_integer(tmp_path, capsys, argv, flag, raw):
    out = tmp_path / "out"
    assert cli_main([*argv, flag, raw, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err
    # the message names the form the flag expects, not its type function
    assert not any(word in err for word in
                   ("count_or_fraction", "positive_float", "integer value"))
    assert not out.exists()


@pytest.mark.parametrize("flag, raw, message", [
    ("--arc", "1:2:3", "must have 2 fields, got '1:2:3'; expected a:b"),
    ("--arc", "x:1", "must be a number, got 'x'; expected a:b"),
    ("--r-grid", "1:2", "must have 3 fields, got '1:2'; expected start:stop:points"),
], ids=["arc-three-fields", "arc-not-a-number", "r-grid-two-fields"])
def test_cli_scan_names_the_form_of_a_bad_field_flag(tmp_path, capsys, flag, raw,
                                                     message):
    # the fields are counted and converted by the builder, so no message of
    # Python's unpacking or float() reaches the user
    out = tmp_path / "scan.csv"
    assert cli_main([*SCAN_ARGS, flag, raw, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert refused_spec(err, "scan", flag) == message
    assert "unpack" not in err and "could not convert" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, raw", [
    ("--r-grid", "1:inf:3"), ("--r-grid", "nan:10:3"), ("--r-grid", "1:1e400:3"),
    ("--alpha", "nan"), ("--alpha", "inf"), ("--alpha", "0"),
])
def test_cli_scan_rejects_non_finite_numbers(tmp_path, capsys, flag, raw):
    out = tmp_path / "scan.csv"
    # the last occurrence of a flag wins, so flag raw replaces the valid value
    assert cli_main(["scan", "--model", json.dumps(UNIFORM_PARETO),
                     "--alpha", "1.0", "--r-grid", "1:100:3", flag, raw,
                     "-o", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gain, field", [
    ('{"kind":"constant","value":Infinity}', "value"),
    ('{"kind":"power_cusp","center":Infinity,"gamma":0.2}', "center"),
    ('{"kind":"power_cusp","center":3.0,"gamma":NaN}', "gamma"),
])
def test_cli_scan_rejects_non_finite_gain_field(tmp_path, capsys, gain, field):
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["scan", "--model", json.dumps(UNIFORM_PARETO),
                         "--gain", gain, "--alpha", "1.0", "--r-grid", "2:10:3",
                         "-o", str(out)]) == 2
    assert f"spec field '{field}' must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_scan_cusp_gain_tail_matches_closed_form(tmp_path):
    # r P{R h > r} for uniform sigma, Pareto(1) norms and h = |t - pi|^-0.2
    # is (pi^0.8 / 0.8 - r^-4 / 0.8 + r^-4) / pi; its integrand has a kink
    # where h = r
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--model", json.dumps(UNIFORM_PARETO), "--gain",
                     '{"kind":"power_cusp","center":3.141592653589793,"gamma":0.2}',
                     "--alpha", "1.0", "--r-grid", "10:100:2", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(r), mode) for r, _, _, mode in rows] == [(10.0, "exact"),
                                                            (100.0, "exact")]
    for (r, _, value, _), closed in zip(rows, [0.99420641795777, 0.99421437490915]):
        assert float(value) == pytest.approx(closed, rel=1e-12)


# each echoed spec's builder is its CLI flag's: an echoed gain, random or
# not, is what `transform --gain` builds
SPEC_BUILDERS = {"model": model_from_spec, "map": map_from_spec,
                 "gain": any_gain_from_spec, "target": measure_from_spec}


@functools.cache
def _echoed_specs(name):
    config = run_scenario(Scenario(name, n=2000)).config
    return [(key, config[key]) for key in SPEC_BUILDERS if key in config]


def _number_paths(spec, path=()):
    """Key paths of the numbers (not booleans) in a JSON-like spec."""
    if isinstance(spec, dict):
        items = spec.items()
    elif isinstance(spec, list):
        items = enumerate(spec)
    else:
        number = isinstance(spec, (int, float)) and not isinstance(spec, bool)
        return [path] if number else []
    return [p for key, value in items for p in _number_paths(value, path + (key,))]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@given(data=st.data())
def test_non_finite_spec_number_raises_regvar_error(name, data):
    # any one number of an echoed spec made NaN or infinite fails at the
    # spec boundary, with no RuntimeWarning on the way
    key, spec = data.draw(st.sampled_from(
        [(key, spec) for key, spec in _echoed_specs(name) if _number_paths(spec)]))
    *parents, leaf = data.draw(st.sampled_from(_number_paths(spec)))
    bad = copy.deepcopy(spec)
    holder = functools.reduce(lambda node, k: node[k], parents, bad)
    holder[leaf] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RegvarError):
            SPEC_BUILDERS[key](bad)


# the field names and kinds of the spec builders, as keys and values of
# arbitrary JSON, with NaN and infinity among the floats
SPEC_FIELDS = ["dim", "atoms", "angle", "weight", "coords", "density", "name",
               "amplitude", "alpha", "tail_coefficient", "sign", "sigma",
               "radial", "nu", "beta", "value", "breakpoints", "values",
               "target", "base", "arcs", "center", "gamma"]
SPEC_KINDS = list(dict.fromkeys(kind for kinds in specs._KINDS.values()
                                for kind in kinds))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(SPEC_KINDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.fixed_dictionaries({"kind": st.sampled_from(SPEC_KINDS)},
                            optional=dict.fromkeys(SPEC_FIELDS, inner))
    | st.dictionaries(st.sampled_from(["kind", *SPEC_FIELDS]) | st.text(max_size=3),
                      inner, max_size=5),
    max_leaves=24)


@settings(max_examples=200)
@given(spec=json_values)
@example(spec={"kind": "discrete", "atoms": [5]})
@example(spec={"kind": "discrete", "atoms": [{"angle": 0.0, "weight": 1e308},
                                             {"angle": 1.0, "weight": 1e308}]})
@example(spec={"kind": "discrete", "atoms": [{"angle": 10 ** 400, "weight": 1}]})
@example(spec={"kind": "example2", "alpha": 1.0, "nu": 1e300, "beta": 2.0})
@example(spec={"kind": "step", "breakpoints": [1.0], "values": [1.0]})
@example(spec={"kind": "density", "density": {"name": "cosine_bump", "amplitude": 3}})
def test_spec_builders_return_or_raise_a_regvar_error(spec):
    # RuntimeWarnings are errors here, as in the whole suite
    for build in (measure_from_spec, radial_from_spec, model_from_spec,
                  map_from_spec, gain_from_spec, random_gain_from_spec,
                  any_gain_from_spec):
        try:
            build(spec)
        except RegvarError:
            pass


def test_constant_gain_refuses_a_negative_value_when_built():
    with pytest.raises(InvalidGain, match="nonnegative"):
        gain_from_spec({"kind": "constant", "value": -1.0})
    assert gain_from_spec({"kind": "constant", "value": 0.0}).declared_bound == 0.0


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "{src}", "--top", "1", "--target",
     '{"kind": "discrete", "atoms": [5]}'],
    ["transform", "--input", "{src}", "--map", "{latin1}"],
    ["scan", "--model", json.dumps(UNIFORM_PARETO), "--alpha", "1",
     "--r-grid", "1:2:2", "--arc", "2:1"],
    ["transform", "--input", "{src}", "--map",
     '{"kind": "step", "breakpoints": [1.0], "values": [1.0]}'],
    ["sample", "-n", "5", "--model", json.dumps(dict(UNIFORM_PARETO, radial={
        "kind": "atom_plus_pareto", "alpha": 1.0, "tail_coefficient": 2.0}))],
    ["estimate", "--input", "{src}", "--top", "1", "--target",
     '{"kind": "discrete", "atoms": [{"angle": 0.0, "weight": -1.0}]}'],
    ["estimate", "--input", "{src}", "--top", "1", "--target",
     '{"kind": "density", "density": {"name": "cosine_bump", "amplitude": 3}}'],
    ["scan", "--model", '{"kind": "example3", "alpha": 1.0}', "--gain",
     '{"kind": "indicator_arc", "arcs": [[0.0, 2.0]]}', "--alpha", "1",
     "--r-grid", "10:10:1", "--n", "5"],
], ids=["atom-not-an-object", "spec-not-utf8", "empty-arc", "step-map-breaks",
        "atom-plus-pareto-coefficient", "negative-weight", "cosine-bump-amplitude",
        "scan-point-floor"])
def test_cli_refuses_bad_input_with_one_error_line(tmp_path, capsys, argv):
    src, latin1, out = tmp_path / "s.csv", tmp_path / "map.json", tmp_path / "out"
    src.write_text("x1,x2\n1.0,2.0\n3.0,0.5\n2.0,2.0\n")
    latin1.write_bytes('{"kind": "identity", "note": "\xe9"}'.encode("latin-1"))
    argv = [a.replace("{src}", str(src)).replace("{latin1}", str(latin1))
            for a in argv]
    assert cli_main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not out.exists()


def test_cli_scan_point_floor_names_n_and_the_points_kept(capsys, tmp_path):
    model = {"kind": "example3", "alpha": 1.0}
    gain = {"kind": "indicator_arc", "arcs": [[0.1, 2.0]]}
    kept = TransformedModel(model_from_spec(model), gain_from_spec(gain)).sample(2000, 1)
    assert 0 < kept.size < 1000
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--model", json.dumps(model), "--gain", json.dumps(gain),
                     "--alpha", "1", "--r-grid", "10:10:1", "--n", "2000",
                     "--seed", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --n 2000 kept {kept.size} points: empirical scans need at "
        "least 10^3 points\n")
    assert not out.exists()


def test_cli_judges_top_before_reading_the_input(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert cli_main(["estimate", "--input", str(missing), "--top", "abc",
                     "-o", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert "argument --top: " in err and str(missing) not in err


SIX_GAINS = "constant, cosine, step, example2_gain, indicator_arc, power_cusp"


@pytest.mark.parametrize("argv, flag, message", [
    (["transform", "--input", "{missing}", "--gain", '{"kind": "cosin"}'], "--gain",
     f"unknown gain kind 'cosin'; expected one of {SIX_GAINS}, exp_cosine"),
    (["estimate", "--input", "{missing}", "--top", "1", "--target",
      '{"kind": "discret"}'], "--target",
     "unknown measure kind 'discret'; expected one of discrete, empirical, density"),
    (["transform", "--input", "{missing}", "--map", '"quadrant_snap"'], "--map",
     "map spec must be an object"),
    (["scan", "--model", json.dumps(UNIFORM_PARETO), "--gain", '{"kind": "cosin"}',
      "--alpha", "1", "--r-grid", "1:2:2"], "--gain",
     f"unknown gain kind 'cosin'; expected one of {SIX_GAINS}"),
    (["sample", "--model", "[1]", "-n", "3"], "--model", "model spec must be an object"),
], ids=["transform-gain", "estimate-target", "map-not-an-object", "scan-gain",
        "model-not-an-object"])
def test_cli_judges_a_spec_before_reading_the_input(tmp_path, capsys, argv, flag,
                                                    message):
    # the input does not exist: the spec's own fault is the one named
    missing, out = tmp_path / "missing.csv", tmp_path / "out"
    argv = [a.replace("{missing}", str(missing)) for a in argv]
    assert cli_main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert refused_spec(err, argv[0], flag) == message
    assert str(missing) not in err and not out.exists()


def test_transform_gain_applies_a_random_gain_and_scan_gain_refuses_one(tmp_path,
                                                                        capsys):
    src, out = tmp_path / "s.csv", tmp_path / "out"
    src.write_text("x1,x2\n1.0,2.0\n-1.0,0.5\n")
    gain = '{"kind": "exp_cosine", "amplitude": 0.5}'
    assert cli_main(["transform", "--input", str(src), "--gain", gain,
                     "-o", str(out)]) == 0
    assert cli_main(["scan", "--model", json.dumps(UNIFORM_PARETO), "--gain", gain,
                     "--alpha", "1", "--r-grid", "1:2:2", "-o", str(out)]) == 2
    assert refused_spec(capsys.readouterr().err, "scan", "--gain") == \
        f"unknown gain kind 'exp_cosine'; expected one of {SIX_GAINS}"


def test_load_spec_reads_any_json_inline_and_names_a_missing_file(tmp_path):
    assert load_spec(" [1, 2] ") == [1, 2]
    assert load_spec('"kind"') == "kind"
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "identity"}')
    assert load_spec(str(path)) == {"kind": "identity"}
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SpecError) as info:
        load_spec(missing)
    assert str(info.value).startswith(
        f"cannot load spec from {missing!r}: [Errno 2] No such file or "
        f"directory: {missing!r}; nor is it inline JSON: ")
    with pytest.raises(SpecError, match="; nor is it inline JSON: Expecting ',' "):
        load_spec('{"kind": 1')


def test_cli_refuses_an_inline_integer_too_long_to_convert(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer beyond Python's int-string limit: a refusal, with exit 2
    spec = '{"kind": "example3", "alpha": 1' + "0" * 5000 + "}"
    out = tmp_path / "o.csv"
    assert cli_main(["sample", "--model", spec, "-n", "3", "-o", str(out)]) == 2
    message = refused_spec(capsys.readouterr().err, "sample", "--model")
    assert message.startswith("cannot load spec from ")
    assert "; nor is it inline JSON: Exceeds the limit (" in message
    assert not out.exists()


def test_cli_lets_a_bug_propagate(monkeypatch):
    # only a RegvarError or an OSError is a refusal: any other exception is
    # a bug, and leaves cli_main with its traceback rather than as exit 2
    def broken(spec):
        raise KeyError("internal")

    monkeypatch.setattr(regvar.cli, "model_from_spec", broken)
    with pytest.raises(KeyError, match="internal"):
        cli_main(["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "5",
                  "-o", "unused.csv"])


@pytest.mark.parametrize("builder, argv", [
    ("model_from_spec", ["sample", "--model", "{}", "-n", "3"]),
    ("map_from_spec", ["transform", "--input", "x.csv", "--map", "{}"]),
    ("any_gain_from_spec", ["transform", "--input", "x.csv", "--gain", "{}"]),
    ("measure_from_spec", ["estimate", "--input", "x.csv", "--top", "1",
                           "--target", "{}"]),
    ("gain_from_spec", ["scan", "--model", '{"kind": "example3", "alpha": 1.0}',
                        "--alpha", "1", "--r-grid", "1:2:3", "--gain", "{}"]),
    ("check_r_grid", ["scan", "--model", '{"kind": "example3", "alpha": 1.0}',
                      "--alpha", "1", "--r-grid", "1:2:3"]),
    ("ArcSet", ["scan", "--model", '{"kind": "example3", "alpha": 1.0}',
                "--alpha", "1", "--r-grid", "1:2:3", "--arc", "0:1"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_spec_builder_bug_keeps_its_traceback(monkeypatch, builder, argv, exc):
    # argparse would turn a TypeError or ValueError of a flag's type into a
    # usage error; the flags' action lets it through, as any bug is let through
    def broken(value):
        raise exc("internal")

    monkeypatch.setattr(regvar.cli, builder, broken)
    with pytest.raises(exc, match="internal"):
        cli_main([*argv, "-o", "unused.csv"])


def test_cli_estimate_rejects_nan_row(tmp_path, capsys):
    src = tmp_path / "nan.csv"
    src.write_text("x1,x2\n1.0,2.0\nnan,1.5\n3.0,0.5\n4.0,1.0\n")
    rep = tmp_path / "rep.json"
    assert cli_main(["estimate", "--input", str(src), "--top", "1",
                     "-o", str(rep)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not rep.exists()


def test_cli_estimate_rejects_nan_target_atom(tmp_path, capsys):
    src, rep = tmp_path / "s.csv", tmp_path / "rep.json"
    cli_main(["sample", "--model", json.dumps(UNIFORM_PARETO), "-n", "2000",
              "--seed", "3", "-o", str(src)])
    assert cli_main(["estimate", "--input", str(src), "--top", "200", "--target",
                     '{"kind":"discrete","dim":2,"atoms":[{"angle":NaN,"weight":1.0}]}',
                     "-o", str(rep)]) == 2
    assert "spec field 'atoms[0].angle' must be a finite number" \
        in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("header, atoms", [
    ("x1,x2", [{"angle": 1.0, "weight": 0.5},
               {"angle": 1.0 + 1e-13, "weight": 0.5}]),
    ("x1,x2,x3", [{"coords": [1, 0, 0], "weight": 0.5},
                  {"coords": [1, 0, 0], "weight": 0.5}]),
], ids=["d2", "d3"])
def test_cli_estimate_rejects_duplicate_target_atoms(tmp_path, capsys, header,
                                                     atoms):
    # the JSON spec has no way to ask for merging: the message names the
    # field to fix, not the library's merge keyword
    dim = header.count(",") + 1
    src, rep = tmp_path / "x.csv", tmp_path / "rep.json"
    src.write_text(header + "\n" + "\n".join(
        ",".join(["1.0"] * dim) for _ in range(3)) + "\n")
    target = {"kind": "discrete", "dim": dim, "atoms": atoms}
    assert cli_main(["estimate", "--input", str(src), "--top", "2",
                     "--target", json.dumps(target), "-o", str(rep)]) == 2
    message = refused_spec(capsys.readouterr().err, "estimate", "--target")
    assert message.startswith("spec field 'atoms' lists directions within")
    assert "merge" not in message
    assert not rep.exists()


def test_cli_estimate_rejects_non_finite_report(tmp_path, capsys, monkeypatch):
    # no estimate on valid input holds an infinite number any more, so an
    # interval end is forced to infinity to reach the report check
    monkeypatch.setattr("regvar.estimation.bootstrap_alpha_ci",
                        lambda norms, k, seed: (1.0, float("inf")))
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n" + "".join(f"{1.0 + i},0.0\n" for i in range(10)))
    rep = tmp_path / "rep.json"
    assert cli_main(["estimate", "--input", str(src), "--top", "1",
                     "-o", str(rep)]) == 2
    assert capsys.readouterr().err == (
        "error: report holds a NaN or infinite value at alpha_ci[1] "
        "(Out of range float values are not JSON compliant: inf)\n")
    assert not rep.exists()


@pytest.mark.parametrize("top", ["1", "2", "1e-9"])
def test_cli_estimate_names_non_finite_report_field(tmp_path, capsys, top):
    # at k = 1 or 2 on 1000 Pareto points some bootstrap resamples have tied
    # top norms and no finite statistic; they are left out of the interval,
    # so the report is written with finite ends
    src = tmp_path / "x.csv"
    assert cli_main(["sample", "--model", json.dumps(UNIFORM_PARETO),
                     "-n", "1000", "--seed", "42", "-o", str(src)]) == 0
    capsys.readouterr()
    rep = tmp_path / "rep.json"
    assert cli_main(["estimate", "--input", str(src), "--top", top,
                     "-o", str(rep)]) == 0
    assert capsys.readouterr().err == ""
    lo, hi = json.loads(rep.read_text())["alpha_ci"]
    assert 0.0 < lo <= hi and np.isfinite(hi)


@pytest.mark.parametrize("flag", ["--gain", "--map"])
@pytest.mark.parametrize("breakpoints, values, message", [
    # angles in [0, 1) would fall before the first breakpoint
    ([1.0, 2.0], [1.0, 2.0], "breaks must start at 0"),
    ([0.0, 2.0], [1.0], "breaks and values must be"),
    ([], [], "breaks and values must be"),
    ([0.0, float("nan")], [1.0, 2.0],
     "spec field 'breakpoints[1]' must be a finite number, got nan"),
], ids=["not-from-zero", "fewer-values", "empty", "nan-break"])
def test_cli_transform_rejects_bad_step_spec(tmp_path, capsys, flag,
                                             breakpoints, values, message):
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n1.0,0.5\n-2.0,1.0\n")
    out = tmp_path / "y.csv"
    spec = {"kind": "step", "breakpoints": breakpoints, "values": values}
    assert cli_main(["transform", "--input", str(src), flag, json.dumps(spec),
                     "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


UNIFORM = {"kind": "density", "dim": 2, "density": {"name": "uniform"}}


@pytest.mark.parametrize("flag, spec, field", [
    ("--model", {"kind": "polar_independent", "alpha": 1.0, "sigma": UNIFORM,
                 "radial": {"kind": "atom_plus_pareto", "alpha": 1.0,
                            "tail_coef": 0.5}}, "tail_coefficient"),
    ("--map", {"kind": "step", "breakpoints": [0.0]}, "values"),
    ("--gain", {"kind": "cosine", "base": 1.0}, "amplitude"),
], ids=["model", "map", "gain"])
def test_cli_names_missing_spec_field(tmp_path, capsys, flag, spec, field):
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n1.0,0.5\n-2.0,1.0\n")
    out = tmp_path / "y.csv"
    if flag == "--model":
        args = ["sample", "--model", json.dumps(spec), "-n", "10"]
    else:
        args = ["transform", "--input", str(src), flag, json.dumps(spec)]
    assert cli_main(args + ["-o", str(out)]) == 2
    assert refused_spec(capsys.readouterr().err, args[0], flag) == \
        f"spec is missing field {field!r}"
    assert not out.exists()


@pytest.mark.parametrize("args, field, value", [
    (["sample", "--model", '{"kind": "example3", "alpha": "abc"}', "-n", "10"],
     "alpha", "'abc'"),
    (["sample", "--model", '{"kind": "example3", "alpha": [1.0]}', "-n", "10"],
     "alpha", "[1.0]"),
    (["sample", "--model", '{"kind": "example3", "alpha": true}', "-n", "10"],
     "alpha", "True"),
    (["sample", "--model", '{"kind": "example3", "alpha": "2"}', "-n", "10"],
     "alpha", "'2'"),
    (["estimate", "--top", "2", "--target",
      '{"kind": "discrete", "dim": 2, "atoms": [{"angle": "x", "weight": 1}]}'],
     "atoms[0].angle", "'x'"),
], ids=["string", "list", "bool", "numeric-string", "atom-angle"])
def test_cli_names_spec_field_of_wrong_type(tmp_path, capsys, args, field,
                                            value):
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n1.0,0.5\n-2.0,1.0\n3.0,1.0\n")
    out = tmp_path / "out"
    if args[0] == "estimate":
        args = args + ["--input", str(src)]
    assert cli_main(args + ["-o", str(out)]) == 2
    flag = next(a for a in args if a in ("--model", "--target"))
    assert refused_spec(capsys.readouterr().err, args[0], flag) == (
        f"spec field {field!r} must be a number, got {value}")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["transform", "--gain",
      '{"kind": "step", "breakpoints": [0.0, "a"], "values": [1, 2]}'],
     "spec field 'breakpoints[1]' must be a number, got 'a'"),
    (["transform", "--map",
      '{"kind": "step", "breakpoints": [0.0, 1.0], "values": [1, null]}'],
     "spec field 'values[1]' must be a number, got None"),
    (["transform", "--gain", '{"kind": "step", "breakpoints": 0.0, "values": 1}'],
     "spec field 'breakpoints' must be a list of numbers, got 0.0"),
    (["transform", "--gain", '{"kind": "indicator_arc", "arcs": [[0.0, "b"]]}'],
     "spec field 'arcs[0][1]' must be a number, got 'b'"),
    (["transform", "--gain", '{"kind": "indicator_arc", "arcs": [[0.0, 1.0, 2.0]]}'],
     "spec field 'arcs' must be a list of [start, stop] pairs"),
    (["estimate", "--top", "2", "--target",
      '{"kind": "discrete", "dim": "x", "atoms": [{"angle": 0.0, "weight": 1}]}'],
     "spec field 'dim' must be an integer, got 'x'"),
    (["estimate", "--top", "2", "--target",
      '{"kind": "discrete", "dim": 3, "atoms": [{"coords": [1, "c", 0], "weight": 1}]}'],
     "spec field 'atoms[0].coords[1]' must be a number, got 'c'"),
    (["estimate", "--top", "2", "--target",
      '{"kind": "discrete", "dim": 3, "atoms": [{"coords": [1, 0], "weight": 1}]}'],
     "atom coordinates must have dim = 3 entries"),
], ids=["step-breakpoint", "step-value", "step-not-list", "arc-end",
        "arc-triple", "dim", "coords", "coords-length"])
def test_cli_names_list_and_dim_spec_fields(tmp_path, capsys, args, message):
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n1.0,0.5\n-2.0,1.0\n3.0,1.0\n")
    out = tmp_path / "out"
    assert cli_main(args + ["--input", str(src), "-o", str(out)]) == 2
    assert refused_spec(capsys.readouterr().err, args[0], args[-2]) == message
    assert not out.exists()


@pytest.mark.parametrize("spec, field", [
    ({"kind": "step", "breakpoints": [0.0], "values": [float("nan")]}, "values[0]"),
    ({"kind": "constant", "value": float("inf")}, "value"),
], ids=["step", "constant"])
def test_cli_transform_rejects_non_finite_map_value(tmp_path, capsys, spec, field):
    # a non-finite target angle would give NaN directions for every point;
    # the spec layer refuses it and names the field
    src = tmp_path / "x.csv"
    src.write_text("x1,x2\n1.0,0.5\n-2.0,1.0\n")
    out = tmp_path / "y.csv"
    assert cli_main(["transform", "--input", str(src), "--map",
                     json.dumps(spec), "-o", str(out)]) == 2
    assert f"spec field '{field}' must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data, where", [
    ({"a": 1.0, "b": [2.0, {"c": float("nan")}], "d": float("inf")}, "b[1].c"),
    ({"checks": [{"value": 1}, {"value": -float("inf")}]}, "checks[1].value"),
])
def test_report_json_names_first_non_finite_path(data, where):
    with pytest.raises(RegvarError, match=rf"value at {re.escape(where)} \("):
        report_json(data)


def test_scenario_report_rejects_non_finite_value():
    report = Report("theorem1", {}, [Check("hill_alpha", float("nan"))])
    with pytest.raises(RegvarError, match="NaN or infinite"):
        report.to_json()


@pytest.mark.parametrize(
    "name", ["theorem1", "corollary1", "theorem2", "theorem3", "corollary2"])
def test_verify_tiny_n_runs_without_warnings(tmp_path, name):
    rep = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["verify", "--scenario", name, "--n", "10",
                         "-o", str(rep)])
    assert code in (0, 1)
    assert json.loads(rep.read_text())["scenario"] == name


def test_cli_runs_as_module(tmp_path):
    env = dict(os.environ)
    src_dir = str(Path(regvar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "regvar.cli", "sample", "--model",
         '{"kind": "example3", "alpha": 1.0}', "-n", "1000", "--seed", "1",
         "-o", "x.csv"], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "x.csv").read_text().splitlines()) == 1001


def test_cli_scan_exact_and_empirical(tmp_path):
    out = tmp_path / "scan.csv"
    model = {"kind": "example2", "alpha": 1.0, "nu": 0.5, "beta": 1.2}
    gain = {"kind": "example2_gain", "beta": 1.2}
    assert cli_main(["scan", "--model", json.dumps(model), "--gain",
                     json.dumps(gain), "--alpha", "1.0",
                     "--r-grid", "100:10000:3", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,arc_id,value,mode"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(row[3] == "exact" for row in rows)
    vals = [float(row[2]) for row in rows]
    assert vals[0] < vals[1] < vals[2]

    out2 = tmp_path / "scan2.csv"
    assert cli_main(["scan", "--model", json.dumps({"kind": "example3",
                                                    "alpha": 1.0}),
                     "--gain", json.dumps({"kind": "constant", "value": 2.0}),
                     "--alpha", "1.0", "--r-grid", "2:20:4",
                     "--arc", "0:3.14", "--n", "20000", "-o", str(out2)]) == 0
    assert "empirical" in out2.read_text()


def test_cli_scan_example1_near_its_accumulation_point(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--model", json.dumps({"kind": "example1",
                                                    "alpha": 1.0}),
                     "--alpha", "1", "--r-grid", "10:100:3",
                     "--arc", "4e-7:0.1", "-o", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 3 and all(row[3] == "exact" for row in rows)


# ----------------------------------------------------------------------
# scenario names and determinism


def test_unknown_scenario_name():
    with pytest.raises(ValueError):
        Scenario("theorem9")


def _report_fingerprint(path):
    data = json.loads(path.read_text())
    data.pop("runtime_s")
    return json.dumps(data, sort_keys=True).encode()


@pytest.mark.parametrize("name", ["theorem1", "example2"])
def test_verify_reports_deterministic(tmp_path, name):
    paths = [tmp_path / f"{name}_{i}.json" for i in range(3)]
    cli_main(["verify", "--scenario", name, "--n", "20000", "-o", str(paths[0])])
    cli_main(["verify", "--scenario", name, "--n", "20000", "-o", str(paths[1])])
    cli_main(["verify", "--scenario", name, "--n", "20000", "--workers", "4",
              "-o", str(paths[2])])
    prints = {_report_fingerprint(p) for p in paths}
    assert len(prints) == 1


# ----------------------------------------------------------------------
# pipeline equivalence: files reproduce in-memory scenario numbers exactly


def test_pipeline_equivalence_theorem1(tmp_path):
    n, seed = 50_000, 42
    report = run_scenario(Scenario("theorem1", n=n, seed=seed))
    tv_mem = next(c for c in report.checks if c.name == "spectral_tv").value
    alpha_mem = next(c for c in report.checks if c.name == "hill_alpha").value

    sampled = tmp_path / "s.csv"
    moved = tmp_path / "t.csv"
    rep = tmp_path / "e.json"
    target = tmp_path / "target.json"
    from regvar.measures import pushforward, quadrant_snap_map

    analytic = pushforward(SpectralMeasure.uniform(),
                           quadrant_snap_map()).normalized()
    target.write_text(json.dumps(measure_to_spec(analytic)))
    assert cli_main(["sample", "--model", json.dumps(UNIFORM_PARETO),
                     "-n", str(n), "--seed", str(seed), "-o", str(sampled)]) == 0
    assert cli_main(["transform", "--input", str(sampled), "--map",
                     json.dumps({"kind": "quadrant_snap"}), "-o", str(moved)]) == 0
    assert cli_main(["estimate", "--input", str(moved), "--top", "500",
                     "--target", str(target), "-o", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["distances"]["tv"] == tv_mem
    assert data["alpha_hat"] == alpha_mem


def test_pipeline_equivalence_theorem2(tmp_path):
    n, seed = 50_000, 42
    report = run_scenario(Scenario("theorem2", n=n, seed=seed))
    ks_mem = next(c for c in report.checks if c.name == "exceedance_ks").value
    alpha_mem = next(c for c in report.checks if c.name == "hill_alpha").value

    sampled = tmp_path / "s.csv"
    scaled = tmp_path / "t.csv"
    rep = tmp_path / "e.json"
    model2 = dict(UNIFORM_PARETO, alpha=2.0,
                  radial={"kind": "pareto", "alpha": 2.0})
    assert cli_main(["sample", "--model", json.dumps(model2), "-n", str(n),
                     "--seed", str(seed), "-o", str(sampled)]) == 0
    assert cli_main(["transform", "--input", str(sampled), "--gain",
                     json.dumps({"kind": "cosine", "base": 1.0,
                                 "amplitude": 0.5}), "-o", str(scaled)]) == 0
    # the scenario's Kolmogorov distance is against the analytic density,
    # which is not file-serializable; recompute the estimate on the file
    # pipeline's batch and compare against the in-memory numbers
    from regvar.measures import reweight

    gain = gain_from_spec({"kind": "cosine", "base": 1.0, "amplitude": 0.5})
    target = reweight(SpectralMeasure.uniform(), gain, 2.0).normalized()
    est = estimate(read_batch(str(scaled)), 500, target=target)
    assert est.distances["ks"] == ks_mem
    assert est.alpha_hat == alpha_mem
