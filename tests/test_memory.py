"""Traced peak memory of the sampling stages and of the CLI file pipeline.

The samplers hold one copy of their output and only chunk-sized
temporaries: they copy each chunk into an output allocated once. The CLI
steps hold no whole batch at all: `sample` writes each chunk as it is drawn,
and `transform` and `estimate` parse their input once, then take it block
by block, so beyond the parsed rows (and the norms, for `estimate`) each
holds a few blocks, the same number at both sizes tested.
"""

import contextlib
import io
import json
import tracemalloc

import pytest

from regvar.cli import cli_main, read_csv, write_csv
from regvar.measures import SpectralMeasure
from regvar.models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    PolarIndependentModel,
)
from regvar.radial import OscillatingTailLaw, ParetoLaw
from regvar.rng import CHUNK
from regvar.sphere import ArcSet
from regvar.transforms import TransformedModel

N = 1 << 20
# points, norms and dirs of one d = 2 chunk, or of one block of CSV rows
CHUNK_BATCH = CHUNK * (2 + 1 + 2) * 8
# g17.format_rows' working arrays for 16 384 rows at d = 2 (7.3 MB) fit in
# this many chunk batches
FORMAT_BATCHES = 3
UNIFORM_PARETO = {
    "kind": "polar_independent", "alpha": 1.0,
    "sigma": {"kind": "density", "dim": 2, "density": {"name": "uniform"}},
    "radial": {"kind": "pareto", "alpha": 1.0},
}


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def nbytes(batch):
    return batch.points.nbytes + batch.norms.nbytes + batch.dirs.nbytes


def uniform_pareto():
    return PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0))


def oscillating_polar():
    return PolarIndependentModel(SpectralMeasure.uniform(), 1.0,
                                 OscillatingTailLaw(1.0, 0.5, +1))


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_peak_is_output_plus_chunks_in_flight(workers):
    # the oscillating law's Newton solver works on small blocks, so its
    # samplers meet the uniform/Pareto bound too
    for model in (uniform_pareto(), Example1Model(1.0, 0.5), oscillating_polar()):
        batch, peak = traced_peak(model.sample, N, 3, workers)
        assert batch.size == N
        assert peak <= nbytes(batch) + 2 * workers * CHUNK_BATCH, model


def test_read_csv_peak_is_output_plus_two_chunks(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, 2, uniform_pareto().chunks(N, 3))
    parsed, peak = traced_peak(read_csv, path)
    assert parsed.size == N
    assert peak <= parsed.rows.nbytes + 2 * CHUNK_BATCH


@pytest.mark.parametrize("workers", [1, 2])
def test_gained_sample_never_holds_the_unscaled_sample(workers):
    # the example2 gain removes about 2% of the points
    model = TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2))
    batch, peak = traced_peak(model.sample, N, 3, workers)
    assert batch.zero_count > 0
    assert peak <= 1.5 * nbytes(batch)


def test_example2_gained_tail_peak_does_not_grow_with_r():
    # atoms 55 to r^(1/beta), about 1e10 of them at r = 1e12, sum as two
    # Hurwitz series rather than as an array
    r = 1e12
    tail, peak = traced_peak(Example2Model(1.0, 0.5, 1.2).gained_tail, r,
                             ArcSet.full_circle(), Example2Gain(1.2))
    assert peak < 1 << 20
    assert r * tail >= r / (r ** (1 / 1.2) + 1.0)


SIZES = [1 << 18, 1 << 20]


@pytest.fixture(scope="module")
def sample_csvs(tmp_path_factory):
    """A uniform/Pareto CSV of each size in SIZES, written once."""
    paths = {}
    for n in SIZES:
        paths[n] = tmp_path_factory.mktemp("csv") / "x.csv"
        write_csv(paths[n], 2, uniform_pareto().chunks(n, 3))
    return paths


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("workers", [1, 2])
def test_cli_sample_peak_is_chunks_in_flight(tmp_path, n, workers):
    # `workers` chunks in flight and one formatted block, at either n
    code, peak = traced_peak(quiet_cli, [
        "sample", "--model", json.dumps(UNIFORM_PARETO), "-n", str(n),
        "--seed", "3", "--workers", str(workers), "-o", str(tmp_path / "x.csv")])
    assert code == 0
    assert peak <= (workers + FORMAT_BATCHES) * CHUNK_BATCH


@pytest.mark.parametrize("n", SIZES)
def test_cli_transform_peak_is_rows_plus_blocks(tmp_path, sample_csvs, n):
    # np.loadtxt peaks at about 1.2 times the (n, 2) rows it returns; then
    # one block and its image, and one formatted block
    code, peak = traced_peak(quiet_cli, [
        "transform", "--input", str(sample_csvs[n]), "--map",
        '{"kind": "quadrant_snap"}', "-o", str(tmp_path / "y.csv")])
    assert code == 0
    assert peak <= 1.25 * 16 * n + (2 + FORMAT_BATCHES) * CHUNK_BATCH


@pytest.mark.parametrize("n", SIZES)
def test_cli_estimate_peak_is_rows_and_norms_plus_blocks(tmp_path, sample_csvs,
                                                         n):
    # the peak is at top_indices, which holds a partitioned copy of the
    # norms while the rows and the norms are still held: 32n bytes at
    # d = 2, which the rows' 0.25 slack (4n) and two blocks cover up to
    # n = 2^20. The rows go before the bootstrap, whose copies of the
    # norms then fit in the same space.
    code, peak = traced_peak(quiet_cli, [
        "estimate", "--input", str(sample_csvs[n]), "--top", "0.01",
        "-o", str(tmp_path / "r.json")])
    assert code == 0
    assert peak <= 1.25 * 16 * n + 8 * n + 2 * CHUNK_BATCH
