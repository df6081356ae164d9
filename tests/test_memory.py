"""Traced peak memory of the sampling stages, the verify scenarios and the
CLI file pipeline.

The samplers hold one copy of their output and only chunk-sized
temporaries: they copy each chunk into an output allocated once. A batch
drawn in polar form stores its norms and directions alone, 3 floats per
point in d = 2; example3's, built from points, stores 5. A verify
scenario drops each stage's input once its output is made, so it holds at
most a batch and the one being made from it, and the density CDF tables
are built a block of cells at a time. The CLI steps hold no whole batch at
all: `sample` writes each chunk as it is drawn, and `transform` and
`estimate` parse their input once, then take it block by block, so beyond
the parsed rows (and the norms, for `estimate`) each holds a few blocks,
the same number at both sizes tested. An empirical tail scan counts by
blocks too, so its peak does not grow with the batch.
"""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from regvar.cli import cli_main, read_csv, write_csv
from regvar.estimation import exceedance_counts, tail_scan
from regvar.measures import (
    SpectralMeasure,
    expected_gain_reweight,
    power_cusp_gain,
    reweight,
    step_gain,
)
from regvar.models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
)
from regvar.radial import OscillatingTailLaw, ParetoLaw
from regvar.rng import CHUNK
from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario
from regvar.specs import gain_from_spec, random_gain_from_spec
from regvar.sphere import TWO_PI, ArcSet
from regvar.transforms import TransformedModel

N = 1 << 20
# points, norms and dirs of one d = 2 chunk built from points, or of one
# block of CSV rows
CHUNK_BATCH = CHUNK * (2 + 1 + 2) * 8
# norms and dirs of one d = 2 chunk drawn in polar form
POLAR_CHUNK = CHUNK * (1 + 2) * 8
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
    """The bytes batch stores: its points count only where they are stored."""
    points = batch.points.nbytes if batch.holds_points else 0
    return points + batch.norms.nbytes + batch.dirs.nbytes


def uniform_pareto():
    return PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0))


def oscillating_polar():
    return PolarIndependentModel(SpectralMeasure.uniform(), 1.0,
                                 OscillatingTailLaw(1.0, 0.5, +1))


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_peak_is_output_plus_chunks_in_flight(workers):
    # the output is norms and dirs alone; the oscillating laws thin Pareto
    # draws in place, holding 2.5 polar chunks per worker at most, so their
    # samplers meet the uniform/Pareto bound too
    for model in (uniform_pareto(), Example1Model(1.0, 0.5), oscillating_polar()):
        batch, peak = traced_peak(model.sample, N, 3, workers)
        assert batch.size == N and not batch.holds_points
        assert nbytes(batch) == N * (1 + 2) * 8
        assert peak <= nbytes(batch) + 3 * workers * POLAR_CHUNK, model


@pytest.mark.parametrize("workers", [1, 2])
def test_points_built_sample_stores_five_floats_per_point(workers):
    # example3 builds its chunks from points, so its output stores them too
    model = Example3Model(1.0)
    model.sample(CHUNK, 3, workers)
    batch, peak = traced_peak(model.sample, N, 3, workers)
    assert batch.holds_points and nbytes(batch) == N * (2 + 1 + 2) * 8
    assert peak <= nbytes(batch) + 2 * workers * CHUNK_BATCH


def test_read_csv_peak_is_output_plus_two_chunks(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, 2, uniform_pareto().chunks(N, 3))
    (rows, _), peak = traced_peak(read_csv, path)
    assert rows.shape == (N, 2)
    assert peak <= rows.nbytes + 2 * CHUNK_BATCH


@pytest.mark.parametrize("workers", [1, 2])
def test_gained_sample_never_holds_the_unscaled_sample(workers):
    # the example2 gain removes about 2% of the points
    model = TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2))
    batch, peak = traced_peak(model.sample, N, 3, workers)
    assert batch.zero_count > 0
    assert peak <= 1.5 * nbytes(batch)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker", [
    lambda: TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2)),
    # removes the atom at 4.0, about 60% of the points
    lambda: TransformedModel(PolarIndependentModel(
        SpectralMeasure.discrete([0.3, 4.0], [0.4, 0.6]), 1.0, ParetoLaw(1.0)),
        step_gain([0.0, 3.0], [2.0, 0.0])),
], ids=["example2-gain", "discrete-step-gain"])
def test_gained_atomic_sample_peak_is_output_plus_chunks_in_flight(maker, workers):
    # the output's norms and dirs are allocated for every point drawn
    # before the gain removes any; a chunk drawn by atoms holds its norms,
    # columns, directions and gains, then the kept norms and directions,
    # less than three polar chunks in all. A first draw makes numpy's
    # one-time allocations (0.7 MB traced), so a small one goes before the
    # traced one.
    model = maker()
    model.sample(CHUNK, 3, workers)
    batch, peak = traced_peak(model.sample, N, 3, workers)
    assert batch.zero_count > 0 and not batch.holds_points
    assert peak <= N * (1 + 2) * 8 + 3 * workers * POLAR_CHUNK


def test_example2_gained_tail_peak_does_not_grow_with_r():
    # atoms 55 to r^(1/beta), about 1e10 of them at r = 1e12, sum as two
    # Hurwitz series rather than as an array
    r = 1e12
    tail, peak = traced_peak(Example2Model(1.0, 0.5, 1.2).gained_tail, r,
                             ArcSet.full_circle(), Example2Gain(1.2))
    assert peak < 1 << 20
    assert r * tail >= r / (r ** (1 / 1.2) + 1.0)


SIZES = [1 << 18, 1 << 20]


@pytest.mark.parametrize("n", SIZES)
def test_tail_scan_peak_does_not_grow_with_n(n):
    # four arcs and ten radii, as the sample-scan benchmark scans; the
    # batch is built before tracing starts
    batch = uniform_pareto().sample(n, 3)
    quarters = [ArcSet([(j * TWO_PI / 4, (j + 1) * TWO_PI / 4)]) for j in range(4)]
    grid = [1.5 * 2.0 ** j for j in range(10)]
    scan, peak = traced_peak(tail_scan, batch, 1.0, quarters, grid)
    assert scan.mode == "empirical"
    assert peak <= 2 * CHUNK_BATCH


@pytest.mark.parametrize("radii", [1, 200, 1000])
def test_exceedance_counts_peak_does_not_grow_with_the_grid(radii):
    # one radius at a time: no array of radii times a block of points
    batch = uniform_pareto().sample(1 << 18, 3)
    quarters = [ArcSet([(j * TWO_PI / 4, (j + 1) * TWO_PI / 4)]) for j in range(4)]
    counts, peak = traced_peak(exceedance_counts, batch, quarters,
                               np.geomspace(1.5, 1e4, radii))
    assert counts.shape == (radii, 4)
    assert peak <= CHUNK_BATCH


@pytest.mark.parametrize("n", SIZES)
def test_scenario_peak_is_two_batches_plus_chunks(n):
    # a stage holds its input batch while it makes its output; no scenario
    # holds a third batch beside them, nor a whole CDF table's nodes
    batch = n * (2 + 1 + 2) * 8
    peaks = {name: traced_peak(run_scenario, Scenario(name, n=n, seed=3))[1]
             for name in SCENARIO_NAMES}
    over = {name: peak for name, peak in peaks.items()
            if peak > 2 * batch + 2 * CHUNK_BATCH}
    assert not over, over


@pytest.mark.parametrize("n", SIZES)
def test_corollary2_peak_is_two_batches(n):
    # an estimate's report keeps the sample's norms for its interval, so
    # corollary2 drops it before the Monte Carlo moments and the alpha = 2
    # batch; held through them, the peak passes two batches. A first run
    # imports numpy.random and numpy.ma (1.8 MB traced), so a small one
    # goes before the traced one.
    run_scenario(Scenario("corollary2", n=1000, seed=3))
    batch = n * (2 + 1 + 2) * 8
    _, peak = traced_peak(run_scenario, Scenario("corollary2", n=n, seed=3))
    assert peak <= 2 * batch, peak / batch


@pytest.mark.parametrize("limit", [
    # the normalized targets of theorem2, theorem3 and corollary2
    lambda u: reweight(u, gain_from_spec(
        {"kind": "cosine", "base": 1.0, "amplitude": 0.5}), 2.0),
    lambda u: reweight(u, power_cusp_gain(math.pi, 0.2), 1.0),
    lambda u: expected_gain_reweight(u, random_gain_from_spec(
        {"kind": "exp_cosine", "amplitude": 0.5}), 1.0),
], ids=["theorem2", "theorem3", "corollary2"])
def test_density_cdf_table_peak_is_three_tables_and_a_block(limit):
    # grid, cell integrals and cumulative masses, 0.5 MB each, and one
    # block of cells' nodes
    mu = limit(SpectralMeasure.uniform()).normalized()
    _, peak = traced_peak(mu._density_cdf_table)
    assert peak < 2_000_000


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
    # the rows and the norms, 24n bytes at d = 2, and two blocks: the top
    # k is selected block by block, among the last top k and one block,
    # so no selection copies all n norms. The rows go before the
    # bootstrap, whose copies of the norms then fit in the same space.
    code, peak = traced_peak(quiet_cli, [
        "estimate", "--input", str(sample_csvs[n]), "--top", "0.01",
        "-o", str(tmp_path / "r.json")])
    assert code == 0
    assert peak <= 16 * n + 8 * n + 2 * CHUNK_BATCH
