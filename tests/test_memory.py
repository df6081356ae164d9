"""Traced peak memory of the sampling and reading stages at n = 2^20.

Each stage holds one copy of its output and only chunk-sized temporaries:
samplers fill their output in place, chunk by chunk, and read_csv drops
numpy's row array once it has the coordinate rows.
"""

import tracemalloc

import pytest

from regvar.cli import read_csv, write_csv
from regvar.measures import SpectralMeasure
from regvar.models import Example2Gain, Example2Model, PolarIndependentModel
from regvar.radial import ParetoLaw
from regvar.rng import CHUNK
from regvar.transforms import TransformedModel

N = 1 << 20
# points, norms and dirs of one d = 2 chunk
CHUNK_BATCH = CHUNK * (2 + 1 + 2) * 8


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def nbytes(batch):
    return batch.points.nbytes + batch.norms.nbytes + batch.dirs.nbytes


def uniform_pareto():
    return PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_peak_is_output_plus_chunks_in_flight(workers):
    batch, peak = traced_peak(uniform_pareto().sample, N, 3, workers)
    assert batch.size == N
    assert peak <= nbytes(batch) + 2 * workers * CHUNK_BATCH


def test_read_csv_peak_is_output_plus_two_chunks(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, uniform_pareto().sample(N, 3))
    batch, peak = traced_peak(read_csv, path)
    assert batch.size == N
    assert peak <= nbytes(batch) + 2 * CHUNK_BATCH


@pytest.mark.parametrize("workers", [1, 2])
def test_gained_sample_never_holds_the_unscaled_sample(workers):
    # the example2 gain removes about 2% of the points
    model = TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2))
    batch, peak = traced_peak(model.sample, N, 3, workers)
    assert batch.zero_count > 0
    assert peak <= 1.5 * nbytes(batch)
