"""Deterministic random-number substreams.

Every stochastic component draws from a Generator derived from
(seed, stream label) or (seed, stream label, chunk index), so results are
reproducible and independent of how work is split across workers.
"""

from __future__ import annotations

import numpy as np

# Stream labels. Keeping them distinct guarantees e.g. that gain draws are
# independent of the sample that they scale.
SAMPLE_STREAM = 0
GAIN_STREAM = 1
BOOTSTRAP_STREAM = 2
MOMENT_STREAM = 3

CHUNK = 1 << 16


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for a labelled stream of the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def chunk_seeds(seed: int, stream: int, n_chunks: int) -> list[np.random.SeedSequence]:
    """Deterministic child seeds, one per chunk, for a labelled stream."""
    root = np.random.SeedSequence(seed, spawn_key=(stream,))
    return root.spawn(n_chunks)


def chunk_sizes(n: int) -> list[int]:
    """Split n >= 0 into CHUNK-sized chunks; the split depends on n only."""
    full, rest = divmod(n, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])
