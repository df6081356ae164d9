"""The two transformation families applied to sample batches, and the
model that composes a base law with a radial gain, whose exact tail the
base law supplies (RegVarModel.gained_tail).

A sphere map rewrites directions and leaves norms untouched; a radial gain
rescales norms direction by direction and leaves surviving directions
untouched. The limit side needs no object of its own: neither transform
changes the tail index, so the limit of a mapped vector is the spectral
measure's `pushforward` and that of a rescaled vector its `reweight` by
h^alpha, both in regvar.measures.
"""

from __future__ import annotations

import numpy as np

from .batch import SampleBatch, check_norms
from .errors import DimensionMismatch
from .measures import RadialGain, RandomGainProcess, SphereMap
from .models import RegVarModel
from .sphere import angles_of


def spherical_map_apply(batch: SampleBatch, f: SphereMap) -> SampleBatch:
    """Replace each direction by its image; the norms array is shared."""
    return SampleBatch.from_polar(batch.norms, f.apply_dirs(batch.dirs),
                                  zero_count=batch.zero_count)


def _scale_by(norms: np.ndarray, dirs: np.ndarray, vals: np.ndarray,
              zero_count: int) -> SampleBatch:
    """The batch of norms times their factors vals, at directions dirs;
    directions are preserved exactly.

    Points whose factor is zero collapse to the origin, where the polar
    decomposition is undefined; they are removed and added to zero_count.
    When none is, the dirs array is shared. A product that overflows raises
    NonFiniteInput.
    """
    keep = vals > 0.0
    removed = int(norms.size - np.count_nonzero(keep))
    if removed:
        # one copy after another, dirs, the largest, first, so each source
        # goes before the next copy; np.compress keeps dirs C-ordered, where
        # dirs[:, keep] would not be
        dirs = np.compress(keep, dirs, axis=1)
        norms = norms[keep]
        vals = vals[keep]
    with np.errstate(over="ignore"):
        norms = norms * vals
    return SampleBatch.from_polar(norms, dirs, zero_count=zero_count + removed)


def radial_scale_apply(batch: SampleBatch, h: RadialGain) -> SampleBatch:
    """Multiply each norm by the gain at its direction (zero gain removes
    the point)."""
    return _scale_by(batch.norms, batch.dirs, h.at_dirs(batch.dirs),
                     batch.zero_count)


def randomized_scale_apply(batch: SampleBatch, z: RandomGainProcess,
                           rng: np.random.Generator) -> SampleBatch:
    """Scale each norm by an independent draw of Z at the point's direction.

    One draw per point, i.i.d. across points; the generator must come from
    a stream separate from the one that produced the batch. A zero draw
    removes the point, as a zero gain does.
    """
    if batch.dim != 2:
        raise DimensionMismatch("random gains act on planar angles (d = 2)")
    return _scale_by(batch.norms, batch.dirs,
                     z.sample(angles_of(batch.dirs), rng), batch.zero_count)


class TransformedModel(RegVarModel):
    """A base model composed with a deterministic radial gain.

    Each chunk is drawn from the base and rescaled at once, so the unscaled
    sample never exists whole; the result equals
    radial_scale_apply(base.sample(n, seed), gain) bit for bit. The exact
    tail is the base's gained_tail for this gain, or None where the base
    has no closed form for it.

    A base with atom_dirs draws its chunks as (norms, column) pairs, and
    the gain is evaluated once per column, here at construction: no chunk
    computes an angle or a gain per point, and no unscaled chunk is built.
    So a gain that is NaN, negative or over its declared bound at any
    column of the table raises InvalidGain here, not at the first point
    drawn there, and a gain with no action in the base's dimension raises
    DimensionMismatch here. Other bases are drawn and scaled chunk by
    chunk.
    """

    def __init__(self, base: RegVarModel, gain: RadialGain):
        self.base = base
        self.gain = gain
        self.alpha = base.alpha
        self.dim = base.dim
        self._atom_gains = None if base.atom_dirs is None \
            else gain.at_dirs(base.atom_dirs)

    def _sample_chunk(self, rng, m):
        base = self.base
        if self._atom_gains is None:
            return radial_scale_apply(base._sample_chunk(rng, m), self.gain)
        norms, col = base._draw_atoms(rng, m)
        return _scale_by(check_norms(norms), np.take(base.atom_dirs, col, axis=1),
                         np.take(self._atom_gains, col), 0)

    def exact_tail(self, r, sets):
        return self.base.gained_tail(r, sets, self.gain)
