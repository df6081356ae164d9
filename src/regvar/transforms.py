"""The two transformation families, applied to sample batches and to limit
measures.

A sphere map rewrites directions and leaves norms untouched; a radial gain
rescales norms direction by direction and leaves surviving directions
untouched. On the analytic side the same operations act on the limit
measure (power radial part times spectral measure): the map pushes the
spectral part forward, the gain reweights it by h^alpha, and neither ever
changes the tail index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import SampleBatch
from .errors import UnboundedGain
from .measures import (
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
    SphereMap,
    arc_integral,
    pushforward,
    reweight,
)
from .models import Example2Gain, Example2Model, PolarIndependentModel, RegVarModel
from .sphere import ArcSet


@dataclass(frozen=True)
class LimitMeasure:
    """Product limit measure: radial power part times spectral measure.

    eval((r, inf) x B) = spectral(B) * r^-alpha.
    """

    alpha: float
    spectral: SpectralMeasure

    def eval(self, r: float, sets) -> float:
        if r <= 0:
            raise ValueError("radial threshold must be positive")
        return self.spectral.mass_on(sets) * float(r) ** -self.alpha


def spherical_map_apply(batch: SampleBatch, f: SphereMap) -> SampleBatch:
    """Replace each direction by its image; the norms array is shared."""
    return SampleBatch.from_polar(batch.norms, f.apply_dirs(batch.dirs),
                                  seed=batch.seed, zero_count=batch.zero_count)


def _scale_by(batch: SampleBatch, vals: np.ndarray) -> SampleBatch:
    """Multiply each norm by its factor; directions are preserved exactly.

    Points whose factor is zero collapse to the origin, where the polar
    decomposition is undefined; they are removed and counted in zero_count.
    When none is, the dirs array is shared. A product that overflows raises
    NonFiniteInput.
    """
    keep = vals > 0.0
    removed = int(batch.size - np.count_nonzero(keep))
    norms, dirs = batch.norms, batch.dirs
    if removed:
        norms, dirs, vals = norms[keep], dirs[:, keep], vals[keep]
    with np.errstate(over="ignore"):
        norms = norms * vals
    return SampleBatch.from_polar(norms, dirs, seed=batch.seed,
                                  zero_count=batch.zero_count + removed)


def radial_scale_apply(batch: SampleBatch, h: RadialGain) -> SampleBatch:
    """Multiply each norm by the gain at its direction (zero gain removes
    the point)."""
    return _scale_by(batch, h.at_dirs(batch.dirs))


def randomized_scale_apply(batch: SampleBatch, z: RandomGainProcess,
                           rng: np.random.Generator) -> SampleBatch:
    """Scale each norm by an independent draw of Z at the point's direction.

    One draw per point, i.i.d. across points; the generator must come from
    a stream separate from the one that produced the batch. A zero draw
    removes the point, as a zero gain does.
    """
    if batch.dim != 2:
        raise NotImplementedError("randomized gains are planar")
    return _scale_by(batch, z.sample(batch.angles(), rng))


def limit_pushforward_spherical(q: LimitMeasure, f: SphereMap) -> LimitMeasure:
    """Limit measure of the mapped vector: same index, spectral part pushed
    forward."""
    return LimitMeasure(q.alpha, pushforward(q.spectral, f))


def limit_pushforward_radial(q: LimitMeasure, h: RadialGain) -> LimitMeasure:
    """Limit measure of the rescaled vector: same index, spectral part
    reweighted by h^alpha.

    Requires a declared finite bound: with an unbounded gain the rescaled
    vector may fail to have a power tail at all (the accumulating-atom
    construction proves it), so callers must route unbounded gains through
    the independence path with a finite moment certificate.
    """
    if not h.is_bounded:
        raise UnboundedGain("limit pushforward needs a declared bound; "
                            "unbounded gains need the independence route "
                            "with a finite moment certificate")
    return LimitMeasure(q.alpha, reweight(q.spectral, h, q.alpha))


class TransformedModel(RegVarModel):
    """A base model composed with a deterministic radial gain.

    Each chunk is drawn from the base and rescaled at once, so the unscaled
    sample never exists whole; the result equals
    radial_scale_apply(base.sample(n, seed), gain) bit for bit. Exact tails
    are available when the base has independent polar parts (any gain) or
    for the accumulating-atom construction with its companion gain.
    """

    def __init__(self, base: RegVarModel, gain: RadialGain):
        self.base = base
        self.gain = gain
        self.alpha = base.alpha
        self.dim = base.dim
        self.spectral = None

    def _sample_chunk(self, rng, m):
        return radial_scale_apply(self.base._sample_chunk(rng, m), self.gain)

    def exact_tail(self, r, sets):
        base, gain = self.base, self.gain
        if isinstance(base, Example2Model) and isinstance(gain, Example2Gain):
            if abs(gain.beta - base.beta) > 1e-12:
                return None
            return base.transformed_tail(float(r), sets)
        if isinstance(base, PolarIndependentModel) and base.dim == 2:
            sigma = base.sigma
            if sigma.is_discrete:
                vals = gain.at_angles(sigma.angles)
                member = sets.contains(sigma.angles) if isinstance(sets, ArcSet) \
                    else sets.contains(sigma.coords)
                keep = member & (vals > 0.0)
                if not np.any(keep):
                    return 0.0
                tails = base.radial.tail(float(r) / vals[keep])
                return float(np.sum(sigma.weights[keep] * tails))

            def integrand(t):
                v = gain.at_angles(t)
                out = np.zeros_like(v)
                pos = v > 0
                out[pos] = base.radial.tail(float(r) / v[pos])
                return sigma.density_fn(t) * out

            hints = set(sigma.singular_points) | set(gain.singular_points)
            return arc_integral(integrand, sets.arcs, hints)
        return None
