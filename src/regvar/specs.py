"""JSON specs for measures, models, radial laws, gains and maps.

These are the file-level interfaces of the CLI: everything a pipeline
stage needs can be written down as a small JSON object and rebuilt
losslessly (within 1e-12 for angles and weights).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import RegvarError, SpecError
from .measures import (
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
    SphereMap,
    constant_gain,
    constant_map,
    exponential_gain_process,
    identity_map,
    indicator_gain,
    power_cusp_gain,
    quadrant_snap_map,
    quantile_transform_map,
    step_gain,
    step_map,
)
from .models import (
    RegVarModel,
    example1_model,
    example2_gain,
    example2_model,
    example3_model,
    polar_independent,
)
from .radial import AtomPlusParetoLaw, OscillatingTailLaw, ParetoLaw, RadialLaw
from .sphere import ArcSet


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


# ----------------------------------------------------------------------
# measures


def measure_to_spec(m: SpectralMeasure) -> dict:
    if m.is_discrete:
        if m.dim == 2:
            atoms = [{"angle": float(a), "weight": float(w)}
                     for a, w in zip(m.angles, m.weights)]
        else:
            atoms = [{"coords": [float(c) for c in m.coords[:, i]],
                      "weight": float(w)} for i, w in enumerate(m.weights)]
        return {"kind": m.kind, "dim": m.dim, "atoms": atoms}
    _require(m.density_spec is not None,
             "only named densities can be serialized")
    return {"kind": "density", "dim": 2, "density": dict(m.density_spec)}


def measure_from_spec(spec: dict) -> SpectralMeasure:
    _require(isinstance(spec, dict), "measure spec must be an object")
    kind = spec.get("kind")
    if kind in ("discrete", "empirical"):
        atoms = spec.get("atoms")
        _require(isinstance(atoms, list) and atoms, "atoms must be a nonempty list")
        dim = int(spec.get("dim", 2))
        weights = [a["weight"] for a in atoms]
        if dim == 2:
            _require(all("angle" in a for a in atoms),
                     "planar atoms need an 'angle' field")
            return SpectralMeasure(kind, 2, angles=[a["angle"] for a in atoms],
                                   weights=weights)
        coords = np.array([a["coords"] for a in atoms], dtype=float).T
        return SpectralMeasure(kind, dim, coords=coords, weights=weights)
    if kind == "density":
        dens = spec.get("density")
        _require(isinstance(dens, dict) and "name" in dens,
                 "density spec needs a name")
        if dens["name"] == "uniform":
            return SpectralMeasure.uniform()
        if dens["name"] == "cosine_bump":
            return SpectralMeasure.cosine_bump(dens["amplitude"])
        raise SpecError(f"unknown density name {dens['name']!r}")
    raise SpecError(f"unknown measure kind {kind!r}")


# ----------------------------------------------------------------------
# radial laws


def radial_from_spec(spec: dict) -> RadialLaw:
    _require(isinstance(spec, dict) and "kind" in spec, "radial spec needs a kind")
    kind = spec["kind"]
    if kind == "pareto":
        return ParetoLaw(spec["alpha"])
    if kind == "atom_plus_pareto":
        return AtomPlusParetoLaw(spec["alpha"], spec["tail_coefficient"])
    if kind == "oscillating":
        return OscillatingTailLaw(spec["alpha"], spec["amplitude"],
                                  spec.get("sign", +1))
    raise SpecError(f"unknown radial law kind {kind!r}")


def radial_to_spec(law: RadialLaw) -> dict:
    if isinstance(law, ParetoLaw):
        return {"kind": "pareto", "alpha": law.alpha}
    if isinstance(law, AtomPlusParetoLaw):
        return {"kind": "atom_plus_pareto", "alpha": law.alpha,
                "tail_coefficient": law.coef}
    if isinstance(law, OscillatingTailLaw):
        return {"kind": "oscillating", "alpha": law.alpha,
                "amplitude": law.amplitude, "sign": law.sign}
    raise SpecError("radial law cannot be serialized")


# ----------------------------------------------------------------------
# models


def model_from_spec(spec: dict) -> RegVarModel:
    _require(isinstance(spec, dict) and "kind" in spec, "model spec needs a kind")
    kind = spec["kind"]
    if kind == "polar_independent":
        sigma = measure_from_spec(spec["sigma"])
        radial = radial_from_spec(spec["radial"])
        return polar_independent(sigma, spec["alpha"], radial)
    if kind == "example1":
        return example1_model(spec["alpha"], spec.get("amplitude", 0.5))
    if kind == "example2":
        return example2_model(spec["alpha"], spec["nu"], spec["beta"])
    if kind == "example3":
        return example3_model(spec["alpha"])
    raise SpecError(f"unknown model kind {kind!r}")


def model_to_spec(model: RegVarModel) -> dict:
    from .models import Example1Model, Example2Model, Example3Model, \
        PolarIndependentModel

    if isinstance(model, PolarIndependentModel):
        return {"kind": "polar_independent", "alpha": model.alpha,
                "sigma": measure_to_spec(model.sigma),
                "radial": radial_to_spec(model.radial)}
    if isinstance(model, Example1Model):
        return {"kind": "example1", "alpha": model.alpha,
                "amplitude": model.amplitude}
    if isinstance(model, Example2Model):
        return {"kind": "example2", "alpha": model.alpha, "nu": model.nu,
                "beta": model.beta}
    if isinstance(model, Example3Model):
        return {"kind": "example3", "alpha": model.alpha}
    raise SpecError("model cannot be serialized")


# ----------------------------------------------------------------------
# maps and gains


def map_from_spec(spec: dict) -> SphereMap:
    _require(isinstance(spec, dict) and "kind" in spec, "map spec needs a kind")
    kind = spec["kind"]
    if kind == "identity":
        return identity_map()
    if kind == "constant":
        return constant_map(spec["value"])
    if kind == "quadrant_snap":
        return quadrant_snap_map()
    if kind == "step":
        return step_map(spec["breakpoints"], spec["values"])
    if kind == "quantile_transform":
        return quantile_transform_map(measure_from_spec(spec["target"]))
    raise SpecError(f"unknown map kind {kind!r}")


def gain_from_spec(spec: dict) -> RadialGain:
    _require(isinstance(spec, dict) and "kind" in spec, "gain spec needs a kind")
    kind = spec["kind"]
    if kind == "constant":
        return constant_gain(spec["value"])
    if kind == "cosine":
        base = float(spec["base"])
        amp = float(spec["amplitude"])
        _require(base >= abs(amp), "cosine gain must stay nonnegative")
        return RadialGain(angle_fn=lambda t: base + amp * np.cos(t),
                          declared_bound=base + abs(amp), note="cosine gain")
    if kind == "step":
        return step_gain(spec["breakpoints"], spec["values"])
    if kind == "example2_gain":
        return example2_gain(spec["beta"])
    if kind == "indicator_arc":
        return indicator_gain(ArcSet(spec["arcs"]))
    if kind == "power_cusp":
        return power_cusp_gain(spec["center"], spec["gamma"])
    raise SpecError(f"unknown gain kind {kind!r}")


def random_gain_from_spec(spec: dict) -> RandomGainProcess:
    _require(isinstance(spec, dict) and "kind" in spec,
             "random gain spec needs a kind")
    if spec["kind"] == "exp_cosine":
        a = float(spec.get("amplitude", 0.0))
        _require(-1.0 < a < 1.0, "exp_cosine amplitude must lie in (-1, 1)")
        return exponential_gain_process(lambda t: 1.0 + a * np.cos(t))
    raise SpecError(f"unknown random gain kind {spec['kind']!r}")


def is_random_gain_spec(spec: dict) -> bool:
    return isinstance(spec, dict) and spec.get("kind") == "exp_cosine"


# ----------------------------------------------------------------------
# loading helpers


def load_spec(text_or_path: str) -> dict:
    """Parse a spec given inline as JSON text or as a path to a JSON file."""
    s = text_or_path.strip()
    if s.startswith("{"):
        try:
            return json.loads(s)
        except json.JSONDecodeError as e:
            raise SpecError(f"invalid inline JSON: {e}") from e
    try:
        with open(text_or_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SpecError(f"cannot load spec from {text_or_path!r}: {e}") from e


def report_json(data: dict) -> str:
    """Indented JSON text of a report, newline-terminated.

    A NaN or infinite number raises RegvarError: JSON has no such numbers,
    and a report must not carry them as NaN or Infinity.
    """
    try:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise RegvarError(f"report holds a NaN or infinite value ({e})") from e
