"""JSON specs for measures, models, radial laws, gains and maps.

These are the file-level interfaces of the CLI: everything a pipeline
stage needs can be written down as a small JSON object and rebuilt
losslessly (within 1e-12 for angles and weights).
"""

from __future__ import annotations

import functools
import json
import math

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
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
    RegVarModel,
)
from .radial import AtomPlusParetoLaw, OscillatingTailLaw, ParetoLaw, RadialLaw
from .sphere import ArcSet


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


def _float(value, path: str) -> float:
    """value as a float; anything else raises SpecError naming its path."""
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise SpecError(f"spec field {path!r} must be a number, "
                        f"got {value!r}") from e


def _number(spec: dict, field: str, default: float | None = None,
            where: str = "") -> float:
    """spec[field] as a float, or default when given and the field is
    absent. A value that is not a number raises SpecError naming the field
    (its path is where + field)."""
    value = spec[field] if default is None else spec.get(field, default)
    return _float(value, where + field)


def _numbers(values, path: str) -> list[float]:
    """A list of numbers as floats; SpecError names the first entry that
    is not one (path[i]), or the field when it is not a list."""
    _require(isinstance(values, (list, tuple)),
             f"spec field {path!r} must be a list of numbers, got {values!r}")
    return [_float(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _integer(spec: dict, field: str, default: int) -> int:
    """spec[field] as an int (an integral float is accepted), or default
    when the field is absent."""
    value = spec.get(field, default)
    integral = isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    _require(integral and not isinstance(value, bool),
             f"spec field {field!r} must be an integer, got {value!r}")
    return int(value)


def _arcs(spec: dict) -> ArcSet:
    """spec["arcs"], a list of [start, stop] pairs, as an ArcSet."""
    arcs = spec["arcs"]
    message = "spec field 'arcs' must be a list of [start, stop] pairs"
    _require(isinstance(arcs, (list, tuple)), message)
    pairs = [_numbers(arc, f"arcs[{i}]") for i, arc in enumerate(arcs)]
    _require(all(len(pair) == 2 for pair in pairs), message)
    return ArcSet(pairs)


def _fields_required(from_spec):
    """from_spec, with a field missing from its spec raised as a SpecError
    that names the field."""

    @functools.wraps(from_spec)
    def build(spec):
        try:
            return from_spec(spec)
        except KeyError as e:
            raise SpecError(f"spec is missing field {e.args[0]!r}") from e

    return build


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


@_fields_required
def measure_from_spec(spec: dict) -> SpectralMeasure:
    _require(isinstance(spec, dict), "measure spec must be an object")
    kind = spec.get("kind")
    if kind in ("discrete", "empirical"):
        atoms = spec.get("atoms")
        _require(isinstance(atoms, list) and atoms, "atoms must be a nonempty list")
        dim = _integer(spec, "dim", 2)
        weights = [_number(a, "weight", where=f"atoms[{i}].")
                   for i, a in enumerate(atoms)]
        if dim == 2:
            _require(all("angle" in a for a in atoms),
                     "planar atoms need an 'angle' field")
            angles = [_number(a, "angle", where=f"atoms[{i}].")
                      for i, a in enumerate(atoms)]
            return SpectralMeasure(kind, 2, angles=angles, weights=weights)
        coords = [_numbers(a["coords"], f"atoms[{i}].coords")
                  for i, a in enumerate(atoms)]
        _require(all(len(c) == dim for c in coords),
                 f"atom coordinates must have dim = {dim} entries")
        coords = np.array(coords).T
        return SpectralMeasure(kind, dim, coords=coords, weights=weights)
    if kind == "density":
        dens = spec.get("density")
        _require(isinstance(dens, dict) and "name" in dens,
                 "density spec needs a name")
        if dens["name"] == "uniform":
            return SpectralMeasure.uniform()
        if dens["name"] == "cosine_bump":
            return SpectralMeasure.cosine_bump(
                _number(dens, "amplitude", where="density."))
        raise SpecError(f"unknown density name {dens['name']!r}")
    raise SpecError(f"unknown measure kind {kind!r}")


# ----------------------------------------------------------------------
# radial laws


@_fields_required
def radial_from_spec(spec: dict) -> RadialLaw:
    _require(isinstance(spec, dict) and "kind" in spec, "radial spec needs a kind")
    kind = spec["kind"]
    if kind == "pareto":
        return ParetoLaw(_number(spec, "alpha"))
    if kind == "atom_plus_pareto":
        return AtomPlusParetoLaw(_number(spec, "alpha"),
                                 _number(spec, "tail_coefficient"))
    if kind == "oscillating":
        return OscillatingTailLaw(_number(spec, "alpha"),
                                  _number(spec, "amplitude"),
                                  spec.get("sign", +1))
    raise SpecError(f"unknown radial law kind {kind!r}")


# ----------------------------------------------------------------------
# models


@_fields_required
def model_from_spec(spec: dict) -> RegVarModel:
    _require(isinstance(spec, dict) and "kind" in spec, "model spec needs a kind")
    kind = spec["kind"]
    if kind == "polar_independent":
        sigma = measure_from_spec(spec["sigma"])
        radial = radial_from_spec(spec["radial"])
        return PolarIndependentModel(sigma, _number(spec, "alpha"), radial)
    if kind == "example1":
        return Example1Model(_number(spec, "alpha"),
                             _number(spec, "amplitude", 0.5))
    if kind == "example2":
        return Example2Model(_number(spec, "alpha"), _number(spec, "nu"),
                             _number(spec, "beta"))
    if kind == "example3":
        return Example3Model(_number(spec, "alpha"))
    raise SpecError(f"unknown model kind {kind!r}")


# ----------------------------------------------------------------------
# maps and gains


@_fields_required
def map_from_spec(spec: dict) -> SphereMap:
    _require(isinstance(spec, dict) and "kind" in spec, "map spec needs a kind")
    kind = spec["kind"]
    if kind == "identity":
        return identity_map()
    if kind == "constant":
        return constant_map(_number(spec, "value"))
    if kind == "quadrant_snap":
        return quadrant_snap_map()
    if kind == "step":
        return step_map(_numbers(spec["breakpoints"], "breakpoints"),
                        _numbers(spec["values"], "values"))
    if kind == "quantile_transform":
        return quantile_transform_map(measure_from_spec(spec["target"]))
    raise SpecError(f"unknown map kind {kind!r}")


@_fields_required
def gain_from_spec(spec: dict) -> RadialGain:
    _require(isinstance(spec, dict) and "kind" in spec, "gain spec needs a kind")
    kind = spec["kind"]
    if kind == "constant":
        return constant_gain(_number(spec, "value"))
    if kind == "cosine":
        base = _number(spec, "base")
        amp = _number(spec, "amplitude")
        _require(base >= abs(amp), "cosine gain must stay nonnegative")
        return RadialGain(angle_fn=lambda t: base + amp * np.cos(t),
                          declared_bound=base + abs(amp))
    if kind == "step":
        return step_gain(_numbers(spec["breakpoints"], "breakpoints"),
                         _numbers(spec["values"], "values"))
    if kind == "example2_gain":
        return Example2Gain(_number(spec, "beta"))
    if kind == "indicator_arc":
        return indicator_gain(_arcs(spec))
    if kind == "power_cusp":
        return power_cusp_gain(_number(spec, "center"),
                               _number(spec, "gamma"))
    raise SpecError(f"unknown gain kind {kind!r}")


@_fields_required
def random_gain_from_spec(spec: dict) -> RandomGainProcess:
    _require(isinstance(spec, dict) and "kind" in spec,
             "random gain spec needs a kind")
    if spec["kind"] == "exp_cosine":
        a = _number(spec, "amplitude", 0.0)
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


def _first_non_finite(data, path: str = "") -> str | None:
    """Key path of the first NaN or infinite float in data, in the order
    json.dumps writes it (e.g. "alpha_ci[1]"), or None."""
    if isinstance(data, float):
        return None if math.isfinite(data) else path
    if isinstance(data, dict):
        items = ((f"{path}.{key}" if path else str(key), value)
                 for key, value in data.items())
    elif isinstance(data, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(data))
    else:
        return None
    for where, value in items:
        found = _first_non_finite(value, where)
        if found is not None:
            return found
    return None


def report_json(data: dict) -> str:
    """Indented JSON text of a report, newline-terminated.

    A NaN or infinite number raises RegvarError naming its key path: JSON
    has no such numbers, and a report must not carry them as NaN or Infinity.
    """
    try:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        where = _first_non_finite(data)
        at = "" if where is None else f" at {where}"
        raise RegvarError(
            f"report holds a NaN or infinite value{at} ({e})") from e
