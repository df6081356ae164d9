"""JSON specs for measures, models, radial laws, gains and maps.

These are the file-level interfaces of the CLI: everything a pipeline
stage needs can be written down as a small JSON object and rebuilt
losslessly (within 1e-12 for angles and weights).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import RegvarError, SpecError
from .measures import (
    ATOM_MERGE_TOL,
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
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
)
from .radial import AtomPlusParetoLaw, OscillatingTailLaw, ParetoLaw
from .sphere import ArcSet


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


def _float(value, path: str) -> float:
    """value, a JSON number, as a finite float; anything else, booleans,
    strings, NaN and infinities too, raises SpecError naming its path."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        x = float(value) if number else None
    except OverflowError:  # an integer beyond the double range
        x = None
    _require(x is not None, f"spec field {path!r} must be a number, got {value!r}")
    _require(math.isfinite(x),
             f"spec field {path!r} must be a finite number, got {value!r}")
    return x


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


def _atoms(spec: dict) -> SpectralMeasure:
    atoms = spec.get("atoms")
    _require(isinstance(atoms, list) and atoms
             and all(isinstance(a, dict) for a in atoms),
             "atoms must be a nonempty list of objects")
    dim = _integer(spec, "dim", 2)
    weights = [_number(a, "weight", where=f"atoms[{i}].") for i, a in enumerate(atoms)]
    if dim == 2:
        angles = [_number(a, "angle", where=f"atoms[{i}].")
                  for i, a in enumerate(atoms)]
        m = SpectralMeasure(spec["kind"], 2, angles=angles, weights=weights,
                            merge=True)
    else:
        coords = [_numbers(a["coords"], f"atoms[{i}].coords")
                  for i, a in enumerate(atoms)]
        _require(all(len(c) == dim for c in coords),
                 f"atom coordinates must have dim = {dim} entries")
        m = SpectralMeasure(spec["kind"], dim, coords=np.array(coords).T,
                            weights=weights, merge=True)
    _require(m.weights.size == len(atoms),
             "spec field 'atoms' lists directions within "
             f"{ATOM_MERGE_TOL:g} of each other; give each once, with "
             "the sum of their weights")
    return m


def _density(spec: dict) -> SpectralMeasure:
    _require(_integer(spec, "dim", 2) == 2,
             "a density is in the angle, so its spec has dim = 2")
    return _builder("density", key="name")(spec.get("density"))


def _oscillating(spec: dict) -> OscillatingTailLaw:
    amplitude = _number(spec, "amplitude")
    _require(0.0 < amplitude < 1.0,
             f"spec field 'amplitude' must lie in (0, 1), got {amplitude}")
    sign = _integer(spec, "sign", 1)
    _require(sign in (-1, 1), f"spec field 'sign' must be +1 or -1, got {sign}")
    return OscillatingTailLaw(_number(spec, "alpha"), amplitude, sign)


def _cosine(spec: dict) -> RadialGain:
    base = _number(spec, "base")
    amp = _number(spec, "amplitude")
    _require(base >= abs(amp), "cosine gain must stay nonnegative")
    return RadialGain(angle_fn=lambda t: base + amp * np.cos(t),
                      declared_bound=base + abs(amp))


def _exp_cosine(spec: dict) -> RandomGainProcess:
    a = _number(spec, "amplitude", 0.0)
    _require(-1.0 < a < 1.0, "exp_cosine amplitude must lie in (-1, 1)")
    return exponential_gain_process(lambda t: 1.0 + a * np.cos(t))


def _polar_independent(spec: dict) -> PolarIndependentModel:
    sigma = measure_from_spec(spec["sigma"])
    radial = radial_from_spec(spec["radial"])
    return PolarIndependentModel(sigma, _number(spec, "alpha", radial.alpha), radial)


# Every spec kind, by family: {family: {kind: builder of its spec}}. A
# density measure's spec names its density by "name"; the others by "kind".
_KINDS = {
    "measure": {"discrete": _atoms, "empirical": _atoms, "density": _density},
    "density": {
        "uniform": lambda s: SpectralMeasure.uniform(),
        "cosine_bump": lambda s: SpectralMeasure.cosine_bump(
            _number(s, "amplitude", where="density.")),
    },
    "radial law": {
        "pareto": lambda s: ParetoLaw(_number(s, "alpha")),
        "atom_plus_pareto": lambda s: AtomPlusParetoLaw(
            _number(s, "alpha"), _number(s, "tail_coefficient")),
        "oscillating": _oscillating,
    },
    "model": {
        "polar_independent": _polar_independent,
        "example1": lambda s: Example1Model(_number(s, "alpha"),
                                            _number(s, "amplitude", 0.5)),
        "example2": lambda s: Example2Model(_number(s, "alpha"), _number(s, "nu"),
                                            _number(s, "beta")),
        "example3": lambda s: Example3Model(_number(s, "alpha")),
    },
    "map": {
        "identity": lambda s: identity_map(),
        "constant": lambda s: constant_map(_number(s, "value")),
        "quadrant_snap": lambda s: quadrant_snap_map(),
        "step": lambda s: step_map(_numbers(s["breakpoints"], "breakpoints"),
                                   _numbers(s["values"], "values")),
        "quantile_transform": lambda s: quantile_transform_map(
            measure_from_spec(s["target"])),
    },
    "gain": {
        "constant": lambda s: constant_gain(_number(s, "value")),
        "cosine": _cosine,
        "step": lambda s: step_gain(_numbers(s["breakpoints"], "breakpoints"),
                                    _numbers(s["values"], "values")),
        "example2_gain": lambda s: Example2Gain(_number(s, "beta")),
        "indicator_arc": lambda s: indicator_gain(_arcs(s)),
        "power_cusp": lambda s: power_cusp_gain(_number(s, "center"),
                                                _number(s, "gamma")),
    },
    "random gain": {"exp_cosine": _exp_cosine},
}


def _builder(*families: str, key: str = "kind"):
    """The builder of the families' specs: it builds a spec by its spec[key]
    in whichever family has that kind. A spec that is not an object, a kind
    the families lack, or a missing field raises SpecError naming the first
    family; a bad kind's lists every family's kinds."""
    kinds = {kind: build for family in families
             for kind, build in _KINDS[family].items()}

    def build(spec):
        _require(isinstance(spec, dict), f"{families[0]} spec must be an object")
        kind = spec.get(key)
        if not (isinstance(kind, str) and kind in kinds):
            what = (f"unknown {families[0]} {key} {kind!r}" if key in spec
                    else f"{families[0]} spec needs a {key}")
            raise SpecError(f"{what}; expected one of {', '.join(kinds)}")
        try:
            return kinds[kind](spec)
        except KeyError as e:
            raise SpecError(f"spec is missing field {e.args[0]!r}") from e
    return build


measure_from_spec = _builder("measure")
radial_from_spec = _builder("radial law")
model_from_spec = _builder("model")
map_from_spec = _builder("map")
gain_from_spec = _builder("gain")
random_gain_from_spec = _builder("random gain")
# a deterministic or a random gain: what `transform --gain` applies
any_gain_from_spec = _builder("gain", "random gain")


# ----------------------------------------------------------------------
# loading helpers


def load_spec(text_or_path: str):
    """A spec given inline as JSON text, or else as the path of a JSON file:
    any JSON value, which a builder refuses unless it is an object."""
    try:
        return json.loads(text_or_path)
    except ValueError as inline:  # JSONDecodeError, or an integer too long
        try:
            with open(text_or_path, encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as e:
            raise SpecError(f"cannot load spec from {text_or_path!r}: {e}; "
                            f"nor is it inline JSON: {inline}") from e
        except ValueError as e:  # bad JSON, or bytes that are not UTF-8
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
