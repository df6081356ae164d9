"""Span tracing of regvar's public functions, installed from outside the library.

The tracer replaces selected functions and methods with wrappers that open a
span around each call. Spans live in memory as [layer, start, end, parent];
a layer's self time is its spans' durations minus the part of each interval
that child spans cover. Work that the sampler hands to worker threads is
parented to the span that was open on the main thread, so with two workers a
layer's time is busy time summed over threads and can exceed wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

from regvar.scenarios import SCENARIO_NAMES


def _regvar_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "regvar" or name.startswith("regvar."))]


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each target by make_wrapper(original, target) while inside.

    A target is a tuple that starts with (module, "function") or
    (module, "Class.method"); make_wrapper may read its further fields. A
    function is replaced in every regvar module that imported it by name, so
    callers that did `from .estimation import estimate` see the wrapper too.
    """
    undo = []
    try:
        for target in targets:
            modname, qualname = target[:2]
            module = sys.modules[modname]
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                orig = raw.__func__ if is_static else raw
                wrapper = make_wrapper(orig, target)
                setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)
                undo.append((cls, attr, raw))
                continue
            orig = getattr(module, qualname)
            wrapper = make_wrapper(orig, target)
            for mod in _regvar_modules():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        undo.append((mod, name, orig))
        yield
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)


def _bootstrap_resamples(orig, args, kwargs) -> int:
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["resamples"])


# (module, target, layer, counter). layer is a metric prefix, or a callable
# of the call's arguments for spans named after their input. A counter maps
# (orig, args, kwargs, result) to {count name: amount}.
TARGETS = [
    ("regvar.models", "RegVarModel.sample", "models.sample",
     lambda o, a, k, r: {"models.sample_points": r.size}),
    ("regvar.radial", "OscillatingTailLaw.inverse_tail", "radial.inverse_tail", None),
    ("regvar.measures", "SpectralMeasure.quantile", "measures.quantile",
     lambda o, a, k, r: {"measures.quantile_calls": 1}),
    ("regvar.measures", "pushforward", "measures.calculus", None),
    ("regvar.measures", "reweight", "measures.calculus", None),
    ("regvar.measures", "expected_gain_reweight", "measures.calculus", None),
    ("regvar.measures", "moment_condition", "measures.calculus", None),
    ("regvar.measures", "distance_tv", "measures.distance", None),
    ("regvar.measures", "distance_ks", "measures.distance", None),
    ("regvar.batch", "SampleBatch.canonical", "batch.canonical", None),
    ("regvar.transforms", "spherical_map_apply", "transforms.map",
     lambda o, a, k, r: {"transforms.points_in": a[0].size}),
    ("regvar.transforms", "radial_scale_apply", "transforms.scale",
     lambda o, a, k, r: {"transforms.points_in": a[0].size}),
    ("regvar.transforms", "randomized_scale_apply", "transforms.scale",
     lambda o, a, k, r: {"transforms.points_in": a[0].size}),
    ("regvar.estimation", "estimate", "estimation.estimate", None),
    ("regvar.estimation", "hill_estimator", "estimation.hill", None),
    ("regvar.estimation", "bootstrap_alpha_ci", "estimation.bootstrap",
     lambda o, a, k, r: {"estimation.bootstrap_resamples":
                         _bootstrap_resamples(o, a, k)}),
    ("regvar.estimation", "empirical_spectral", "estimation.spectral", None),
    ("regvar.estimation", "tail_scan", "estimation.scan", None),
    ("regvar.cli", "write_csv", "cli.write_csv",
     lambda o, a, k, r: {"cli.write_bytes": os.path.getsize(a[0])}),
    ("regvar.cli", "read_csv", "cli.read_csv",
     lambda o, a, k, r: {"cli.read_bytes": os.path.getsize(a[0])}),
    ("regvar.scenarios", "run_scenario", lambda a: f"scenarios.{a[0].name}", None),
]

# every per-layer metric, with its unit, in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("models.sample_s", "s"), ("models.sample_points", "count"),
    ("radial.inverse_tail_s", "s"),
    ("measures.quantile_s", "s"), ("measures.quantile_calls", "count"),
    ("measures.calculus_s", "s"), ("measures.distance_s", "s"),
    ("batch.canonical_s", "s"),
    ("transforms.map_s", "s"), ("transforms.scale_s", "s"),
    ("transforms.points_in", "count"),
    ("estimation.estimate_s", "s"), ("estimation.hill_s", "s"),
    ("estimation.bootstrap_s", "s"), ("estimation.bootstrap_resamples", "count"),
    ("estimation.spectral_s", "s"), ("estimation.scan_s", "s"),
    ("cli.write_csv_s", "s"), ("cli.read_csv_s", "s"), ("cli.csv_mb", "MB"),
    ("cli.write_mb_per_s", "MB/s"), ("cli.read_mb_per_s", "MB/s"),
] + [(f"scenarios.{name}_s", "s") for name in SCENARIO_NAMES]


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, layer: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent])
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            stack.pop()

    def count(self, amounts: dict):
        with self._lock:
            for name, value in amounts.items():
                self.counts[name] += value

    def _wrapper(self, orig, target):
        _, _, layer, counter = target

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            with self.span(name):
                result = orig(*args, **kwargs)
            if counter is not None:
                self.count(counter(orig, args, kwargs, result))
            return result
        return traced

    def installed(self):
        """Context manager that wraps every TARGETS entry with a span."""
        return patched(TARGETS, self._wrapper)

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer over all recorded spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append(span)
        out: dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for _, c_start, c_end, _ in sorted(children[index], key=lambda s: s[1]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[layer] += (end - start) - covered
        return out

    def metrics(self, passes: int) -> dict[str, dict]:
        """Every per-layer metric, per pass; zero where the layer did not run."""
        times = self.self_times()
        values = {f"{layer}_s": t / passes for layer, t in times.items()}
        values.update({name: c / passes for name, c in self.counts.items()})
        write_mb = values.pop("cli.write_bytes", 0.0) / 1e6
        read_mb = values.pop("cli.read_bytes", 0.0) / 1e6
        write_s = values.get("cli.write_csv_s", 0.0)
        read_s = values.get("cli.read_csv_s", 0.0)
        values["cli.csv_mb"] = write_mb
        values["cli.write_mb_per_s"] = write_mb / write_s if write_s > 0 else 0.0
        values["cli.read_mb_per_s"] = read_mb / read_s if read_s > 0 else 0.0
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in LAYER_METRICS}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"layer": s[0], "start": s[1], "end": s[2],
                                  "parent": s[3]} for s in self.spans],
                       "counts": dict(self.counts)}, fh)
