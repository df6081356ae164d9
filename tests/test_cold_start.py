"""What a fresh interpreter loads, checked in subprocesses.

regvar's runtime needs numpy alone: importing it, running every verify
scenario and sampling every model load no scipy module at all. The file
pipeline also loads neither `fractions` nor `decimal`. These checks run in
a new interpreter because the test process has already imported scipy,
the tests' oracle (pytest's `filterwarnings` setting names
`scipy.integrate.IntegrationWarning`).

On glibc, importing regvar keeps freed heap pages in the process, so a
stage that allocates what the last one freed faults no pages in afresh.
The fault counts are read in a new interpreter too, where nothing else
has touched the heap. Which C library gets the policy is checked in this
process, with os.confstr and ctypes.CDLL replaced.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import regvar

HEAVY = ["scipy.integrate", "scipy.special", "scipy.optimize", "scipy.stats",
         "scipy.linalg"]
# the CSV writer builds its scale factors from Python ints on first use;
# neither it nor the rest of the file pipeline needs these
EXACT = ["fractions", "decimal"]

# a density mass, a quadrature moment and a zeta series; run here and cold
ANALYTIC = """
from regvar.measures import SpectralMeasure, moment_condition, power_cusp_gain
from regvar.models import example2_moment
from regvar.sphere import ArcSet

values = [
    SpectralMeasure.cosine_bump(0.5).mass_on(ArcSet([(0.3, 2.5), (4.0, 5.0)])),
    moment_condition(SpectralMeasure.cosine_bump(0.5),
                     power_cusp_gain(3.0, 0.2), 1.0, 0.5),
    example2_moment(1.0, 0.5, 1.2, 0.05),
]
"""


# every scenario at a small size, and the accumulating-atom sampler
EVERYTHING = """
from regvar.models import Example2Model
from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario

for name in SCENARIO_NAMES:
    run_scenario(Scenario(name, n=20_000))
Example2Model(1.0, 0.5, 1.2).sample(20_000, seed=1)
"""


def _run_cold(code: str, cwd) -> dict:
    """Run code in a new interpreter; it prints one JSON line, returned."""
    env = dict(os.environ)
    src_dir = str(Path(regvar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(code: str, cwd, modules=HEAVY) -> list:
    out = _run_cold(code + f"""
import json, sys
print(json.dumps({{"loaded": [m for m in {modules!r} if m in sys.modules]}}))
""", cwd)
    return out["loaded"]


def test_import_leaves_scipy_submodules_unloaded(tmp_path):
    assert _loaded_after("import regvar, regvar.cli\n", tmp_path) == []


def test_file_pipeline_leaves_scipy_submodules_unloaded(tmp_path):
    model = {"kind": "polar_independent", "alpha": 1.5,
             "sigma": {"kind": "density", "dim": 2,
                       "density": {"name": "cosine_bump", "amplitude": 0.5}},
             "radial": {"kind": "pareto", "alpha": 1.5}}
    target = {"kind": "discrete", "dim": 2,
              "atoms": [{"angle": 0.25 * (2 * j + 1) * 3.141592653589793,
                         "weight": 0.25} for j in range(4)]}
    code = f"""
from regvar.cli import cli_main

argvs = [
    ["sample", "--model", {json.dumps(model)!r}, "-n", "20000",
     "--seed", "3", "-o", "x.csv"],
    ["transform", "--input", "x.csv", "--map", '{{"kind": "quadrant_snap"}}',
     "-o", "y.csv"],
    ["estimate", "--input", "y.csv", "--top", "0.01",
     "--target", {json.dumps(target)!r}, "-o", "report.json"],
]
for argv in argvs:
    assert cli_main(argv) == 0, argv
"""
    assert _loaded_after(code, tmp_path, HEAVY + EXACT) == []
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["k_used"] == 200 and set(report["distances"]) == {"tv", "ks"}


def test_scenarios_and_sampling_load_no_scipy(tmp_path):
    loaded = _run_cold(EVERYTHING + """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
""", tmp_path)
    assert loaded == []


def test_analytic_values_equal_from_cold_start(tmp_path):
    namespace = {}
    exec(ANALYTIC, namespace)
    warm = [repr(v) for v in namespace["values"]]
    cold = _run_cold(ANALYTIC + """
import json
print(json.dumps([repr(v) for v in values]))
""", tmp_path)
    assert all(isinstance(v, float) for v in namespace["values"])
    assert cold == warm


def test_import_builds_no_jacobi_rule(tmp_path):
    # the quadrature's Gauss-Jacobi rules are built per order on first use
    out = _run_cold("""
import json
import regvar, regvar.cli
from regvar.quadrature import _jacobi_rule
print(json.dumps({"rules": _jacobi_rule.cache_info().currsize}))
""", tmp_path)
    assert out["rules"] == 0


# minor page faults of a call, read in the interpreter that makes it
FAULTS = """
import resource

def faults(fn, *args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn(*args)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
"""

on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                              reason="the heap policy is set on glibc only")


@on_glibc
def test_second_verify_pass_faults_no_pages_in(tmp_path):
    # about 18 500 faults (75 MB of first-touch pages) with glibc's defaults
    out = _run_cold(FAULTS + """
import json
from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario

def suite():
    for name in SCENARIO_NAMES:
        run_scenario(Scenario(name, n=200_000))

suite()
print(json.dumps({"faults": faults(suite)}))
""", tmp_path)
    assert out["faults"] < 1_000


@on_glibc
def test_cli_sample_reuses_its_block_buffers(tmp_path):
    # about 131 000 faults with glibc's defaults: each 16 384-row block
    # formatted faulted its buffers in afresh
    model = {"kind": "polar_independent", "alpha": 1.5,
             "sigma": {"kind": "density", "dim": 2, "density": {"name": "uniform"}},
             "radial": {"kind": "pareto", "alpha": 1.5}}
    out = _run_cold(FAULTS + f"""
import contextlib, io, json
from regvar.cli import cli_main

with contextlib.redirect_stdout(io.StringIO()):
    count = faults(cli_main, ["sample", "--model", {json.dumps(model)!r},
                              "-n", "1048576", "--seed", "3", "-o", "x.csv"])
print(json.dumps({{"faults": count}}))
""", tmp_path)
    assert out["faults"] < 20_000


def _libc(result, calls):
    """A stand-in for ctypes.CDLL whose mallopt records its calls."""
    def mallopt(param, value):
        calls.append((param, value))
        return result
    return lambda name: SimpleNamespace(mallopt=mallopt)


def _unrecognized(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [None, _unrecognized, lambda name: None],
                         ids=["no-confstr", "unrecognized", "no-value"])
def test_heap_policy_leaves_other_c_libraries_alone(monkeypatch, confstr):
    calls = []
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", _libc(1, calls))
    regvar._keep_freed_heap()
    assert calls == []


@pytest.mark.parametrize("result, calls_made", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),
    # a refused mmap threshold (32-bit glibc) leaves the trim threshold too
    (0, [(-3, 32 << 20)]),
])
def test_heap_policy_sets_both_thresholds_or_neither(monkeypatch, result,
                                                     calls_made):
    calls = []
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", _libc(result, calls))
    regvar._keep_freed_heap()
    assert calls == calls_made
