"""Every check of every verify scenario passes on seeds 0-99 at the default
n. Marked slow (about 40 s CPU), so tier-1 deselects it; run it with
`python -m pytest -m slow`. It prints how close each check with a
tolerance came to failing: its worst ratio over the seeds, value/tolerance
(tolerance/value for an at-least check), where 1 is the tolerance, or its
worst value when the tolerance is 0, and the number of seeds on which it
failed."""

import math
from collections import defaultdict

import pytest

from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario


def ratio(check) -> float:
    """How far toward its tolerance a check's value lies, 1 at the
    tolerance; at a zero tolerance the signed value, larger is worse."""
    if check.tolerance == 0:
        return -check.value if check.at_least else check.value
    over, under = ((check.tolerance, check.value) if check.at_least
                   else (check.value, check.tolerance))
    return over / under if under > 0 else math.inf


@pytest.mark.slow
def test_every_check_passes_on_seeds_0_to_99(capsys):
    seen = defaultdict(list)  # check -> (ratio, seed, check) over the seeds
    for name in SCENARIO_NAMES:
        for seed in range(100):
            for check in run_scenario(Scenario(name, seed=seed)).checks:
                if check.tolerance is not None:
                    seen[f"{name}.{check.name}"].append((ratio(check), seed, check))
    failures = [f"{key} seed {seed}: {check.value:.6g} against tolerance "
                f"{check.tolerance:g}"
                for key, runs in seen.items() for _, seed, check in runs
                if not check.passed]
    with capsys.disabled():
        print()
        for key, runs in seen.items():
            worst, seed, check = max(runs, key=lambda run: (run[0], -run[1]))
            closest = (f"value {check.value:.4g} at tolerance 0"
                       if check.tolerance == 0 else f"ratio {worst:.3f}")
            failed = sum(not c.passed for _, _, c in runs)
            print(f"{key:48s} worst {closest} (seed {seed}), "
                  f"{failed}/{len(runs)} seeds fail")
    assert not failures, "\n".join(failures)
