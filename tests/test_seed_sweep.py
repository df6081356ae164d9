"""Every check of every verify scenario passes on seeds 0-99 at the default
n. Marked slow (about 40 s CPU), so tier-1 deselects it; run it with
`python -m pytest -m slow`."""

import pytest

from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario


@pytest.mark.slow
def test_every_check_passes_on_seeds_0_to_99():
    failures = [f"{name}.{check.name} seed {seed}: {check.value:.6g} "
                f"against tolerance {check.tolerance:g}"
                for name in SCENARIO_NAMES for seed in range(100)
                for check in run_scenario(Scenario(name, seed=seed)).checks
                if not check.passed]
    assert not failures, "\n".join(failures)
