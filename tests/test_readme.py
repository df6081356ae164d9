"""The README's python code runs as written, and its quickstart's distances
keep KS at or below TV."""

import re
from pathlib import Path

import regvar as rv

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_and_ks_stays_below_tv(capsys):
    blocks = readme_blocks()
    assert blocks
    scope = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), scope)
    assert capsys.readouterr().out
    report = scope["report"]
    assert report.distances["ks"] <= report.distances["tv"]
    # canonical() rounds the snapped angles one ulp off the target's atoms
    again = rv.estimate(scope["moved"].canonical(), 2000, target=scope["target"])
    assert again.distances["ks"] <= again.distances["tv"]
