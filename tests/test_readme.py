"""The README's python code runs as written, its quickstart's distances
keep KS at or below TV, and its spec list names every spec kind."""

import re
from pathlib import Path

import regvar as rv
from regvar import specs

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


def test_readme_lists_every_spec_kind():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### JSON specs"):]
    section = section[:section.index("\n#")]
    missing = [kind for kinds in specs._KINDS.values() for kind in kinds
               if not re.search(rf"[`\"]{kind}[`\"]", section)]
    assert not missing, f"README's JSON specs list lacks {missing}"
