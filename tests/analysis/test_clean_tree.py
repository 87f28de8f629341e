"""The analyzer's one gate: the tree satisfies its own analyzer.

Every rule runs over each gated directory, waivers are audited, and the
result must be empty: every waiver in the tree names a known rule, carries
its justification and suppresses a real finding.  ``perfbench/`` is left
out: it changes only with the benchmark it defines.  The fixtures under
``tests/analysis/fixtures/`` end in ``.py.txt``, so the walk skips them.
"""

import pathlib

import pytest

from repro.analysis import analyze_project

ROOT = pathlib.Path(__file__).parents[2]


#: each gated directory -> the fewest files its walk may see.
GATED = {"src": 50, "benchmarks": 10, "tests": 50, "examples": 5}


@pytest.mark.parametrize("directory", GATED)
def test_tree_is_clean(directory):
    analysis = analyze_project([str(ROOT / directory)])
    assert analysis.n_files >= GATED[directory], "analyzer saw suspiciously few files"
    rendered = "\n".join(finding.render() for finding in analysis.findings)
    assert not analysis.findings, f"analyzer findings under {directory}/:\n{rendered}"
