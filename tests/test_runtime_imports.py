"""The serving runtime does not import the analyzer.

``repro.analysis`` is development tooling (the static analyzer and the
opt-in runtime sanitizer).  The runtime packages reach the one piece they
share with it, the write-after-publish tripwire, through
:mod:`repro.utils.publish`, so importing them must load no analyzer module.
This process already has the analyzer loaded (the rootdir conftest installs
its pytest plugin), so the check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def test_runtime_packages_load_no_analysis_module():
    code = (
        "import sys\n"
        "import repro.gateway, repro.serving, repro.parallel, repro.topk\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
