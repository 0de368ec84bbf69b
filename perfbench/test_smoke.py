"""The benchmark's own test: ``python -m pytest perfbench``.

Runs ``run.py --smoke`` in a fresh process, as the benchmark always runs.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parents[1],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
