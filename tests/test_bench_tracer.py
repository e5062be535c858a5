"""The benchmark's traced runs still find every function they wrap.

``pcfbench/tracing.py`` replaces module attributes by name (for one,
``pcfkit.scott.reduce``, whose span the ``denote`` workload sees only
through ``check_soundness``), so a library change that renames or drops
such a binding breaks ``--trace 1`` while the untraced run still passes.
Each test runs one short traced round in a child, about 0.3 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["reduce", "denote"])
def test_a_short_traced_run_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pcfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--short", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
