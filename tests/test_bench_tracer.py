"""The benchmark's runs pass, traced and untraced.

``pcfbench/tracing.py`` replaces module attributes by name, so a library
change that renames or drops such a binding breaks ``--trace 1`` while
the untraced run still passes. One such binding is
``pcfkit.scott.reduce``: the ``denote`` workload's ``opsem.reduce`` span
comes only from ``check_soundness``'s ``reduce(s, 1)``, and both go when
the tracer's patch list changes (ROADMAP item 1). The untraced run is
the one whose metrics the benchmark compares, and it checks every
output. Each test runs one short round in a child: about 0.3 s for
``reduce`` and ``denote``, and for ``cli``, which replays ``pcf sound``
and the other subcommands, about 2.7 s untraced and 5.5 s traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pcfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--short", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", ["reduce", "denote", "cli"])
def test_a_short_traced_run_succeeds(workload):
    _short_run(workload, "1")


@pytest.mark.parametrize("workload", ["reduce", "denote", "cli"])
def test_a_short_untraced_run_succeeds(workload):
    _short_run(workload, "0")
