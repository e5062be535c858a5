"""The benchmark's own tests: every workload in its short mode, and the
output checks fed wrong answers.

    python3 -m pytest -q pcfbench

A short run is one round on small inputs, so a broken check, a broken
metric or a change in which operations fail shows in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Mismatch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# operations per round that fail today, each because of a named fault
KNOWN_FAILURES = {"reduce": 0, "denote": 1, "cli": 1}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "pcfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(KNOWN_FAILURES))
def test_short_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    rounds = 2 if trace else 1
    assert result["attempted"] % rounds == 0
    assert result["failed"] == KNOWN_FAILURES[workload] * rounds
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if m["unit"] in ("ms", "s", "MB", "1/s"):
            assert m["value"] > 0, name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pcfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "reduce", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    run.find_sources()

    class Args:
        seed = 5
        short = True

    context = run.Context(Args, tmp_path_factory.mktemp("children"))
    yield context
    context.children.close()


def outputs(workload):
    """(operation, output) for every operation that does not fail, each
    yielded before the next operation runs."""
    for op in workload.ops:
        try:
            out = op.run()
        except (RecursionError, workloads.ChildCrash):
            assert op.name in ("ladder samples/add.pcf",
                               "pcf eq deep deep_copy")
            continue
        yield op, out


def test_reduce_checks_reject_wrong_results(ctx):
    from pcfkit.syntax import App, Succ, Zero
    for op, (final, steps) in outputs(workloads.setup_reduce(ctx)):
        op.check((final, steps))
        with pytest.raises(Mismatch):
            op.check((App(Succ, final), steps))
        if final is not Zero:
            with pytest.raises(Mismatch):
                op.check((final, steps + 1) if "fix" in op.name
                         else (Zero, steps))


def test_denote_checks_reject_wrong_results(ctx):
    from pcfkit.lifting import unit
    from pcfkit.scott import Verdict
    for op, out in outputs(workloads.setup_denote(ctx)):
        op.check(out)
        if op.name.startswith("ladder"):
            first = next((i for i, v in enumerate(out) if v.defined), None)
            if first is None:
                continue
            if first < 64:
                with pytest.raises(Mismatch):  # not monotone
                    op.check(out[:-1] + [unit(out[first].value + 1)])
            with pytest.raises(Mismatch):      # not what reduction reaches
                op.check([unit(v.value + 1) if v.defined else v
                          for v in out])
        else:
            with pytest.raises(Mismatch):
                op.check(Verdict("violation", 0, "planted"))
            with pytest.raises(Mismatch):
                op.check(Verdict("ok", -1))


def test_cli_checks_reject_wrong_results(ctx, tmp_path):
    wrong = tmp_path / "stdout"
    for op, (code, path) in outputs(workloads.setup_cli(ctx)):
        op.check((code, path))
        with pytest.raises(Mismatch):
            op.check((3 - code, path))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        wrong.write_text("\n".join(lines[:-1] + ["1" + lines[-1]]) + "\n",
                         encoding="utf-8")
        with pytest.raises(Mismatch):
            op.check((code, str(wrong)))


def test_tail_has_ten_beyond():
    values = list(range(100))
    assert run.tail(values) == 89
    assert sum(v > run.tail(values) for v in values) == 10
