"""pcfkit's benchmark: one workload per run, every output checked.

    python3 pcfbench/run.py --workload {reduce,denote,cli} --seed N \\
        --seconds S --trace {0,1} [--short]

Run it from anywhere; it measures the pcfkit sources under ``src/`` of
the checkout it sits in, after building the optional compiled kernel in
place once. The workload is a closed loop: one operation at a time, in
whole rounds, as many as fill ``--seconds`` at the workload's nominal
round length. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``). The full record, with the engine
measured, is written to ``pcfbench/results/``; a traced run also writes
its spans there. ``--short`` runs one round on smaller inputs, for the
benchmark's tests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import Sampler, at_reference
from tracing import Tracer
from workloads import ROUND_S, SETUPS, Children, Mismatch

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "pcfbench" / "results"
BUILD = ROOT / ".bench_build"
SETUP_RUNS = 7           # set-ups per run; setup_s is their median


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one round on small inputs")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def find_sources():
    src = ROOT / "src"
    if not (src / "pcfkit" / "__init__.py").is_file():
        sys.exit(f"pcfbench: no pcfkit sources under {src}")
    sys.path.insert(0, str(src))


def build():
    """Build the optional compiled kernel in place, once per checkout.

    The extension is optional, so a failed build leaves the pure engine;
    opsem.engine_name() in the result says which engine ran.
    """
    stamp = BUILD / "pcfbench-built"
    if stamp.exists():
        return
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(BUILD / "temp")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, check=False)
    if proc.returncode:
        print(f"pcfbench: in-place build failed ({proc.returncode}):\n"
              f"{proc.stdout[-2000:]}", file=sys.stderr)
    stamp.write_text(str(proc.returncode), encoding="utf-8")


class Context:
    def __init__(self, args, tmp):
        self.root = ROOT
        self.results = RESULTS
        self.seed = args.seed
        self.short = args.short
        self.children = Children(ROOT, tmp)


def timed(fn):
    """fn() and the seconds it took at reference speed."""
    speed = Sampler()
    with speed:
        speed.sample()
        spent = speed.spent
        t0 = time.perf_counter_ns()
        out = fn()
        ns = time.perf_counter_ns() - t0 - (speed.spent - spent)
        speed.sample()
    return out, at_reference(ns, speed.samples) / 1e9


def child_setup_seconds(args):
    """Set-up time of a fresh process, from before pcfkit is imported, at
    reference speed."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def rounds(args):
    """Rounds in this run: --seconds over the workload's nominal round.

    A fixed number of rounds, not a deadline, so that two commits are
    measured on the same operations: the operations of a round differ
    in cost, and which of them holds op_tail_ms (the time with ten
    operations beyond it) depends on how many rounds were run.
    """
    if args.short:
        n = 1
    else:
        n = max(1, round(args.seconds / ROUND_S[args.workload]))
    return 2 * -(-n // 2) if args.trace else n


def tail(sorted_values):
    """The value with exactly ten values beyond it (the largest value
    when there are fewer, as in a short run)."""
    return sorted_values[-11 if len(sorted_values) > 10 else -1]


class Loop:
    """The closed loop: whole rounds of the workload's operations."""

    def __init__(self, workload, seed, tracer, children):
        from pcfkit import syntax
        self.w = workload
        self.children = children
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.pool = syntax.Term._pool
        # per operation: [ns, first speed sample, completed, traced]
        self.ops = []
        self.speed = Sampler()
        self.attempted = 0
        self.failures = Counter()
        self.mismatches = []
        self.pool_max = 0
        self.rounds = 0
        self.last_round = {}

    def run(self, rounds):
        with self.speed:
            while self.rounds < rounds:
                # a traced run alternates untraced and traced rounds
                self.round(self.tracer is not None and self.rounds % 2 == 1)
            self.speed.sample()

    def round(self, traced):
        tr = self.tracer
        order = list(self.w.ops)
        self.rng.shuffle(order)
        if traced:
            tr.install()
            tr.round.clear()
        clock = time.perf_counter_ns
        for op in order:
            op_id = self.attempted
            self.attempted += 1
            span = (tr.root("op " + op.name, op_id) if traced
                    else contextlib.nullcontext())
            speed = self.speed
            speed.sample()
            rec = [0, len(speed.samples) - 1, False, traced]
            self.ops.append(rec)
            try:
                with span:
                    spent = speed.spent
                    t0 = clock()
                    try:
                        out = op.run()
                    finally:
                        rec[0] = clock() - t0 - (speed.spent - spent)
            except Exception as exc:    # the operation failed; count it
                self.failures[f"{op.name}: {type(exc).__name__}"] += 1
                continue
            rec[2] = True
            self.pool_max = max(self.pool_max, len(self.pool))
            self.check(op.name, op.check, out)
            del out
            if traced and op.argv:
                self.replay(op)
        if traced:
            with tr.root("probe"):
                self.check("probe", self.w.probe, tr)
            with tr.root("frontend.cli_startup"):
                self.check("pcf --help", self.children.startup, None)
            self.last_round = dict(tr.round)
            tr.uninstall()
        self.rounds += 1

    def check(self, name, fn, out):
        try:
            fn(out)
        except Mismatch as exc:
            self.mismatches.append(f"{name}: {exc}")
        except Exception as exc:
            self.mismatches.append(f"{name}: check raised {exc!r}")

    def replay(self, op):
        """Run the same pcf command in this process, under the tracer,
        so that the child's work is split into layers."""
        from pcfkit.frontend import cli
        sink = io.StringIO()
        with self.tracer.root("replay " + op.name), \
                contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                cli.main(op.argv)
            except RecursionError:
                pass    # the child failed the same way and was counted

    def op_ns(self, scale=True):
        """[(ns, completed, traced)] per operation, at reference speed
        (scaled by the speed samples from just before the operation to
        just after it) or as measured."""
        out = []
        samples = self.speed.samples
        ends = [rec[1] for rec in self.ops[1:]] + [len(samples) - 1]
        for (ns, first, done, traced), last in zip(self.ops, ends):
            if scale:
                ns = at_reference(ns, samples[first:last + 1])
            out.append((ns, done, traced))
        return out

    def throughput(self, scale=True, traced=None):
        ops = [o for o in self.op_ns(scale)
               if traced is None or o[2] == traced]
        return sum(o[1] for o in ops) / (sum(o[0] for o in ops) / 1e9)

    def end_to_end(self, setups, scale=True):
        times = sorted(ns for ns, done, _ in self.op_ns(scale) if done)
        return {
            "ops_per_s": (self.throughput(scale), "1/s"),
            "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
            "op_tail_ms": (tail(times) / 1e6, "ms"),
            "peak_rss_mb": (self.w.peak_rss_kb() / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    def per_layer(self):
        tr = self.tracer
        selfs = tr.self_times()

        def mean_ms(span):
            calls, ns = selfs[span]
            return ns / calls / 1e6

        out = {}
        for span in ("syntax.term_to_sexp", "opsem.run_bounded",
                     "opsem.reduce", "scott.denote",
                     "scott.check_soundness", "scott.check_adequacy",
                     "scott.check_semidecidability", "frontend.parse",
                     "frontend.elaborate", "frontend.cli_startup",
                     "wtypes.encode_term", "wtypes.w_equal"):
            out[span + "_ms"] = (mean_ms(span), "ms")
        steps_ns = selfs["opsem.run_bounded"][1]
        plain = self.throughput(traced=False)
        traced = self.throughput(traced=True)
        out.update({
            "syntax.pool_size": (self.pool_max, "count"),
            "opsem.steps": (self.last_round.get("opsem.steps", 0), "count"),
            "opsem.steps_per_s": (tr.total["opsem.steps"] / (steps_ns / 1e9),
                                  "1/s"),
            "scott.denote_calls": (self.last_round.get("scott.denote_calls",
                                                       0), "count"),
            "scott.committed": (self.last_round.get("scott.committed", 0),
                                "count"),
            "frontend.elaborate_nodes": (self.w.elaborate_nodes, "count"),
            "trace.overhead_pct": ((plain / traced - 1) * 100, "%"),
        })
        return out


def main(argv=None):
    args = parse_args(argv)
    find_sources()
    # One CPU for this process and every child it starts, so that the
    # speed samples taken here come from the CPU a pcf child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    ctx = Context(args, tmp)
    try:
        return measure(args, ctx)
    finally:
        ctx.children.close()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, ctx):
    setup = SETUPS[args.workload]
    if args.setup_only:
        print(timed(lambda: setup(ctx))[1])
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        with tracer.root("setup"):
            workload, seconds = timed(lambda: setup(ctx))
        tracer.uninstall()
    else:
        workload, seconds = timed(lambda: setup(ctx))
    setups = [seconds]
    if not args.short and not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]

    from pcfkit import opsem
    loop = Loop(workload, args.seed, tracer, ctx.children)
    loop.run(rounds(args))

    failed = sum(loop.failures.values())
    metrics = loop.per_layer() if tracer else loop.end_to_end(setups)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "short": args.short,
        "engine": opsem.engine_name(), "python": sys.version.split()[0],
        "correct": not loop.mismatches, "attempted": loop.attempted,
        "failed": failed, "failures": dict(loop.failures),
        "mismatches": loop.mismatches[:50], "rounds": loop.rounds,
        "ops_per_round": len(workload.ops), "setup_runs": setups,
        "speed_samples": len(loop.speed.samples),
        "speed_ns_median": statistics.median(loop.speed.samples),
        "unscaled": {k: v for k, (v, _) in
                     loop.end_to_end(setups, scale=False).items()
                     if k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"spans-{name}.jsonl")
    print(f"engine {record['engine']}, {loop.rounds} rounds of "
          f"{len(workload.ops)} operations, failures {dict(loop.failures)}",
          file=sys.stderr)
    for line in loop.mismatches[:10]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
