"""Twelve end-to-end checks, one per promised property.

Each test exercises one numbered criterion at its stated size and time
budget, records a PASS/FAIL line, and asserts the property exactly (no
tolerance: every comparison is on exact values). The collected lines
print as a block at session end through the real stdout, so they stay
visible under pytest's capture.
"""

import random
import time
from pathlib import Path

from conftest import ACCEPTANCE_RESULTS, _forget_values, _subterms

from pcfkit.domain import (
    MonotoneMap, least_fixed_point, monotone_tables, random_dcpo,
)
from pcfkit.frontend import elaborate, parse
from pcfkit.lifting import BOT, kleisli, render, unit
from pcfkit.opsem import reaches_numeral, step, successors
from pcfkit.relations import (
    FiniteRelation, bfs_closure_oracle, decide_k_step, decide_reaches_within,
)
from pcfkit.scott import (
    Interpreter, check_adequacy, check_semidecidability, check_soundness,
    denote_base,
)
from pcfkit.syntax import (
    App, Fix, Iota, Pred, Succ, Zero, numeral, random_term, random_type,
)
from pcfkit.wtypes import TERM_SPEC, encode_term, w_equal

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def record(num, name, ok, elapsed, budget, extra=""):
    passed = ok and elapsed < budget
    detail = f"{elapsed:.2f}s of {budget:.0f}s" + (f"; {extra}" if extra else "")
    ACCEPTANCE_RESULTS.append((num, passed, name, detail))
    assert ok, f"criterion {num} ({name}) failed: {extra}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def base_corpus(seed, count, depth=6):
    rng = random.Random(seed)
    return [random_term(rng, Iota, depth=depth) for _ in range(count)]


def test_criterion_1_addition_example():
    t0 = time.perf_counter()
    t = elaborate(parse((SAMPLES / "add.pcf").read_text()))
    n = reaches_numeral(t, 10_000)
    v = denote_base(t, 10)
    record(1, "add #2 #1 computes 3 both ways", n == 3 and v == unit(3),
           time.perf_counter() - t0, 1.0,
           f"operational {n}, denotational {render(v)}")


def test_criterion_2_divergence():
    t0 = time.perf_counter()
    t = App(Fix(Iota), Succ)
    n = reaches_numeral(t, 10_000)
    v = denote_base(t, 100)
    record(2, "fix succ diverges both ways", n is None and v == BOT,
           time.perf_counter() - t0, 1.0,
           f"operational {n}, denotational {render(v)}")


def test_criterion_3_numerals_at_zero_fuel():
    t0 = time.perf_counter()
    ok = all(denote_base(numeral(n), 0) == unit(n) for n in range(101))
    record(3, "numerals denote themselves at fuel 0", ok,
           time.perf_counter() - t0, 1.0, "n <= 100")


def test_criterion_4_soundness_suite():
    t0 = time.perf_counter()
    committed = violations = 0
    for t in base_corpus(200, 1000):
        v = check_soundness(t, 2000, 32)
        committed += v.status == "ok"
        violations += v.status == "violation"
    record(4, "reduction preserves committed denotations", violations == 0,
           time.perf_counter() - t0, 60.0,
           f"1000 terms, {committed} committed, {violations} violations")


def test_criterion_5_adequacy_suite():
    t0 = time.perf_counter()
    committed = violations = 0
    for t in base_corpus(200, 1000):
        v = check_adequacy(t, 32, 10_000)
        committed += v.status == "ok"
        violations += v.status == "violation"
    record(5, "committed denotations are reached operationally",
           violations == 0, time.perf_counter() - t0, 60.0,
           f"1000 terms, {committed} committed, {violations} violations")


def test_criterion_6_fuel_monotonicity():
    # Checking stabilization between consecutive fuels covers every pair
    # F <= F' <= 64 by transitivity of equality. Each term is denoted
    # from fuel 64 down, with no value kept on its subterms: a value is
    # kept from a fuel on, so an ascending ladder would read back at the
    # higher fuels what it found at the lower one, and compute nothing.
    t0 = time.perf_counter()
    committed = violations = 0
    for t in base_corpus(201, 500, depth=5):
        _forget_values(_subterms(t))
        interp = Interpreter()
        vals = [interp.denote_base(t, fuel) for fuel in range(64, -1, -1)]
        vals.reverse()
        first = next((i for i, v in enumerate(vals) if v.defined), None)
        if first is None:
            continue
        committed += 1
        if any(v != vals[first] for v in vals[first:]):
            violations += 1
    record(6, "defined at fuel F stays fixed for all F' >= F",
           violations == 0, time.perf_counter() - t0, 60.0,
           f"500 terms, fuels 0..64, {committed} committed")


def _partial_fn(rng):
    a = rng.randrange(1, 7)
    b = rng.randrange(50)
    m = rng.randrange(2, 9)
    r = rng.randrange(m)
    def f(n):
        return BOT if n % m == r else unit((a * n + b) % 1000)
    return f


def test_criterion_7_kleisli_laws():
    t0 = time.perf_counter()
    rng = random.Random(202)
    fns = [_partial_fn(rng) for _ in range(100)]
    inputs = [BOT] + [unit(n) for n in range(50)]
    ok = all(kleisli(unit, l) == l for l in inputs)
    ok = ok and all(kleisli(f, unit(n)) == f(n)
                    for f in fns for n in range(50))
    for i, f in enumerate(fns):
        g = fns[(i + 1) % len(fns)]
        ok = ok and all(
            kleisli(g, kleisli(f, l)) ==
            kleisli(lambda x: kleisli(g, f(x)), l)
            for l in inputs)
    record(7, "kleisli unit, composition and associativity laws", ok,
           time.perf_counter() - t0, 5.0,
           "inputs bot and eta 0..49, 100 fuzzed partial maps")


def test_criterion_8_fixed_point_theorem():
    t0 = time.perf_counter()
    rng = random.Random(203)
    maps = bad = 0
    for _ in range(500):
        d = random_dcpo(rng, rng.randrange(1, 6))
        for table in monotone_tables(d, d):
            f = MonotoneMap(d, d, table)
            mu = least_fixed_point(f)
            if table[mu] != mu:
                bad += 1
            for x in range(d.size):
                if d.le(table[x], x) and not d.le(mu, x):
                    bad += 1
            maps += 1
    record(8, "least fixed points exist and are least prefixed", bad == 0,
           time.perf_counter() - t0, 60.0,
           f"500 dcpos, {maps} monotone endomaps")


def _random_single_valued(rng, n):
    edges = []
    for s in range(n):
        if rng.random() < 0.8:
            edges.append((s, rng.randrange(n)))
    return FiniteRelation(n, tuple(edges))


def test_criterion_9_k_step_closure():
    t0 = time.perf_counter()
    rng = random.Random(204)
    graphs = [_random_single_valued(rng, rng.randrange(1, 13))
              for _ in range(150)]
    graphs += [_random_single_valued(rng, rng.randrange(13, 51))
               for _ in range(50)]
    checks = bad = 0
    for g in graphs:
        fn = g.as_step_function()
        table = dict(g.edges)
        exhaustive = g.node_count <= 12
        for s in range(g.node_count):
            # the unique walk out of s, one position per step count
            pos = [s]
            for _ in range(60):
                pos.append(None if pos[-1] is None else table.get(pos[-1]))
            dist = {}
            for j, p in enumerate(pos):
                if p is not None and p not in dist:
                    dist[p] = j
            if dist != dict(bfs_closure_oracle(g, s)):
                bad += 1
            for t in range(g.node_count):
                if exhaustive:
                    ks = range(61)
                else:
                    ks = {0, 1, 60, rng.randrange(61)}
                    if t in dist:
                        d = dist[t]
                        ks |= {max(d - 1, 0), d, min(d + 1, 60)}
                for k in ks:
                    want_within = t in dist and dist[t] <= k
                    if decide_reaches_within(fn, s, t, k) != want_within:
                        bad += 1
                    if decide_k_step(fn, s, t, k) != (pos[k] == t):
                        bad += 1
                    checks += 2
    record(9, "closure procedures agree with breadth-first search",
           bad == 0, time.perf_counter() - t0, 30.0,
           f"200 graphs, {checks} decisions")


def test_criterion_10_single_valuedness():
    t0 = time.perf_counter()
    rng = random.Random(205)
    bad = 0
    for _ in range(10_000):
        t = random_term(rng, random_type(rng), depth=5)
        succs = successors(t)
        s = step(t)
        if len(succs) > 1:
            bad += 1
        elif s is None:
            bad += succs != []
        else:
            bad += len(succs) != 1 or succs[0] is not s.next
    record(10, "the step relation is single valued", bad == 0,
           time.perf_counter() - t0, 30.0, "10000 fuzzed terms")


def _mutate_zero(t):
    """Replace the leftmost zero leaf by pred zero; type preserving."""
    if t is Zero:
        return App(Pred, Zero)
    if t.tag == "app":
        f = _mutate_zero(t.fun)
        if f is not t.fun:
            return App(f, t.arg)
        a = _mutate_zero(t.arg)
        if a is not t.arg:
            return App(t.fun, a)
    return t


def test_criterion_11_w_type_equality():
    t0 = time.perf_counter()
    rng = random.Random(206)
    bad = 0
    for _ in range(10_000):
        ty = random_type(rng)
        t1 = random_term(rng, ty, depth=5)
        roll = rng.random()
        if roll < 0.4:
            t2 = t1
        elif roll < 0.7:
            t2 = _mutate_zero(t1)
        else:
            # same type, so the comparison is index-compatible
            t2 = random_term(rng, ty, depth=5)
        got = w_equal(TERM_SPEC, encode_term(t1), encode_term(t2))
        if got != (t1 is t2):
            bad += 1
    record(11, "tree-encoded equality matches structural equality",
           bad == 0, time.perf_counter() - t0, 30.0,
           "10000 pairs with near-miss mutations")


def test_criterion_12_semidecidability():
    t0 = time.perf_counter()
    both = violations = 0
    for t in base_corpus(207, 500):
        v = check_semidecidability(t, 32, 10_000)
        both += v.status == "ok"
        violations += v.status == "violation"
    record(12, "the two semi-decision procedures never disagree",
           violations == 0, time.perf_counter() - t0, 60.0,
           f"500 terms, {both} agreed commits, {violations} violations")
