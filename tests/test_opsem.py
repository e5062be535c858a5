"""One-step reduction, the rule oracle, bounded reduction and its memo,
traces."""

import random

import pytest

from pcfkit import opsem
from pcfkit.frontend import cli, elaborate, parse
from pcfkit.opsem import (
    Step, StepRelation, WrongType, _run_pure, reaches_numeral, reduce,
    run_bounded, step, successors,
)
from pcfkit.rules import RuleName
from pcfkit.syntax import (
    App, Arrow, Fix, Ifz, Iota, K, Pred, S, Succ, Zero, numeral, random_term,
    random_type, type_of,
)

NN = Arrow(Iota, Iota)
FIX_SUCC = App(Fix(Iota), Succ)

# Addition and multiplication by recursion on the second argument, as in
# the benchmark; call-by-name makes mul n n blow up in n.
ADD_SRC = (r"(fix \f:nat -> nat -> nat. \x:nat. \y:nat."
           r" ifz x (succ (f x (pred y))) y)")
MUL_SRC = (r"(fix \m:nat -> nat -> nat. \x:nat. \y:nat."
           r" ifz #0 (" + ADD_SRC + r" x (m x (pred y))) y)")


def mul_term(n):
    return elaborate(parse(f"{MUL_SRC} #{n} #{n}"))


def test_pred_zero_steps_to_zero():
    assert step(App(Pred, Zero)) == Step(Zero, RuleName.PredZero)


def test_pred_succ():
    assert step(App(Pred, numeral(3))) == Step(numeral(2), RuleName.PredSucc)


def test_fix_unrolls():
    assert step(FIX_SUCC) == Step(App(Succ, FIX_SUCC), RuleName.FixRule)


def test_numerals_are_stuck():
    assert step(numeral(5)) is None
    assert step(Zero) is None


def test_ifz_rules():
    three_arg = lambda r: App(App(App(Ifz, numeral(9)), numeral(4)), r)
    assert step(three_arg(Zero)) == Step(numeral(9), RuleName.IfzZero)
    assert step(three_arg(numeral(2))) == Step(numeral(4), RuleName.IfzSucc)
    # non-numeral scrutinee reduces in place
    got = step(three_arg(App(Pred, numeral(1))))
    assert got == Step(three_arg(numeral(0)), RuleName.IfzScrut)


def test_k_discards_second_argument_immediately():
    t = App(App(K(Iota, Iota), Zero), App(Fix(Iota), Succ))
    assert step(t) == Step(Zero, RuleName.KRule)


def test_s_duplicates_argument():
    f = K(Iota, Iota)
    g = Succ
    t = App(App(App(S(Iota, Iota, Iota), f), g), Zero)
    assert step(t) == Step(App(App(f, Zero), App(g, Zero)), RuleName.SRule)


def test_partial_applications_are_stuck():
    # one-argument k, two-argument s and ifz never step, even when the
    # held argument has a redex inside
    redex = App(Pred, Zero)
    assert step(App(K(Iota, Iota), redex)) is None
    assert step(App(App(S(Iota, Iota, Iota), App(K(Iota, NN), Succ)),
                    App(K(Iota, Iota), Zero))) is None
    assert step(App(App(Ifz, redex), redex)) is None


def test_congruence_rules_fire():
    r = App(Pred, numeral(1))
    assert step(App(Succ, r)) == Step(App(Succ, numeral(0)), RuleName.SuccArg)
    assert step(App(Pred, r)) == Step(App(Pred, numeral(0)), RuleName.PredArg)
    two = App(App(Ifz, Zero), Zero)
    assert step(App(two, r)) == Step(App(two, numeral(0)), RuleName.IfzScrut)
    lhs = App(App(K(NN, Iota), Succ), Zero)      # steps by KRule to succ
    assert step(App(lhs, Zero)) == Step(App(Succ, Zero), RuleName.AppLeft)


def test_successors_examples():
    assert successors(App(Pred, Zero)) == [Zero]
    assert successors(numeral(3)) == []
    # only the k rule fires; there is no congruence into a general
    # application argument
    t = App(App(K(Iota, Iota), Zero), App(Pred, Zero))
    assert successors(t) == [Zero]


def test_successors_agree_with_step_fuzz():
    rng = random.Random(40)
    for _ in range(800):
        t = random_term(rng, random_type(rng), depth=7)
        succs = successors(t)
        assert len(succs) <= 1
        s = step(t)
        if s is None:
            assert succs == []
        else:
            assert succs == [s.next]


def test_subject_reduction_fuzz():
    rng = random.Random(41)
    for _ in range(300):
        t = random_term(rng, random_type(rng), depth=7)
        ty = type_of(t)
        cur = t
        for _ in range(60):
            s = step(cur)
            if s is None:
                break
            cur = s.next
            assert type_of(cur) is ty


def test_reduce_on_normal_form():
    assert reduce(numeral(3), 100) == (numeral(3), [], False)


def test_reduce_exhaustion_unrolls_fix():
    final, trace, exhausted = reduce(FIX_SUCC, 5)
    assert exhausted
    expect = FIX_SUCC
    for _ in range(5):
        expect = App(Succ, expect)
    assert final is expect
    # the first three entries match the diverging computation
    assert trace[0] == (App(Succ, FIX_SUCC), RuleName.FixRule)
    assert trace[1] == (App(Succ, App(Succ, FIX_SUCC)), RuleName.SuccArg)
    assert trace[2][1] is RuleName.SuccArg


def test_reduce_stops_at_normal_form():
    final, trace, exhausted = reduce(App(Pred, numeral(1)), 100)
    assert final is Zero
    assert trace == [(Zero, RuleName.PredSucc)]
    assert not exhausted


def test_reaches_numeral():
    assert reaches_numeral(App(Pred, numeral(1)), 1) == 0
    assert reaches_numeral(numeral(7), 0) == 7
    assert reaches_numeral(FIX_SUCC, 10_000) is None


def test_reaches_numeral_budget_matters():
    t = App(Pred, App(Pred, numeral(2)))
    assert reaches_numeral(t, 1) is None
    assert reaches_numeral(t, 2) == 0


def test_reaches_numeral_rejects_arrow_terms():
    with pytest.raises(WrongType):
        reaches_numeral(Succ, 10)


def test_normal_base_terms_are_numerals_or_stuck_nonnumerals():
    rng = random.Random(42)
    for _ in range(300):
        t = random_term(rng, Iota, depth=6)
        final, steps = run_bounded(t, 2000)
        if steps < 2000:
            assert step(final) is None


def test_run_bounded_agrees_with_reduce():
    rng = random.Random(44)
    for _ in range(200):
        t = random_term(rng, random_type(rng), depth=6)
        final, trace, _ = reduce(t, 50)
        fast, steps = run_bounded(t, 50)
        assert fast is final
        assert steps == len(trace)


def _trace_terms(t, budget):
    _, trace, _ = reduce(t, budget)
    return [u for u, _ in trace]


def test_closure_congruence_contexts():
    # whatever r' passes through, succ r' passes through succ of it;
    # same for pred, an ifz scrutinee, and the function side of an
    # application
    rng = random.Random(43)
    two = App(App(Ifz, Zero), numeral(1))
    for _ in range(60):
        r0 = random_term(rng, Iota, depth=5)
        inner = _trace_terms(r0, 40)
        budget = 40 + len(inner) + 5
        for wrap in (lambda x: App(Succ, x),
                     lambda x: App(Pred, x),
                     lambda x: App(two, x)):
            outer = _trace_terms(wrap(r0), budget)
            for r in inner:
                assert wrap(r) in outer
    for _ in range(60):
        f0 = random_term(rng, NN, depth=5)
        inner = _trace_terms(f0, 40)
        outer = _trace_terms(App(f0, Zero), 40 + len(inner) + 5)
        for f in inner:
            assert App(f, Zero) in outer


def test_step_relation_adapter():
    r = StepRelation()
    assert r.next(App(Pred, Zero)) is Zero
    assert r.next(numeral(2)) is None
    assert r.eq(numeral(2), numeral(2))
    assert not r.eq(numeral(2), numeral(3))


def assert_memo_exact(t, budget, want):
    """The memoized run of t at budget gives the reference (final, steps)."""
    final, steps = _run_pure(t, budget, {})
    assert final is want[0] and steps == want[1], (t, budget)


def test_memo_matches_the_reference_on_the_fuzz_corpora():
    # the acceptance suites' corpora (seed 200 at depth 6, seed 201 at
    # depth 5), base-type terms first, then as many of random types; the
    # reference at each budget continues the memo-free run from the
    # previous budget's reduct, because the relation is deterministic
    for seed, count, depth in ((200, 1000, 6), (201, 500, 5)):
        rng = random.Random(seed)
        terms = [random_term(rng, Iota, depth=depth) for _ in range(count)]
        terms += [random_term(rng, random_type(rng), depth=depth)
                  for _ in range(count)]
        for t in terms:
            budgets = sorted({0, 1, 7, 100, 2000, rng.randrange(3000)})
            cur, used, prev = t, 0, 0
            for k in budgets:
                cur, more = _run_pure(cur, k - prev)
                used, prev = used + more, k
                assert_memo_exact(t, k, (cur, used))


def test_memo_matches_the_reference_around_the_step_count():
    # k + 1 steps reach the step of the k-th reduct, so one memo-free run
    # and a chain of steps give the reference at every budget
    t = mul_term(3)
    final, used = _run_pure(t, 7480)
    for k in range(7480, 7501):
        assert_memo_exact(t, k, (final, used))
        s = step(final)
        if s is not None:
            final, used = s.next, used + 1
    assert final is numeral(9) and used == 7494
    t = mul_term(4)
    final, used = _run_pure(t, 168_860)
    assert_memo_exact(t, 168_860, (final, used))
    assert_memo_exact(t, 168_861, (step(final).next, used + 1))
    assert step(final).next is numeral(16)


@pytest.mark.skipif(opsem.engine_name() != "pure",
                    reason="the compiled kernel runs without the memo")
def test_memo_is_exact_at_scale(capsys, tmp_path):
    t = mul_term(5)
    final, steps = run_bounded(t, 10 ** 8)
    assert final is numeral(25) and steps == 6_808_981
    final, steps = run_bounded(t, 6_808_980)
    assert final.numeral is None and steps == 6_808_980
    src = tmp_path / "mul.pcf"
    src.write_text(f"{MUL_SRC} #5 #5\n", encoding="utf-8")
    code = cli.main(["run", str(src), "--max-steps", "10000000"])
    assert (code, capsys.readouterr().out) == (0, "25\n")
