"""One-step reduction, the rule oracle, bounded reduction and its memo,
traces."""

import dis
import gc
import random
from pathlib import Path

import pytest

from conftest import (
    ADD_SRC, MUL_SRC, collector_off, engine_app_calls, small_terms,
)
from pcfkit import opsem, syntax
from pcfkit.frontend import cli, elaborate, parse
from pcfkit.opsem import (
    Step, StepRelation, WrongType, _run_pure, reaches_numeral, reduce,
    run_bounded, run_memo, step, successors,
)
from pcfkit.syntax import (
    CONGRUENCE_RULES, App, Arrow, Fix, Ifz, Iota, K, Pred, RuleName, S, Succ,
    Term, Zero, fold, numeral, random_term, random_type, type_of,
)

NN = Arrow(Iota, Iota)
FIX_SUCC = App(Fix(Iota), Succ)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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


def rules_on_path(t):
    """The congruence rules from t's root down to its redex, then the
    rule that contracts the redex."""
    rules = [t.rule]
    while rules[-1] in CONGRUENCE_RULES:
        t = t.fun if rules[-1] is RuleName.AppLeft else t.arg
        rules.append(t.rule)
    return rules


def test_successors_agree_with_step_on_every_schema():
    add = elaborate(parse((SAMPLES / "add.pcf").read_text()))
    final, trace, exhausted = reduce(add, 10000)
    assert final is numeral(3) and not exhausted
    s_nat = S(Iota, Iota, Iota)
    two = App(App(Ifz, numeral(7)), numeral(8))
    redexes = [
        App(Pred, Zero), App(two, numeral(2)),
        App(App(App(s_nat, App(K(NN, Iota), Succ)), Succ), Zero),
        App(Succ, App(Pred, numeral(1))), App(Pred, App(Pred, Zero)),
        App(two, App(Pred, Zero)),
        App(App(App(K(NN, Iota), Succ), Zero), Zero),
    ]
    seen = set()
    for u in [add] + [u for u, _ in trace] + redexes:
        s = step(u)
        assert successors(u) == ([] if s is None else [s.next])
        if s is not None:
            seen.update(rules_on_path(u))
    assert seen == set(RuleName)


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


def test_reaches_numeral_runs_through_the_module_name(monkeypatch):
    # pcfbench's tracer times the run inside reaches_numeral by wrapping
    # opsem.run_bounded, so reaches_numeral must call it by that name
    calls = []

    def counted(t, k, **kwargs):
        calls.append(kwargs)
        return run_bounded(t, k, **kwargs)

    monkeypatch.setattr(opsem, "run_bounded", counted)
    assert reaches_numeral(FIX_SUCC, 10 ** 6) is None
    assert reaches_numeral(App(Pred, numeral(1)), 1) == 0
    assert calls == [{"numeral_only": True}] * 2


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


def test_a_step_budget_that_is_not_a_natural_is_refused():
    # run_bounded(t, 2.5) took 3 steps, reaches_numeral(pred^3 #5, 2.5)
    # answered 2, and a budget True ran as 1
    t = App(Pred, App(Pred, App(Pred, numeral(5))))
    calls = [
        lambda k: run_bounded(t, k),
        lambda k: run_bounded(t, k, numeral_only=True),
        lambda k: run_memo(t, k), lambda k: reduce(t, k),
        lambda k: reaches_numeral(t, k),
    ]
    for k, error in ((-1, ValueError), (2.5, TypeError), (True, TypeError)):
        for call in calls:
            with pytest.raises(error, match="step budget"):
                call(k)


def test_run_memo_hands_over_the_pairs_of_its_run():
    # each entry c -> (nf, steps) is a pair c ~>* nf: the memo-free
    # reference takes exactly steps from c to the normal form nf
    terms = [(mul_term(3), 10_000), (mul_term(3), 5000),
             (elaborate(parse(f"{ADD_SRC} #3 #3")), 2000)]
    rng = random.Random(200)
    terms += [(random_term(rng, Iota, depth=6), 2000) for _ in range(50)]
    entries = 0
    for t, k in terms:
        final, steps, memo = run_memo(t, k)
        assert (final, steps) == run_bounded(t, k)
        for c, (nf, used) in memo.items():
            assert nf.rule is None and _run_pure(c, used) == (nf, used)
        entries += len(memo)
    assert entries > 500


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


# the f for which fix f ~> f (fix f) steps inside its argument
each_unrolling_f = pytest.mark.parametrize(
    "f", [Succ, Pred, App(App(Ifz, Zero), Zero)], ids=["succ", "pred", "ifz"])


@each_unrolling_f
def test_fix_unrolls_the_same_on_every_path(f):
    # fix f ~> f (fix f) steps inside its argument for these f, so n
    # steps give f^n (fix f); step by step, each reduct is also the one
    # successors derives
    t = App(Fix(Iota), f)
    want = t
    for n in range(21):
        final, trace, exhausted = reduce(t, n)
        assert final is want and len(trace) == n and exhausted
        assert run_bounded(t, n) == (want, n)
        assert _run_pure(t, n) == (want, n)
        assert successors(want) == [App(f, want)]
        want = App(f, want)
    want = t
    for _ in range(50_000):
        want = App(f, want)
    assert run_bounded(t, 50_000) == (want, 50_000)
    assert _run_pure(t, 50_000) == (want, 50_000)


@each_unrolling_f
def test_a_new_fix_chain_is_interned_at_every_level(f):
    # the run meets no term of the chain in the pool, so it builds all
    # 50,000 itself; each must be the term App gives for its parts
    t = App(Fix(Iota), f)
    with collector_off():
        before = len(Term._pool)
        final, steps = run_bounded(t, 50_000)
        assert steps == 50_000 and len(Term._pool) == before + 50_000
        rule = App(f, t).rule
        c = final
        for _ in range(50_000):
            assert App(c.fun, c.arg) is c and c.fun is f
            assert (c.ty, c.numeral, c.rule) == (Iota, None, rule)
            c = c.arg
        assert c is t
        assert run_bounded(t, 50_000) == (final, 50_000)
        assert _run_pure(t, 50_000) == (final, 50_000)
        assert len(Term._pool) == before + 50_000


@each_unrolling_f
def test_a_longer_fix_run_extends_the_chain_it_finds(f):
    # a chain a caller still holds is walked up, not built again: the
    # inner 100 levels of the 1,000-step run are the 100-step run's
    t = App(Fix(Iota), f)
    with collector_off():
        short, _ = run_bounded(t, 100)
        before = len(Term._pool)
        long, _ = run_bounded(t, 1_000)
        assert len(Term._pool) == before + 900
        c = long
        for _ in range(900):
            c = c.arg
        assert c is short


def test_a_new_fix_chain_costs_no_app_call_per_term(monkeypatch):
    # a counter that does not depend on the machine: unrolling makes
    # its first new term through App and the rest without a lookup
    calls, app = [0], syntax.App

    def counted(fun, arg):
        calls[0] += 1
        return app(fun, arg)

    monkeypatch.setattr(syntax, "App", counted)
    monkeypatch.setattr(opsem, "App", counted)
    with collector_off():
        before = len(Term._pool)
        final, _ = run_bounded(FIX_SUCC, 50_000)
        assert len(Term._pool) == before + 50_000
    assert calls[0] <= 2


@pytest.mark.parametrize("t, most", [
    (elaborate(parse(f"{ADD_SRC} #40 #40")), 2600),
    (mul_term(4), 2100),
], ids=["add 40 40", "mul 4 4"])
def test_a_run_builds_only_the_terms_it_keeps(t, most):
    # a counter that does not depend on the machine: an application the
    # run takes apart at once (the s rule's f t (g t), a spine a frame
    # pop or a memo splice gives) is held as its parts, not built; calls
    # are counted, not pool misses, which depend on what the pool holds
    with engine_app_calls() as calls:
        final, _ = run_bounded(t, 10 ** 6)
    assert final.numeral is not None
    assert calls[0] <= most


def test_the_step_path_reads_rule_constants():
    # on CPython 3.11 a RuleName.X read goes through EnumType's
    # __getattr__; the step path reads syntax's module constants instead
    constants = {
        "_PRED_ZERO": RuleName.PredZero, "_PRED_SUCC": RuleName.PredSucc,
        "_IFZ_ZERO": RuleName.IfzZero, "_IFZ_SUCC": RuleName.IfzSucc,
        "_K_RULE": RuleName.KRule, "_S_RULE": RuleName.SRule,
        "_FIX_RULE": RuleName.FixRule, "_APP_LEFT": RuleName.AppLeft,
        "_SUCC_ARG": RuleName.SuccArg, "_PRED_ARG": RuleName.PredArg,
        "_IFZ_SCRUT": RuleName.IfzScrut,
    }
    for name, member in constants.items():
        assert getattr(syntax, name) is member, name
    assert syntax._INTO_ARG == CONGRUENCE_RULES - {RuleName.AppLeft}
    for fn in (syntax._app_rule, syntax.App, syntax._unroll,
               opsem._contract, opsem._run_pure):
        reads = [i.opname for i in dis.get_instructions(fn)
                 if i.argval == "RuleName"]
        assert reads == [], fn.__name__


def fuzz_corpora():
    """The acceptance suites' corpora (seed 200 at depth 6, seed 201 at
    depth 5), base-type terms first, then as many of random types; each
    comes with the generator that drew it, for the draws that follow."""
    for seed, count, depth in ((200, 1000, 6), (201, 500, 5)):
        rng = random.Random(seed)
        terms = [random_term(rng, Iota, depth=depth) for _ in range(count)]
        terms += [random_term(rng, random_type(rng), depth=depth)
                  for _ in range(count)]
        yield rng, terms


def oracle_chain(t, n):
    """t and its first n reducts as successors derives them, fewer if a
    normal form comes first; this path never enters _run_pure."""
    chain = [t]
    while len(chain) <= n:
        nxt = successors(chain[-1])
        if not nxt:
            break
        chain.append(nxt[0])
    return chain


def test_runs_end_where_the_oracle_does():
    # every other multi-step test compares the engine with itself; this
    # one follows successors, which never enters _run_pure
    for _, terms in fuzz_corpora():
        for t in terms:
            chain = oracle_chain(t, 100)
            for k in (1, 7, 100):
                used = min(k, len(chain) - 1)
                assert run_bounded(t, k) == (chain[used], used), (t, k)


def contains_fix(t):
    return fold(t, lambda c: c.tag == "fix", lambda _x, f, a: f or a)


def test_fix_unrolls_like_the_oracle_in_context():
    # fix f ~> f (fix f) steps inside its argument for these f, and the
    # engine unrolls the rest of the budget in one loop; under a context,
    # and after the steps a fuzz term takes before it reaches such a
    # fix, every budget must still give the oracle's reduct
    two = App(App(Ifz, numeral(2)), App(Pred, numeral(1)))
    contexts = [
        lambda x: x, lambda x: App(Succ, x),
        lambda x: App(Pred, App(Pred, x)), lambda x: App(two, x),
        lambda x: App(App(K(Iota, Iota), x), Zero),
        # k □ zero at the head of a longer spine, reached by app-left
        lambda x: App(App(App(K(NN, Iota), App(K(Iota, Iota), x)), Zero),
                      Zero),
    ]
    terms = [c1(c2(App(Fix(Iota), f)))
             for f in (Succ, Pred, App(App(Ifz, Zero), numeral(1)))
             for c1 in contexts for c2 in contexts]
    rng = random.Random(200)
    fuzz = (random_term(rng, Iota, depth=6) for _ in range(1000))
    terms += [t for t in fuzz if contains_fix(t)][:150]
    for t in terms:
        chain = oracle_chain(t, 60)
        for k in range(61):
            used = min(k, len(chain) - 1)
            assert _run_pure(t, k) == (chain[used], used), (t, k)
            assert run_bounded(t, k) == (chain[used], used), (t, k)


def test_run_bounded_leaves_the_collector_as_it_found_it(monkeypatch):
    seen = []
    run_pure = opsem._run_pure

    def spy(t, max_steps, memo=None, *, numeral_only=False):
        seen.append(gc.isenabled())
        return run_pure(t, max_steps, memo, numeral_only=numeral_only)

    monkeypatch.setattr(opsem, "_run_pure", spy)
    assert gc.isenabled()
    assert run_bounded(FIX_SUCC, 3)[1] == 3
    assert gc.isenabled() and seen == [False]
    # step and reduce never pause it
    seen.clear()
    step(FIX_SUCC)
    reduce(FIX_SUCC, 2)
    assert seen == [True] * 3
    with collector_off():
        seen.clear()
        run_bounded(FIX_SUCC, 3)
        assert not gc.isenabled() and seen == [False]

    def interrupted(t, max_steps, memo=None, *, numeral_only=False):
        seen.append(gc.isenabled())
        raise KeyboardInterrupt

    monkeypatch.setattr(opsem, "_run_pure", interrupted)
    seen.clear()
    with pytest.raises(KeyboardInterrupt):
        run_bounded(FIX_SUCC, 3)
    assert gc.isenabled() and seen == [False]


def test_the_engine_makes_no_reference_cycle():
    # run_bounded pauses the cyclic collector on the premise that the
    # engine builds only acyclic data (terms, pool keys and weak
    # references, frames, memo entries), which reference counting alone
    # frees; a cycle would be left for the collector to find
    bench = [elaborate(parse(f"{ADD_SRC} #{n} #{n}")) for n in (10, 20, 40)]
    bench += [mul_term(3), FIX_SUCC]
    tower = numeral(300)
    for _ in range(300):
        tower = App(Pred, tower)
    bench.append(tower)
    corpora = [t for _, terms in fuzz_corpora() for t in terms]
    with collector_off():
        for t in corpora + bench:
            run_bounded(t, 3000)
        for t in bench:
            run_bounded(t, 50_000)
        assert gc.collect() == 0


def test_a_dropped_run_leaves_the_pool():
    with collector_off():
        before = len(Term._pool)
        final, _ = run_bounded(FIX_SUCC, 50_000)
        assert len(Term._pool) == before + 50_000
        del final
        assert len(Term._pool) == before


def assert_memo_exact(t, budget, want):
    """The memoized run of t at budget gives the reference (final, steps)."""
    final, steps = _run_pure(t, budget, {})
    assert final is want[0] and steps == want[1], (t, budget)


def test_memo_matches_the_reference_on_the_fuzz_corpora():
    # the reference at each budget continues the memo-free run from the
    # previous budget's reduct, because the relation is deterministic
    for rng, terms in fuzz_corpora():
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


def assert_numeral_only_runs_agree(cases):
    """Run each (term, budget) numeral-only and in full, and return how
    many numeral-only runs stopped early.

    A numeral-only run may stop early only where no budget reaches a
    numeral: the full run uses the whole budget and ends at a term that
    still steps, and a larger budget reaches no numeral either."""
    early = 0
    stopped = set()
    for t, k in cases:
        got = run_bounded(t, k, numeral_only=True)
        want = run_bounded(t, k)
        if got[0] is None:
            early += 1
            stopped.add(t)
            assert got[1] == want[1] == k, (t, k)
            assert want[0].rule is not None, (t, k)
        else:
            assert got == want, (t, k)
    for t in stopped:
        final, _ = run_bounded(t, 10 ** 5, numeral_only=True)
        assert final is None or final.numeral is None, t
    return early


def test_numeral_only_runs_agree_with_full_runs_on_the_fuzz_corpora():
    assert assert_numeral_only_runs_agree(
        (t, k) for rng, terms in fuzz_corpora() for t in terms
        for k in (0, 1, 2, 7, 100, 2000, 10_000, rng.randrange(3000))) > 1000


def test_numeral_only_runs_agree_with_full_runs_on_all_small_terms():
    assert [len(small_terms(Iota, n)) for n in range(1, 14)] == [
        1, 0, 4, 0, 14, 0, 106, 0, 616, 0, 4245, 0, 28820]
    terms = [t for n in range(1, 12, 2) for t in small_terms(Iota, n)]
    assert assert_numeral_only_runs_agree(
        (t, k) for t in terms for k in (0, 1, 2, 3, 10, 100)) == 5589


def test_a_numeral_only_run_stops_early_only_with_budget_left():
    # pred (fix pred) comes back to itself in one step, the fix step; at
    # budget 1 that step spends the budget, and the run returns what the
    # full run returns
    fix_pred = App(Fix(Iota), Pred)
    t = App(Pred, fix_pred)
    spent = (App(Pred, App(Pred, fix_pred)), 1)
    assert run_bounded(t, 1, numeral_only=True) == spent == run_bounded(t, 1)
    assert run_bounded(t, 2, numeral_only=True) == (None, 2)
    # k (fix succ) zero meets fix succ, which unrolls inside itself, after
    # the k step: with one step left it unrolls like the full run, and
    # with two it stops
    t = App(App(K(Iota, Iota), FIX_SUCC), Zero)
    spent = (App(Succ, FIX_SUCC), 2)
    assert run_bounded(t, 2, numeral_only=True) == spent == run_bounded(t, 2)
    assert run_bounded(t, 3, numeral_only=True) == (None, 3)


def test_a_focus_back_at_a_shallower_entry_stops_at_a_descent():
    # g (fix g), with g = k pred pred, steps to pred (fix g), and the fix
    # step inside it gives the pending pair (g, fix g) at depth 1: the
    # start term again, one depth down. The loop head compares it only
    # with depth 1's entry, fix g, so the run goes on to pred (fix g)
    # and stops when it enters fix g again, which takes a fourth step
    g = App(App(K(NN, NN), Pred), Pred)
    t = App(g, App(Fix(Iota), g))
    assert syntax.term_size(t) == 13
    assert run_bounded(t, 3, numeral_only=True) == run_bounded(t, 3)
    assert run_bounded(t, 3)[0].rule is not None
    assert run_bounded(t, 4, numeral_only=True) == (None, 4)


@pytest.mark.parametrize("src", [
    None,                                   # fix succ, built by hand
    r"fix \x:nat. pred x",
    r"fix \x:nat. ifz #0 #1 x",
    r"(fix \f:nat -> nat. f) #0",
    r"fix \x:nat. x",                      # closed at the root by k
    r"ifz (fix succ) #1 #0",                # fix succ reached by ifz
    r"(\x:nat. x) (fix \x:nat. x)",         # closed at a pending pair
    r"succ ((\x:nat. x) (fix \x:nat. x))",  # the same, at an entered child
])
def test_numeral_only_runs_stop_at_the_first_sign_of_divergence(src):
    t = FIX_SUCC if src is None else elaborate(parse(src))
    with engine_app_calls() as calls:
        assert run_bounded(t, 10 ** 6, numeral_only=True) == (None, 10 ** 6)
        assert reaches_numeral(t, 10 ** 6) is None
    assert calls[0] < 100
    with engine_app_calls() as calls:
        run_bounded(t, 2000)
    assert calls[0] >= 1000


def test_numeral_only_runs_miss_a_loop_whose_terms_grow():
    # each call g (succ n) is a new term, so no subterm repeats and the
    # run uses its whole budget, as the full run does
    t = elaborate(parse(r"(fix \g:nat -> nat. \n:nat. g (succ n)) #0"))
    final, steps = run_bounded(t, 2000, numeral_only=True)
    assert (final, steps) == run_bounded(t, 2000)
    assert steps == 2000 and final.rule is not None


@pytest.mark.parametrize("t, calls, steps", [
    (elaborate(parse(f"{ADD_SRC} #200 #200")), 11_461, 152_328),
    (mul_term(4), 1_837, 168_861),
    (mul_term(5), 3_423, 6_808_981),
], ids=["add 200 200", "mul 4 4", "mul 5 5"])
def test_numeral_only_runs_keep_the_result_of_a_long_run(t, calls, steps):
    # the full run's App calls and steps do not depend on the machine: a
    # change that only makes each step cheaper keeps both
    with engine_app_calls() as made:
        want = run_bounded(t, 10 ** 8)
    assert (made[0], want[1]) == (calls, steps)
    assert want[0].numeral is not None
    assert run_bounded(t, 10 ** 8, numeral_only=True) == want
