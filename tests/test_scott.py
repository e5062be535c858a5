"""Denotational interpreter: frozen values, laws, and the check harnesses."""

import random
from pathlib import Path

import pytest

from conftest import (
    collector_off, recursive_function, recursive_programs, shallow_stack,
)
from pcfkit import scott
from pcfkit.frontend import elaborate, parse
from pcfkit.lifting import BOT, leq, unit
from pcfkit.opsem import WrongType
from pcfkit.scott import (
    Func, Interpreter, Verdict, bottom_value, check_adequacy,
    check_semidecidability, check_soundness, denote, denote_base,
)
from pcfkit.syntax import (
    App, Arrow, Fix, Ifz, Iota, K, Pred, S, Succ, TypeMismatch, Zero,
    fold, numeral, random_term,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

ADD = (r"(fix \f:nat -> nat -> nat. \x:nat. \y:nat."
       r" ifz x (succ (f x (pred y))) y)")
MUL = (r"(fix \m:nat -> nat -> nat. \x:nat. \y:nat."
       r" ifz #0 (" + ADD + r" x (m x (pred y))) y)")
FIX_SUCC = App(Fix(Iota), Succ)
# fix (k 7): one unrolling then a k step; defined from fuel 1 up
CONST7 = App(Fix(Iota), App(K(Iota, Iota), numeral(7)))


def test_numerals_denote_themselves_at_zero_fuel():
    for n in (0, 1, 2, 7, 30, 100):
        assert denote_base(numeral(n), 0) == unit(n)


def test_numeral_denotation_survives_deep_spines():
    assert denote_base(numeral(5000), 0) == unit(5000)
    assert Interpreter().denote(numeral(20000), 0) == unit(20000)


def test_fix_succ_is_bottom_at_any_fuel():
    for fuel in (0, 1, 13, 50):
        assert denote_base(FIX_SUCC, fuel) == BOT


def test_ifz_takes_the_zero_branch():
    t = App(App(App(Ifz, numeral(9)), numeral(4)), numeral(0))
    assert denote_base(t, 0) == unit(9)


def test_ifz_takes_the_succ_branch_and_strictness():
    t = App(App(App(Ifz, numeral(9)), numeral(4)), numeral(3))
    assert denote_base(t, 0) == unit(4)
    stuck = App(App(App(Ifz, numeral(9)), numeral(4)), FIX_SUCC)
    assert denote_base(stuck, 8) == BOT


def test_pred_sends_zero_to_zero():
    assert denote_base(App(Pred, Zero), 0) == unit(0)
    assert denote_base(App(Pred, numeral(5)), 0) == unit(4)
    assert denote_base(App(Pred, FIX_SUCC), 4) == BOT


def test_fix_of_constant_function():
    assert denote_base(CONST7, 0) == BOT
    for fuel in (1, 2, 64):
        assert denote_base(CONST7, fuel) == unit(7)


def test_bottom_value_shapes():
    assert bottom_value(Iota) == BOT
    f = bottom_value(Arrow(Iota, Iota))
    assert f.apply(unit(3)) == BOT
    hi = bottom_value(Arrow(Arrow(Iota, Iota), Iota))
    assert hi.apply(f) == BOT


def test_bottom_value_of_a_deep_arrow_type():
    ty = Iota
    for _ in range(2000):
        ty = Arrow(Iota, ty)
    with shallow_stack():
        v = bottom_value(ty)
    for _ in range(2000):
        assert (v.tag, len(v.args)) == ("k", 1)
        v = v.args[0]
    assert v == BOT


def test_arrow_values_are_interned():
    ty = Arrow(Iota, Arrow(Iota, Iota))
    assert bottom_value(ty) is bottom_value(ty)
    assert bottom_value(ty) is Func("k", (bottom_value(Arrow(Iota, Iota)),))
    # k applied to equal arguments reached by different terms
    k3 = denote(App(K(Iota, Iota), numeral(3)), 0)
    assert denote(App(K(Iota, Iota), App(Pred, numeral(4))), 0) is k3
    assert Func("k", ()).apply(unit(3)) is k3


def test_a_dropped_value_leaves_the_pool_at_once():
    def build():
        return Func("k", (Func("k", (unit(4321),)),))

    with collector_off():
        before = len(Func._pool)
        f = build()
        assert len(Func._pool) == before + 2
        del f
        assert len(Func._pool) == before
        f = build()
        assert build() is f
        del f
        assert len(Func._pool) == before


def test_denote_rejects_ill_typed_terms():
    with pytest.raises(TypeMismatch):
        denote(App(Zero, Zero), 0)
    with pytest.raises(WrongType):
        denote_base(Succ, 0)


def test_interpreter_memoizes():
    interp = Interpreter()
    assert interp.denote(numeral(3), 0) is interp.denote(numeral(3), 0)
    # a term with a fix: the same (term, fuel) gives the same object
    with_fix = App(Succ, CONST7)
    for fuel in (0, 1, 5):
        v = interp.denote(with_fix, fuel)
        assert interp.denote(with_fix, fuel) is v
    # a term with no fix: one object for every fuel
    for t in (Zero, App(App(App(Ifz, numeral(2)), Zero), numeral(1))):
        assert interp.denote(t, 0) is interp.denote(t, 64)


def _subterms(t):
    """Each distinct subterm of t, mapped to whether a fix is below it."""
    memo = {}
    fold(t, lambda c: c.tag == "fix", lambda _x, f, a: f or a, memo)
    return memo


def _fuzz_terms(seed, count):
    rng = random.Random(seed)
    return [random_term(rng, Iota, depth=6) for _ in range(count)]


def _observe(v):
    """What a value shows: itself at base type, and at nat -> nat its
    results at bot and at eta 0..3."""
    if isinstance(v, Func):
        return tuple(v.apply(a) for a in (BOT, *map(unit, range(4))))
    return v


def _recursive_corpus():
    """Terms whose denotations commit past fuel 1: recursive programs,
    add and mul, and base-type fixes over a recursion."""
    rng = random.Random(88)
    sources = recursive_programs(rng, 60) + [
        f"{ADD} #2 #3", f"{ADD} #4 #17", f"{MUL} #2 #3", f"{MUL} #3 #2",
        rf"fix \z:nat. {ADD} #2 #3",
        rf"fix \z:nat. succ ({recursive_function(rng)} #12)",
    ]
    return [elaborate(parse(src)) for src in sources]


def test_shared_interpreter_agrees_with_fresh_ones():
    # one Interpreter per order, answering every (term, fuel) pair in
    # it; each answer must show what a fresh Interpreter gives
    rng = random.Random(89)
    terms = (_fuzz_terms(83, 40) + _fuzz_terms(84, 40) + _recursive_corpus()
             + [random_term(rng, Arrow(Iota, Iota), depth=5)
                for _ in range(30)])
    assert sum(any(_subterms(t).values()) for t in terms) >= 20
    fuels = range(65)
    want = {(t, f): _observe(denote(t, f)) for t in terms for f in fuels}
    least = [next((f for f in fuels if want[t, f].defined), None)
             for t in terms if t.ty is Iota]
    assert sum(f is not None and f >= 8 for f in least) >= 30
    pairs = list(want)
    interleaved = pairs[:]
    random.Random(85).shuffle(interleaved)
    for order in (sorted(pairs, key=lambda p: p[1]),
                  sorted(pairs, key=lambda p: -p[1]), interleaved):
        interp = Interpreter()
        for t, f in order:
            assert _observe(interp.denote(t, f)) == want[t, f], (t, f)


def test_cross_checks_pass_on_the_recursive_corpus():
    # fuel 64 lets each program's fix unroll as often as it recurses, so
    # every check commits; a denotation that unrolled fix fewer times
    # would turn these verdicts vacuous or inconclusive
    for src in recursive_programs(random.Random(11), 100):
        t = elaborate(parse(src))
        for v in (check_adequacy(t, 64, 10**6),
                  check_semidecidability(t, 64, 10**6),
                  check_soundness(t, 300, 64)):
            assert v.status == "ok", (src, v)


class _CountApply:
    """Counts the calls of scott._apply, the only place a value of an
    application is computed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        apply = scott._apply

        def counted(f, a):
            self.calls += 1
            return apply(f, a)

        monkeypatch.setattr(scott, "_apply", counted)


def test_fix_free_applications_are_applied_once(monkeypatch):
    counter = _CountApply(monkeypatch)
    terms = [t for t in _fuzz_terms(86, 60) if not any(_subterms(t).values())]
    assert len(terms) >= 10
    for t in terms:
        apps = sum(x.tag == "app" for x in _subterms(t))
        counter.calls = 0
        interp = Interpreter()
        for fuel in range(65):
            interp.denote_base(t, fuel)
        assert counter.calls == apps


def test_a_new_fuel_reapplies_only_what_is_above_fix(monkeypatch):
    counter = _CountApply(monkeypatch)
    add = elaborate(parse((SAMPLES / "add.pcf").read_text()))
    terms = [add] + [t for t in _fuzz_terms(87, 200)
                     if sum(x.tag == "fix" for x in _subterms(t)) == 1]
    assert len(terms) >= 10
    for t in terms:
        above_fix = sum(_subterms(t).values())
        interp = Interpreter()
        interp.denote_base(t, 0)
        for fuel in range(1, 65):
            counter.calls = 0
            interp.denote_base(t, fuel)
            assert counter.calls <= above_fix


def _base_fixes_only(t):
    """Whether t has a fix, and each of its fixes is at base type and
    applied to a function."""
    subs = _subterms(t)
    fixes = [x for x in subs if x.tag == "fix"]
    applied = not any(x.tag == "app" and x.arg.tag == "fix" for x in subs)
    return bool(fixes) and applied and all(
        x.params[0] is Iota for x in fixes)


def test_a_ladder_stops_applying_past_the_fixed_point(monkeypatch):
    # a chain of partial naturals repeats by its second iterate, so each
    # fix of these terms is shared from fuel 2 at the latest
    counter = _CountApply(monkeypatch)
    terms = [t for t in _fuzz_terms(92, 300) if _base_fixes_only(t)]
    assert len(terms) >= 10
    for t in terms:
        interp = Interpreter()
        for fuel in range(3):
            interp.denote_base(t, fuel)
        v = interp.denote_base(t, 2)
        for fuel in range(3, 65):
            counter.calls = 0
            assert interp.denote_base(t, fuel) is v
            assert counter.calls == 0


def test_a_ladder_calls_denote_at_every_fuel(monkeypatch):
    # a tracer that wraps Interpreter.denote sees one call per fuel, also
    # once the value is shared
    fuels, denote_ = [], Interpreter.denote

    def counted(self, t, fuel):
        fuels.append(fuel)
        return denote_(self, t, fuel)

    monkeypatch.setattr(Interpreter, "denote", counted)
    interp = Interpreter()
    values = [interp.denote_base(CONST7, fuel) for fuel in range(65)]
    assert fuels == list(range(65))
    assert all(v is values[2] for v in values[2:])


def test_arrow_values_are_monotone():
    # the value at bot is below the value at every numeral, at each fuel
    rng = random.Random(93)
    funcs = ([random_term(rng, Arrow(Iota, Iota), depth=5) for _ in range(60)]
             + [elaborate(parse(recursive_function(rng))) for _ in range(20)])
    for f in funcs:
        interp = Interpreter()
        for fuel in (0, 1, 8, 64):
            v = interp.denote(f, fuel)
            for n in range(6):
                assert leq(v.apply(BOT), v.apply(unit(n))), (f, fuel, n)


def test_k_equation_at_base():
    rng = random.Random(80)
    for _ in range(60):
        a = random_term(rng, Iota, depth=4)
        b = random_term(rng, Iota, depth=4)
        lhs = App(App(K(Iota, Iota), a), b)
        interp = Interpreter()
        assert interp.denote_base(lhs, 8) == interp.denote_base(a, 8)


def test_s_equation_at_base():
    rng = random.Random(81)
    for _ in range(60):
        f = random_term(rng, Arrow(Iota, Arrow(Iota, Iota)), depth=4)
        g = random_term(rng, Arrow(Iota, Iota), depth=4)
        x = random_term(rng, Iota, depth=3)
        lhs = App(App(App(S(Iota, Iota, Iota), f), g), x)
        rhs = App(App(f, x), App(g, x))
        interp = Interpreter()
        assert interp.denote_base(lhs, 8) == interp.denote_base(rhs, 8)


def test_equal_denotation_does_not_imply_interreduction():
    # both are normal forms, distinct as terms, and denote the same
    # constant-0 function on every observation we can make
    t1 = App(K(Iota, Iota), Zero)
    t2 = App(K(Iota, Iota), App(Pred, Zero))
    assert t1 is not t2
    assert t1.rule is None and t2.rule is None
    v1, v2 = denote(t1, 4), denote(t2, 4)
    for arg in [BOT] + [unit(n) for n in range(6)]:
        assert v1.apply(arg) == unit(0) == v2.apply(arg)


def test_fuel_monotonicity_fuzz():
    rng = random.Random(82)
    fuels = (0, 1, 2, 4, 8, 16, 32)
    interp = Interpreter()
    for _ in range(120):
        t = random_term(rng, Iota, depth=6)
        committed = None
        for f in fuels:
            v = interp.denote_base(t, f)
            if committed is None:
                committed = v.value
            elif v.defined:
                assert v.value == committed
            else:
                assert committed is None


class TestSoundness:
    def test_single_pred_step(self):
        v = check_soundness(App(Pred, numeral(1)), 10, 0)
        assert v.status == "ok" and v.value == 0

    def test_divergent_term_is_vacuous(self):
        assert check_soundness(FIX_SUCC, 100, 16).status == "vacuous"

    def test_unrolled_constant(self):
        v = check_soundness(CONST7, 50, 8)
        assert v.status == "ok" and v.value == 7

    def test_corpus(self):
        rng = random.Random(83)
        for _ in range(150):
            t = random_term(rng, Iota, depth=6)
            assert check_soundness(t, 600, 16).passed


class TestAdequacy:
    def test_numeral_is_immediate(self):
        v = check_adequacy(numeral(4), 0, 0)
        assert v.status == "ok" and v.value == 4

    def test_defined_fix(self):
        v = check_adequacy(CONST7, 5, 10)
        assert v.status == "ok" and v.value == 7

    def test_short_step_budget_is_inconclusive(self):
        v = check_adequacy(CONST7, 5, 1)
        assert v.status == "inconclusive" and v.passed

    def test_divergent_is_vacuous(self):
        assert check_adequacy(FIX_SUCC, 32, 200).status == "vacuous"

    def test_requires_base_type(self):
        with pytest.raises(WrongType):
            check_adequacy(Succ, 4, 10)

    def test_corpus(self):
        rng = random.Random(84)
        for _ in range(150):
            t = random_term(rng, Iota, depth=6)
            assert check_adequacy(t, 16, 4000).passed


class TestSemidecidability:
    def test_both_commit(self):
        v = check_semidecidability(numeral(3), 0, 0)
        assert v.status == "ok" and v.value == 3

    def test_both_diverge(self):
        v = check_semidecidability(FIX_SUCC, 32, 200)
        assert v.status == "inconclusive"
        assert "both sides" in v.detail

    def test_operational_budget_too_small(self):
        v = check_semidecidability(CONST7, 5, 1)
        assert v.status == "inconclusive"
        assert "denotation" in v.detail

    def test_denotational_budget_too_small(self):
        v = check_semidecidability(CONST7, 0, 10)
        assert v.status == "inconclusive"
        assert "operational" in v.detail

    def test_corpus(self):
        rng = random.Random(85)
        for _ in range(150):
            t = random_term(rng, Iota, depth=6)
            assert check_semidecidability(t, 16, 2000).passed


def test_verdicts_are_records():
    v = Verdict("inconclusive", detail="d")
    assert (v.status, v.value, v.detail, v.passed) == (
        "inconclusive", None, "d", True)
    planted = Verdict("violation", 0, "planted")
    assert (planted.value, planted.detail, planted.passed) == (
        0, "planted", False)
    assert Verdict("ok", 3) == Verdict(status="ok", value=3, detail="")
    assert hash(Verdict("ok", 3)) == hash(Verdict("ok", 3))
    assert Verdict("ok", 3) != Verdict("ok", 4)
    assert repr(Verdict("ok", 3)) == "Verdict(status='ok', value=3, detail='')"
    with pytest.raises(AttributeError):
        v.status = "ok"
