"""Denotational interpreter: frozen values, laws, and the check harnesses."""

import random
import time
from pathlib import Path

import pytest

from conftest import (
    ADD_SRC, MUL_SRC, _forget_values, _subterms, collector_off,
    recursive_function, recursive_programs, shallow_stack, small_terms,
)
from pcfkit import opsem, scott
from pcfkit.frontend import cli, elaborate, parse
from pcfkit.lifting import BOT, leq, unit
from pcfkit.opsem import WrongType, reaches_numeral
from pcfkit.scott import (
    Func, Interpreter, Verdict, bottom_value, check_adequacy,
    check_semidecidability, check_soundness, denote, denote_base,
)
from pcfkit.syntax import (
    App, Arrow, Fix, Ifz, Iota, K, Pred, RuleName, S, Succ, Term,
    TypeMismatch, Zero, fold, numeral, random_term,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

FIX_SUCC = App(Fix(Iota), Succ)
# fix (k 7): one unrolling then a k step; defined from fuel 1 up
CONST7 = App(Fix(Iota), App(K(Iota, Iota), numeral(7)))


def wrong_rule(monkeypatch, rule, wrong):
    """Make the engine contract App(f, a) by rule to wrong(f, a); it
    contracts every redex from its parts."""
    contract = opsem._contract
    monkeypatch.setattr(
        opsem, "_contract",
        lambda f, a, r: wrong(f, a) if r is rule else contract(f, a, r))


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
    assert repr(Func("k", ())) == "Func('k', ())"


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


def test_an_ill_typed_term_is_reported_alike_at_every_entry_point():
    # each names the offending application, not "got None"
    bad = App(Succ, App(Zero, Zero))
    calls = [
        lambda t: denote(t, 4), lambda t: denote_base(t, 4),
        lambda t: reaches_numeral(t, 10),
        lambda t: check_soundness(t, 10, 4),
        lambda t: check_adequacy(t, 4, 10),
        lambda t: check_semidecidability(t, 4, 10),
    ]
    for call in calls:
        with pytest.raises(TypeMismatch) as err:
            call(bad)
        assert err.value.subterm is App(Zero, Zero)


def test_a_non_base_term_is_refused_with_its_type():
    ident = elaborate(parse("\\x:nat. x"))
    with pytest.raises(WrongType) as err:
        reaches_numeral(ident, 10)
    assert str(err.value) == (
        "reaches_numeral needs a base-type term, got (arr iota iota)")
    with pytest.raises(WrongType) as err:
        denote_base(ident, 4)
    assert str(err.value) == (
        "denote_base needs a base-type term, got (arr iota iota)")


def test_a_negative_fuel_is_refused_at_once():
    # an arrow-type fix at fuel -1 would iterate -1, -2, ... for good,
    # and at fuel 2.5 count 1.5, 0.5, -0.5, ...; a fuel True would pass
    # for 1
    add = elaborate(parse((SAMPLES / "add.pcf").read_text()))
    three = numeral(3)
    denote(three, 0)  # its value is kept on the term: no walk below
    calls = [
        lambda n: denote(add, n), lambda n: denote_base(add, n),
        lambda n: denote(three, n), lambda n: denote_base(three, n),
        lambda n: Interpreter().denote_base(add, n),
        lambda n: check_soundness(add, 10, n),
        lambda n: check_adequacy(add, n, 10),
        lambda n: check_semidecidability(add, n, 10),
    ]
    start = time.perf_counter()
    for fuel, error in ((-1, ValueError), (2.5, TypeError), (True, TypeError)):
        for call in calls:
            with pytest.raises(error, match="fuel"):
                call(fuel)
    assert time.perf_counter() - start < 1


def test_values_kept_on_terms_keep_no_term_alive():
    # a value refers to no term, so a denoted term still dies with its
    # last outside reference
    with collector_off():
        before = len(Term._pool)
        deep = numeral(20000)
        fuzz = next(t for t in _fuzz_terms(95, 50)
                    if any(_subterms(t).values()))
        assert denote(deep, 0) == unit(20000)
        denote(fuzz, 16)
        assert deep.value is not None
        del deep, fuzz
        assert len(Term._pool) == before


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
        f"{ADD_SRC} #2 #3", f"{ADD_SRC} #4 #17", f"{MUL_SRC} #2 #3",
        f"{MUL_SRC} #3 #2",
        rf"fix \z:nat. {ADD_SRC} #2 #3",
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
    # each answer wanted is computed from no value kept on a term, so a
    # value wrongly kept there cannot sit on both sides
    subterms = {t: list(_subterms(t)) for t in terms}
    want = {}
    for t in terms:
        for f in fuels:
            _forget_values(subterms[t])
            want[t, f] = _observe(denote(t, f))
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


def test_add_commits_at_exactly_one_iterate_per_call():
    # add #x #k calls itself k times, so fix needs k + 1 iterates: an
    # arrow-type fix that unrolls one iterate too few or too many
    # commits one fuel late or early. Fuel k + 1 is asked first, so a
    # fix one iterate short fails there before fuel 0 can make its
    # count negative.
    for k in range(41):
        for x in (0, 2, 7):
            t = elaborate(parse(f"{ADD_SRC} #{x} #{k}"))
            interp = Interpreter()
            assert interp.denote_base(t, k + 1) == unit(x + k), (x, k)
            assert interp.denote_base(t, k) == BOT, (x, k)


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
    # a fix-free application keeps its value on the term, so over all
    # Interpreters and fuels it is applied once, by the first one
    counter = _CountApply(monkeypatch)
    terms = [t for t in _fuzz_terms(86, 60) if not any(_subterms(t).values())]
    assert len(terms) >= 10
    subterms = {x for t in terms for x in _subterms(t)}
    apps = sum(x.tag == "app" for x in subterms)
    _forget_values(subterms)
    for want in (apps, 0):
        counter.calls = 0
        for t in terms:
            for fuel in range(65):
                Interpreter().denote_base(t, fuel)
        assert counter.calls == want
    assert all(x.value is not None for x in subterms if x.tag == "app")


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
    # fix of these terms is kept on it from fuel 2 at the latest
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


def test_a_shared_subterm_is_not_applied_again(monkeypatch):
    # add's arrow-type fix never reaches a fixed point, so the term is
    # folded at each fuel; its base-type fix z. 7 is kept on the term
    # from fuel 2 at the latest (1 if k 7 was applied to 7 before), and
    # the fold of each higher fuel reads it there
    calls = []
    apply = scott._apply

    def recorded(f, a):
        calls.append(f)
        return apply(f, a)

    monkeypatch.setattr(scott, "_apply", recorded)
    t = elaborate(parse(rf"{ADD_SRC} (fix \z:nat. #7) #20"))
    interp = Interpreter()
    base_fixes = []  # per fuel, how often fix z. 7 was applied
    for fuel in range(41):
        del calls[:]
        v = interp.denote_base(t, fuel)
        assert v == (unit(27) if fuel > 20 else BOT), fuel
        base_fixes.append(
            sum(f.tag == "fix" and f.args[0] == BOT for f in calls))
    assert base_fixes[0] == 1 and base_fixes[3:] == [0] * 38


def test_a_ladder_calls_denote_at_every_fuel(monkeypatch):
    # a tracer that wraps Interpreter.denote sees one call per fuel, also
    # once the value is kept on the term
    fuels, denote_ = [], Interpreter.denote

    def counted(self, t, fuel):
        fuels.append(fuel)
        return denote_(self, t, fuel)

    monkeypatch.setattr(Interpreter, "denote", counted)
    interp = Interpreter()
    values = [interp.denote_base(CONST7, fuel) for fuel in range(65)]
    assert fuels == list(range(65))
    assert all(v is values[2] for v in values[2:])


def test_a_value_kept_on_the_term_serves_every_interpreter(monkeypatch):
    # a ladder over fix z. 7 keeps 7 on the term from the fuel where k 7
    # was found to send 7 to 7: 2, or 1 if k 7 was applied to 7 before.
    # From there on a fresh Interpreter reads it and applies nothing;
    # below it one folds, and at fuel 1 it finds the fixed point again
    # and lowers the fuel the value is kept from
    counter = _CountApply(monkeypatch)
    _forget_values(_subterms(CONST7))
    ladder = Interpreter()
    for fuel in range(65):
        ladder.denote_base(CONST7, fuel)
    since, v = CONST7.since, CONST7.value
    assert since in (1, 2) and v == unit(7)
    counter.calls = 0
    for fuel in range(since, 65):
        assert Interpreter().denote_base(CONST7, fuel) is v
    assert counter.calls == 0
    for fuel in reversed(range(since)):
        counter.calls = 0
        assert Interpreter().denote_base(CONST7, fuel) == (
            unit(7) if fuel else BOT)
        assert counter.calls > 0
    assert (CONST7.since, CONST7.value) == (1, v)


def test_a_ladder_keeps_the_answer_from_the_least_committing_fuel(
        monkeypatch):
    # add's arrow-type fix never reaches a fixed point, but its answer is
    # a defined natural: an ascending ladder keeps it on the term from
    # the least fuel that gives it, and from there on any Interpreter
    # reads it and applies nothing; below it one still folds to bot
    add = elaborate(parse((SAMPLES / "add.pcf").read_text()))
    _forget_values(_subterms(add))
    ladder = Interpreter()
    for fuel in range(65):
        ladder.denote_base(add, fuel)
    assert (add.since, add.value) == (2, unit(3))
    counter = _CountApply(monkeypatch)
    for fuel in range(2, 65):
        assert Interpreter().denote_base(add, fuel) is add.value
    assert counter.calls == 0
    for fuel in (1, 0):
        assert Interpreter().denote_base(add, fuel) == BOT
    assert add.since == 2


def test_kept_values_hold_from_their_fuel_on():
    # after ladders by several Interpreters, each in its own shuffled
    # order, the value kept on each subterm is what a fresh Interpreter
    # computes with no value kept below it, at the fuel it is kept from,
    # one above and at 64
    terms = _fuzz_terms(97, 60) + _recursive_corpus()
    subterms = {x for t in terms for x in _subterms(t)}
    _forget_values(subterms)
    rng = random.Random(98)
    for _ in range(3):
        order = [(t, f) for t in terms for f in range(65)]
        rng.shuffle(order)
        interp = Interpreter()
        for t, f in order:
            interp.denote(t, f)
    kept = {x: (x.since, x.value) for x in subterms if x.value is not None}
    assert sum(since > 0 for since, _ in kept.values()) >= 50
    for x, (since, v) in kept.items():
        below = _subterms(x)
        for fuel in (since, since + 1, 64):
            _forget_values(below)
            assert _observe(denote(x, fuel)) == _observe(v), (x, fuel)


def test_an_unrolled_chain_denotes():
    # run_bounded builds succ^3 (fix succ) through syntax._unroll, whose
    # terms past the first never go through App
    final, steps = opsem.run_bounded(FIX_SUCC, 3)
    assert steps == 3 and final.arg.arg.arg is FIX_SUCC
    assert denote_base(final, 3) == BOT


def test_logical_relation_at_arrow_type():
    # f : nat -> nat and an argument s: whenever f s denotes eta n, it
    # reduces to the numeral n, and applying f's value to s's gives
    # that same value (Plotkin's relation, read at arrow type)
    rng = random.Random(96)
    funcs = ([random_term(rng, Arrow(Iota, Iota), depth=5) for _ in range(60)]
             + [elaborate(parse(recursive_function(rng))) for _ in range(20)])
    args = ([numeral(n) for n in range(6)] + [FIX_SUCC]
            + [elaborate(parse(src)) for src in recursive_programs(rng, 4)])
    committed, at_bot = 0, 0
    for f in funcs:
        fv = denote(f, 64)
        for a in args:
            v = denote_base(App(f, a), 64)
            if v.defined:
                committed += 1
                at_bot += a is FIX_SUCC  # f is not strict
                assert reaches_numeral(App(f, a), 10**6) == v.value, (f, a)
                assert fv.apply(denote(a, 64)) == v, (f, a)
    assert committed >= 600 and at_bot >= 20


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
    # each term is denoted from fuel 32 down with no value kept below it,
    # as criterion 6 does: a defined natural is kept from the fuel that
    # found it, so an ascending walk would read it back at every higher
    # fuel and check nothing. Every fuel is asked, not only the powers of
    # two: a fix unrolled a wrong number of times can agree at those
    rng = random.Random(82)
    interp = Interpreter()
    for _ in range(120):
        t = random_term(rng, Iota, depth=6)
        _forget_values(_subterms(t))
        vals = [interp.denote_base(t, f) for f in range(32, -1, -1)]
        vals.reverse()
        first = next((f for f, v in enumerate(vals) if v.defined), None)
        if first is not None:
            assert all(v == vals[first] for v in vals[first:]), (t, first)


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

    def test_a_run_is_checked_to_its_end(self):
        # add #2 #400 takes 584,628 steps and mul #5 #5 6,808,981: the
        # check costs what the finished subterms cost, not the steps
        add = elaborate(parse(f"{ADD_SRC} #2 #400"))
        assert check_soundness(add, 600_000, 401) == Verdict("ok", 402)
        mul = elaborate(parse(f"{MUL_SRC} #5 #5"))
        assert check_soundness(mul, 10 ** 7, 21) == Verdict("ok", 25)

    @pytest.mark.parametrize("rule, wrong", [
        (RuleName.PredSucc, lambda f, a: a),       # pred (succ n) ~> succ n
        (RuleName.IfzZero, lambda f, a: f.arg),    # ifz s t 0 ~> t
    ], ids=["pred-succ", "ifz-zero"])
    def test_a_wrong_contraction_is_a_violation(self, monkeypatch, rule,
                                                wrong):
        wrong_rule(monkeypatch, rule, wrong)
        rng = random.Random(200)  # criterion 4's corpus
        found = [v for v in (check_soundness(random_term(rng, Iota, depth=6),
                                             2000, 32) for _ in range(200))
                 if v.status == "violation"]
        assert found and all(" ⇝* " in v.detail for v in found)


def test_a_wrong_contraction_fails_the_checks_and_the_cli(
        monkeypatch, capsys, tmp_path):
    # pred (succ n) ~> succ n: pred #1 denotes eta 0 and reaches 1
    wrong_rule(monkeypatch, RuleName.PredSucc, lambda f, a: a)
    t = App(Pred, numeral(1))
    for check in (check_adequacy, check_semidecidability):
        assert check(t, 8, 10) == Verdict(
            "violation", 0, "denotes eta 0 but 10 steps reach 1"), check
    src = tmp_path / "pred.pcf"
    src.write_text("pred #1\n", encoding="utf-8")
    for cmd in ("sound", "adequacy"):
        assert cli.main([cmd, str(src)]) == 4
        out, err = capsys.readouterr()
        assert out.startswith("VIOLATION ") and err == "", cmd


def test_a_looping_engine_is_a_violation(monkeypatch, capsys, tmp_path):
    # a k rule that gives back its own redex: the run of k #3 #0 meets
    # its start term again after one step, so no budget reaches a
    # numeral, while the term denotes eta 3
    wrong_rule(monkeypatch, RuleName.KRule, App)
    t = App(App(K(Iota, Iota), numeral(3)), numeral(0))
    for check in (check_adequacy, check_semidecidability):
        v = check(t, 0, 100)
        assert (v.status, v.value) == ("violation", 3), check
        assert v.detail.endswith("never reaches a numeral"), check
    src = tmp_path / "k.pcf"
    src.write_text("(\\x:nat. \\y:nat. x) #3 #0\n", encoding="utf-8")
    assert cli.main(["adequacy", str(src)]) == 4
    out, err = capsys.readouterr()
    assert out.startswith("VIOLATION ") and err == ""


@pytest.mark.parametrize("rule, wrong, violations", [
    (None, None, 0),
    (RuleName.PredSucc, lambda f, a: a, 100),       # pred (succ n) ~> succ n
    (RuleName.IfzZero, lambda f, a: f.arg, 10),     # ifz s t 0 ~> t
    (RuleName.KRule, App, 690),                     # k s t ~> k s t
], ids=["correct", "pred-succ", "ifz-zero", "looping-k"])
def test_semidecidability_is_adequacy_where_the_denotation_commits(
        monkeypatch, rule, wrong, violations):
    # the model is adequate, so where the denotation commits the two
    # procedures agree exactly when the run realizes it: the two checks
    # give one verdict there, under a wrong engine too
    if rule is not None:
        wrong_rule(monkeypatch, rule, wrong)
    terms = [t for n in range(1, 10) for t in small_terms(Iota, n)]
    assert len(terms) == 741
    found = 0
    for fuel, budget in ((0, 1), (8, 10), (32, 2000)):
        for t in terms:
            a = check_adequacy(t, fuel, budget)
            s = check_semidecidability(t, fuel, budget)
            if denote_base(t, fuel).defined:
                assert a == s, (t, fuel, budget)
            else:
                assert (a.status, s.status) == ("vacuous", "inconclusive")
            found += a.status == "violation"
    assert found == violations


def test_the_checks_run_through_the_module_name(monkeypatch):
    # pcfbench's tracer times the runs of the adequacy and
    # semidecidability checks by wrapping opsem.run_bounded, so they
    # must call it by that name
    calls = []
    run_bounded = opsem.run_bounded

    def counted(t, k, **kwargs):
        calls.append(kwargs)
        return run_bounded(t, k, **kwargs)

    monkeypatch.setattr(opsem, "run_bounded", counted)
    assert check_adequacy(CONST7, 5, 10) == Verdict("ok", 7)
    assert check_semidecidability(CONST7, 5, 10) == Verdict("ok", 7)
    assert calls == [{"numeral_only": True}] * 2


def test_a_step_budget_that_is_not_a_natural_is_refused():
    # check_adequacy(t, 8, -1) reported "-1 steps reach no numeral"; the
    # budget is refused before the denotation, so a vacuous term too
    calls = [
        lambda t, k: check_soundness(t, k, 8),
        lambda t, k: check_adequacy(t, 8, k),
        lambda t, k: check_semidecidability(t, 8, k),
    ]
    for k, error in ((-1, ValueError), (2.5, TypeError), (True, TypeError)):
        for t in (CONST7, FIX_SUCC):
            for call in calls:
                with pytest.raises(error, match="step budget"):
                    call(t, k)


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
        assert check_semidecidability(CONST7, 5, 1) == Verdict(
            "inconclusive", 7, "denotes eta 7 but 1 steps reach no numeral")

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
