"""Monad laws and the information order on partial naturals."""

import random

import pytest
from hypothesis import given, strategies as st

from pcfkit.lifting import BOT, PartialNat, fmap, kleisli, leq, render, unit


def partials(upto=200):
    return st.one_of(st.just(BOT),
                     st.integers(0, upto).map(unit))


def random_partial_fn(rng, spread=60):
    """A total map nat -> PartialNat as a closed-over table."""
    table = {}

    def f(n):
        if n not in table:
            table[n] = BOT if rng.random() < 0.3 else unit(rng.randrange(spread))
        return table[n]

    return f


def test_unit_is_defined():
    assert unit(0) == PartialNat(0)
    assert unit(7).defined
    for n in range(50):
        assert unit(n).defined
    # eta n is for a natural n only
    with pytest.raises(ValueError, match="natural"):
        unit(-1)
    with pytest.raises(TypeError, match="int"):
        unit(True)


def test_kleisli_on_bottom_and_unit():
    assert kleisli(lambda n: unit(n + 1), BOT) == BOT
    assert kleisli(lambda n: unit(n + 1), unit(4)) == unit(5)
    assert kleisli(lambda n: BOT, unit(4)) == BOT


def test_fmap_examples():
    assert fmap(lambda n: n + 1, unit(3)) == unit(4)
    assert fmap(lambda n: n + 1, BOT) == BOT


@given(partials())
def test_kleisli_law_unit_right(l):
    # extending the unit is the identity
    assert kleisli(unit, l) == l


def test_kleisli_law_unit_left_fuzzed():
    rng = random.Random(5)
    for _ in range(100):
        f = random_partial_fn(rng)
        for n in range(50):
            assert kleisli(f, unit(n)) == f(n)


def test_kleisli_law_associativity_fuzzed():
    rng = random.Random(6)
    for _ in range(100):
        f = random_partial_fn(rng)
        g = random_partial_fn(rng)
        for l in [BOT] + [unit(n) for n in range(50)]:
            lhs = kleisli(g, kleisli(f, l))
            rhs = kleisli(lambda x: kleisli(g, f(x)), l)
            assert lhs == rhs


def test_fmap_is_kleisli_of_unit_composed():
    rng = random.Random(7)
    for _ in range(50):
        shift = rng.randrange(10)
        g = lambda n, s=shift: n + s
        for l in [BOT] + [unit(n) for n in range(30)]:
            assert fmap(g, l) == kleisli(lambda n: unit(g(n)), l)


def test_order():
    assert leq(BOT, BOT)
    assert leq(BOT, unit(3))
    assert not leq(unit(3), BOT)
    assert leq(unit(3), unit(3))
    assert not leq(unit(3), unit(4))


def test_kleisli_monotone_in_argument():
    # exhaustive over {bot} + {eta n : n < 20}, as many f as we care to fuzz
    rng = random.Random(8)
    carrier = [BOT] + [unit(n) for n in range(20)]
    for _ in range(50):
        f = random_partial_fn(rng)
        for l in carrier:
            for m in carrier:
                if leq(l, m):
                    assert leq(kleisli(f, l), kleisli(f, m))


def test_render():
    assert render(BOT) == "bot"
    assert render(unit(12)) == "eta 12"
    assert (repr(unit(12)), repr(BOT)) == ("eta 12", "bot")
