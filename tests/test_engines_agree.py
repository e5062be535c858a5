"""The compiled kernel must be observationally identical to the pure
engine: same final term (pointer-identical after decode, since terms
are interned) and same step count, on every budget.

The kernel tests skip when the extension was not built; the arena
round trip is pure Python and always runs.
"""

import random

import pytest

from pcfkit import arena, opsem
from pcfkit.syntax import (
    App, Arrow, Fix, Iota, K, Pred, S, Succ, Zero, numeral, random_term,
    random_type,
)

needs_kernel = pytest.mark.skipif(opsem._kernel is None,
                                  reason="compiled kernel not built")


def both(t, max_steps):
    got = opsem._run_compiled(t, max_steps)
    want = opsem._run_pure(t, max_steps)
    assert got[0] is want[0], (t, max_steps, got[0], want[0])
    assert got[1] == want[1]
    return got


@needs_kernel
def test_contraction_schemas():
    fin, steps = both(App(Pred, App(Succ, Zero)), 100)
    assert fin is Zero and steps == 1
    # k zero (pred zero): argument positions never block k
    kzp = App(App(K(Iota, Iota), Zero), App(Pred, Zero))
    assert both(kzp, 100) == (Zero, 1)
    nn = Arrow(Iota, Iota)
    skk = App(App(App(S(Iota, nn, Iota), K(Iota, nn)), K(Iota, Iota)),
              numeral(3))
    fin, steps = both(skk, 100)
    assert fin is numeral(3) and steps == 2


@needs_kernel
def test_budget_edges_on_divergence():
    fs = App(Fix(Iota), Succ)
    for budget in (0, 1, 2, 7, 100):
        fin, steps = both(fs, budget)
        assert steps == budget
    assert both(fs, 0)[0] is fs


@needs_kernel
def test_deep_unrolling_decodes():
    fs = App(Fix(Iota), Succ)
    fin, steps = both(fs, 3000)
    assert steps == 3000


@needs_kernel
def test_normalizing_under_budget():
    t = App(Pred, numeral(50))
    fin, steps = both(t, 10_000)
    assert fin is numeral(49) and steps == 1


@needs_kernel
def test_fuzz_agreement():
    rng = random.Random(110)
    for _ in range(300):
        t = random_term(rng, random_type(rng), depth=7)
        for budget in (0, 1, 7, 60):
            both(t, budget)


def test_roundtrip_is_identity():
    rng = random.Random(111)
    terms = [random_term(rng, random_type(rng), depth=7) for _ in range(200)]
    for t in terms + [numeral(20000)]:
        enc = arena.encode(t)
        assert arena.decode(enc, enc.root) is t


@needs_kernel
def test_run_bounded_dispatches_to_kernel():
    assert opsem.engine_name() == "compiled"
    fs = App(Fix(Iota), Succ)
    assert opsem.run_bounded(fs, 500)[1] == 500
