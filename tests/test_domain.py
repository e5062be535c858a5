"""Finite poset and dcpo layer: constructors, suprema, exponentials, lfp."""

import itertools
import random

import pytest

from pcfkit.domain import (
    FiniteDcpoBot, FinitePoset, MonotoneMap, TooLarge, chain, check_directed,
    diamond, exponential, flat, least_fixed_point, lub, monotone_tables,
    preserves_directed_lubs, random_dcpo,
)

ANTICHAIN2 = FinitePoset([0b01, 0b10])


def iterate_from_bottom(d, table):
    x = d.bottom
    while table[x] != x:
        x = table[x]
    return x


class TestPosetLaws:
    def test_reflexivity_required(self):
        with pytest.raises(ValueError, match="reflexive"):
            FinitePoset([0])

    def test_antisymmetry_required(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            FinitePoset([0b11, 0b11])

    def test_transitivity_required(self):
        with pytest.raises(ValueError, match="transitive"):
            FinitePoset([0b011, 0b110, 0b100])

    def test_rows_must_be_bitmasks_of_the_carrier(self):
        for bad in ([0b01, 0b110], [-1, 0b10], [1, True], [1, 2.0], [[1]]):
            with pytest.raises(ValueError, match="bitmask"):
                FinitePoset(bad)

    def test_fixture_rows(self):
        assert chain(3).poset.rows == (0b111, 0b110, 0b100)
        assert flat(2).poset.rows == (0b111, 0b010, 0b100)
        assert diamond().poset.rows == (0b1111, 0b1010, 0b1100, 0b1000)

    def test_dcpo_needs_least_bottom(self):
        p = flat(2).poset
        with pytest.raises(ValueError, match="below every"):
            FiniteDcpoBot(p, 1)
        for bad in (7, False, 0.0):
            with pytest.raises(ValueError, match="carrier"):
                FiniteDcpoBot(p, bad)


class TestDirectedAndLub:
    def test_chain_is_directed(self):
        assert check_directed(chain(2).poset, {0, 1})

    def test_antichain_tops_are_not(self):
        assert not check_directed(flat(2).poset, {1, 2})

    def test_empty_subset_is_not_directed(self):
        assert not check_directed(diamond().poset, set())

    def test_bottom_pairs_are_directed(self):
        d = diamond()
        for x in range(d.size):
            assert check_directed(d.poset, {0, x})

    def test_full_carrier(self):
        assert check_directed(diamond().poset, {0, 1, 2, 3})
        assert not check_directed(flat(2).poset, {0, 1, 2})

    def test_lub_singleton(self):
        assert lub(chain(2).poset, {0}) == 0

    def test_lub_diamond_shoulders(self):
        assert lub(diamond().poset, {1, 2}) == 3

    def test_lub_missing(self):
        assert lub(ANTICHAIN2, {0, 1}) is None

    def test_elements_outside_the_carrier_are_refused(self):
        with pytest.raises(ValueError, match="outside carrier"):
            lub(chain(2).poset, [2])
        with pytest.raises(ValueError, match="outside carrier"):
            check_directed(chain(2).poset, [-1])


class TestMonotoneMap:
    def test_rejects_order_reversal(self):
        c = chain(2)
        with pytest.raises(ValueError, match="order preserving"):
            MonotoneMap(c, c, [1, 0])

    def test_rejects_bad_shape(self):
        c = chain(2)
        with pytest.raises(ValueError, match="length"):
            MonotoneMap(c, c, [0])
        for bad in ([0, 5], [0.0, 1], [False, True]):
            with pytest.raises(ValueError, match="outside target"):
                MonotoneMap(c, c, bad)

    def test_lookup(self):
        f = MonotoneMap(chain(3), chain(2), [0, 0, 1])
        assert f(0) == 0 and f(2) == 1


class TestExponential:
    def test_two_chains_give_three_maps(self):
        c = chain(2)
        e = exponential(c, c)
        assert e.tables == ((0, 0), (0, 1), (1, 1))
        assert e.size == 3
        assert e.le(0, 1) and e.le(1, 2) and not e.le(1, 0)
        assert e.bottom == 0

    def test_maps_from_a_point_copy_the_target(self):
        pt = chain(1)
        for tgt in (chain(3), diamond(), flat(2)):
            e = exponential(pt, tgt)
            assert e.tables == tuple((v,) for v in range(tgt.size))
            for i in range(tgt.size):
                for j in range(tgt.size):
                    assert e.le(i, j) == tgt.le(i, j)
            assert e.bottom == tgt.bottom

    def test_bottom_is_the_constant_bottom_map(self):
        d, tgt = diamond(), flat(2)
        e = exponential(d, tgt)
        assert e.tables[e.bottom] == (tgt.bottom,) * d.size

    def test_guard(self):
        with pytest.raises(TooLarge):
            exponential(chain(7), chain(10))
        # 7**7 candidates pass the first guard; 117,655 are monotone
        with pytest.raises(TooLarge, match="monotone"):
            exponential(flat(6), flat(6))

    def test_largest_flat_square_under_the_guard(self):
        # 0.6 s with the rows handed over; an m x m matrix on the way
        # would take about 18 s and 0.5 GB
        d = flat(5)
        e = exponential(d, d)
        assert e.size == 7781
        assert e.tables[e.bottom] == (d.bottom,) * d.size

    def test_order_is_pointwise_on_random_pairs(self):
        rng = random.Random(64)
        pool = [random_dcpo(rng, rng.randrange(1, 5)) for _ in range(30)]
        for _ in range(60):
            d, tgt = rng.choice(pool), rng.choice(pool)
            e = exponential(d, tgt)
            assert e.tables == tuple(monotone_tables(d, tgt))
            for i, f in enumerate(e.tables):
                for j, g in enumerate(e.tables):
                    pointwise = all(tgt.le(f[x], g[x]) for x in range(d.size))
                    assert e.le(i, j) == pointwise

    def test_valid_over_fixture_pairs(self):
        fixtures = [chain(1), chain(2), chain(3), chain(4), diamond(), flat(2)]
        for d in fixtures:
            for tgt in fixtures:
                e = exponential(d, tgt)
                assert e.tables[e.bottom] == (tgt.bottom,) * d.size

    def test_valid_over_random_pairs(self):
        # constructor invariants re-run on every exponential built here
        rng = random.Random(60)
        pool = [random_dcpo(rng, rng.randrange(1, 6)) for _ in range(40)]
        for _ in range(100):
            d, tgt = rng.choice(pool), rng.choice(pool)
            e = exponential(d, tgt)
            assert len(e.tables) == e.size
            assert e.tables[e.bottom] == (tgt.bottom,) * d.size


class TestLeastFixedPoint:
    def test_identity_fixes_bottom(self):
        for d in (chain(3), diamond(), flat(2)):
            f = MonotoneMap(d, d, list(range(d.size)))
            assert least_fixed_point(f) == d.bottom

    def test_constant_map(self):
        d = diamond()
        for c in range(d.size):
            f = MonotoneMap(d, d, [c] * d.size)
            assert least_fixed_point(f) == c

    def test_three_chain_picks_least_of_two_fixed_points(self):
        f = MonotoneMap(chain(3), chain(3), [1, 1, 2])
        assert least_fixed_point(f) == 1

    def test_rejects_non_endomap(self):
        f = MonotoneMap(chain(2), chain(3), [0, 2])
        with pytest.raises(ValueError, match="endomap"):
            least_fixed_point(f)

    def test_an_unchecked_map_that_cycles_stops(self):
        # _make skips the order check; from bottom the iteration cycles
        # 0 -> 1 -> 0, and it stops after size + 1 rounds
        f = MonotoneMap._make((chain(2), chain(2), (1, 0)))
        with pytest.raises(AssertionError, match="failed to stabilize"):
            least_fixed_point(f)

    def test_fixed_and_least_prefixed_on_corpus(self):
        rng = random.Random(61)
        for _ in range(60):
            d = random_dcpo(rng, rng.randrange(1, 6))
            for t in monotone_tables(d, d):
                f = MonotoneMap(d, d, t)
                mu = least_fixed_point(f)
                assert t[mu] == mu
                for x in range(d.size):
                    if d.le(t[x], x):
                        assert d.le(mu, x)

    def test_lfp_is_monotone_on_fixture_exponentials(self):
        for d in (chain(2), chain(3), diamond(), flat(2)):
            e = exponential(d, d)
            mus = [iterate_from_bottom(d, t) for t in e.tables]
            for i in range(e.size):
                for j in range(e.size):
                    if e.le(i, j):
                        assert d.le(mus[i], mus[j])


class TestSupPreservation:
    def test_preserving_tables_are_monotone(self):
        pairs = [
            (chain(2), chain(2)),
            (chain(3), chain(2)),
            (diamond(), chain(2)),
            (flat(2), diamond()),
        ]
        hits = 0
        for d, tgt in pairs:
            for t in itertools.product(range(tgt.size), repeat=d.size):
                if preserves_directed_lubs(d, tgt, t):
                    hits += 1
                    MonotoneMap(d, tgt, t)  # must not raise
        assert hits > 0

    def test_an_order_reversal_fails_preservation(self):
        assert not preserves_directed_lubs(chain(2), chain(2), (1, 0))

    def test_guard(self):
        with pytest.raises(TooLarge):
            preserves_directed_lubs(chain(13), chain(2), (0,) * 13)

    def test_a_short_table_is_refused(self):
        with pytest.raises(ValueError, match="table length"):
            preserves_directed_lubs(chain(3), chain(2), (0, 1))

    def test_a_long_table_is_refused(self):
        with pytest.raises(ValueError, match="table length"):
            preserves_directed_lubs(chain(2), chain(2), (0, 1, 1))


class TestCorpusGenerator:
    def test_shapes_and_determinism(self):
        draws = [random_dcpo(random.Random(62), s) for s in (1, 2, 3, 4, 5)]
        again = [random_dcpo(random.Random(62), s) for s in (1, 2, 3, 4, 5)]
        assert [d.poset for d in draws] == [d.poset for d in again]
        rng = random.Random(63)
        for _ in range(40):
            d = random_dcpo(rng, rng.randrange(1, 6))
            for x in range(d.size):
                assert d.le(d.bottom, x)

    def test_no_element_is_refused(self):
        # with no bottom to find, the rejection loop would draw for ever
        for size in (0, -1):
            with pytest.raises(ValueError, match="needs an element"):
                random_dcpo(random.Random(1), size)
