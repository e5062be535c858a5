"""Finite poset and dcpo layer: constructors, suprema, exponentials, lfp."""

import hashlib
import itertools
import random

import pytest

from pcfkit.domain import (
    FiniteDcpoBot, FinitePoset, MonotoneMap, TooLarge, chain, check_directed,
    diamond, exponential, flat, least_fixed_point, lub, monotone_tables,
    preserves_directed_lubs, random_dcpo,
)

ANTICHAIN2 = FinitePoset([0b01, 0b10])
FIXTURES = [chain(1), chain(2), chain(3), chain(4), diamond(), flat(2), flat(3)]


def crown(k):
    """Bottom 0 under k pairwise-incomparable points, all under a top."""
    top = k + 1
    rows = [(1 << k + 2) - 1] + [1 << i | 1 << top for i in range(1, top)]
    return FiniteDcpoBot(FinitePoset(rows + [1 << top]), 0)


def generate_and_test(d, tgt):
    """The monotone tables d -> tgt, lexicographically: every candidate
    table, kept when it is pointwise monotone."""
    pairs = [(x, y) for x in range(d.size) for y in range(d.size)
             if d.le(x, y)]
    return tuple(t for t in itertools.product(range(tgt.size), repeat=d.size)
                 if all(tgt.le(t[x], t[y]) for x, y in pairs))


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
        # 0 and 1 also break antisymmetry; transitivity is checked first
        with pytest.raises(ValueError, match="transitive"):
            FinitePoset([0b011, 0b111, 0b100])

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
        # an element is an int index, and a bool is not one
        p = chain(2).poset
        for bad in ([True], [True, 0], [1, True], [1.0], ["0"]):
            with pytest.raises(ValueError, match="outside carrier"):
                lub(p, bad)
            with pytest.raises(ValueError, match="outside carrier"):
                check_directed(p, bad)


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
        # 10**7 candidates; its 11,440 monotone tables pass the other guard
        with pytest.raises(TooLarge, match="candidate"):
            exponential(chain(7), chain(10))
        # 3**16 candidates, refused before the search meets a dead end
        with pytest.raises(TooLarge, match="candidate"):
            exponential(crown(14), flat(2))
        # 7**7 candidates pass the first guard; 117,655 are monotone
        with pytest.raises(TooLarge, match="monotone"):
            exponential(flat(6), flat(6))

    def test_largest_flat_square_under_the_guard(self):
        # built in about 0.03 s from per-argument columns, and its laws
        # proved again here in about 0.12 s; an m x m matrix on the way
        # would take about 18 s and 0.5 GB
        d = flat(5)
        e = exponential(d, d)
        assert e.size == 7781
        assert e.tables[e.bottom] == (d.bottom,) * d.size
        assert FinitePoset(e.poset.rows) == e.poset

    def test_order_is_pointwise_on_random_pairs(self):
        rng = random.Random(64)
        pool = [random_dcpo(rng, rng.randrange(1, 5)) for _ in range(30)]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
        pairs += [(d, tgt) for d in FIXTURES for tgt in FIXTURES]
        for d, tgt in pairs:
            e = exponential(d, tgt)
            assert e.tables == tuple(monotone_tables(d, tgt))
            assert e.tables == generate_and_test(d, tgt)
            for i, f in enumerate(e.tables):
                for j, g in enumerate(e.tables):
                    pointwise = all(tgt.le(f[x], g[x]) for x in range(d.size))
                    assert e.le(i, j) == pointwise

    def test_valid_over_fixture_pairs(self):
        for d in FIXTURES:
            for tgt in FIXTURES:
                e = exponential(d, tgt)
                assert e.tables[e.bottom] == (tgt.bottom,) * d.size
                assert FinitePoset(e.poset.rows) == e.poset

    def test_fixture_pairs_are_pinned(self):
        # sha256 of every fixture pair's rows, bottom and tables, as
        # computed when the rows became the only form of an order
        h = hashlib.sha256()
        for d in FIXTURES:
            for tgt in FIXTURES:
                e = exponential(d, tgt)
                h.update(repr((e.poset.rows, e.bottom, e.tables)).encode())
        assert h.hexdigest() == (
            "19b16fd85f042f916e316a6593dade9759a973fad6ccfda46ce427e50538a42f")

    def test_a_dense_pair_is_pinned(self):
        # 1,716 tables whose pointwise order has many edges; the sha256
        # of its rows, bottom and tables, as computed when FinitePoset
        # still checked the rows of every exponential
        e = exponential(chain(6), chain(8))
        assert e.size == 1716
        digest = hashlib.sha256(
            repr((e.poset.rows, e.bottom, e.tables)).encode()).hexdigest()
        assert digest == (
            "a0daf498b800a7687a4a8c07106975514b89ea89ba4a88adc77901fd1bf9556b")
        assert FinitePoset(e.poset.rows) == e.poset

    def test_a_wide_source_into_a_point(self):
        # one candidate at any width: a search that recursed per element
        # would pass the recursion limit here
        e = exponential(flat(1100), chain(1))
        assert e.tables == ((0,) * 1101,)
        assert e.poset.rows == (1,)

    def test_valid_over_random_pairs(self):
        # exponential does not check its rows; FinitePoset proves the
        # poset laws of every exponential built here
        rng = random.Random(60)
        pool = [random_dcpo(rng, rng.randrange(1, 6)) for _ in range(40)]
        for _ in range(100):
            d, tgt = rng.choice(pool), rng.choice(pool)
            e = exponential(d, tgt)
            assert len(e.tables) == e.size
            assert e.tables[e.bottom] == (tgt.bottom,) * d.size
            assert FinitePoset(e.poset.rows) == e.poset


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

    def test_mu_is_monotone_and_preserves_directed_lubs(self):
        # the paper reads fix as mu : (D => D) -> D, which must be
        # continuous; here mu is a table over the exponential
        rng = random.Random(7)
        doms = [chain(2), chain(3), diamond(), flat(2)]
        doms += [random_dcpo(rng, rng.randrange(1, 5)) for _ in range(200)]
        for d in doms:
            dd = exponential(d, d)
            assert FinitePoset(dd.poset.rows) == dd.poset
            mu = tuple(least_fixed_point(MonotoneMap(d, d, t))
                       for t in dd.tables)
            MonotoneMap(dd, d, mu)  # raises unless mu is monotone
            if dd.size <= 12:  # the subset guard of preserves_directed_lubs
                assert preserves_directed_lubs(dd, d, mu)


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

    def test_table_values_outside_the_target_are_refused(self):
        # as in MonotoneMap, a value is an int index and a bool is not one
        for bad in ((0, True), (0, 1.0), (0, 2)):
            with pytest.raises(ValueError, match="outside carrier"):
                preserves_directed_lubs(chain(2), chain(2), bad)


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
        # with no bottom to find, the rejection loop would draw for ever;
        # a size is an int (a bool is not) and never negative
        def draw(size):
            return random_dcpo(random.Random(1), size)

        for build in (chain, draw):
            with pytest.raises(ValueError, match="needs an element"):
                build(0)
        for build in (chain, flat, draw):
            with pytest.raises(ValueError, match="must be a natural, got -1"):
                build(-1)
            for bad in (True, 2.0):
                with pytest.raises(TypeError, match="must be an int"):
                    build(bad)
        assert flat(0).size == 1
