"""Closure decision procedures against brute-force graph oracles."""

import random
from types import SimpleNamespace

import pytest

from pcfkit.opsem import StepRelation
from pcfkit.relations import (
    FiniteRelation, bfs_closure_oracle, decide_k_step, decide_reaches_within,
)
from pcfkit.syntax import App, Pred, Zero

CHAIN = FiniteRelation(3, ((0, 1), (1, 2)))


def walk_ends(g, x, k):
    """All endpoints of length-k walks from x: the exact-k brute force."""
    frontier = {x}
    for _ in range(k):
        frontier = {d for (s, d) in g.edges if s in frontier}
    return frontier


def reachable_within(g, x, y, k):
    dist = dict(bfs_closure_oracle(g, x))
    return y in dist and dist[y] <= k


def random_single_valued(rng, max_nodes=50):
    n = rng.randrange(1, max_nodes + 1)
    edges = []
    for s in range(n):
        if rng.random() < 0.8:
            edges.append((s, rng.randrange(n)))
    return FiniteRelation(n, tuple(edges))


def test_zero_steps_is_equality():
    r = CHAIN.as_step_function()
    for x in range(3):
        assert decide_k_step(r, x, x, 0)
        assert not decide_k_step(r, x, (x + 1) % 3, 0)


def test_a_negative_step_bound_is_refused():
    # with no step to take, x would otherwise be related to itself in -1
    # steps by one procedure and not by the other
    r = CHAIN.as_step_function()
    for decide in (decide_k_step, decide_reaches_within):
        for k in (-1, -5):
            with pytest.raises(ValueError, match="step bound"):
                decide(r, 0, 0, k)
        # True would run as 1 step, and 2.5 fail inside range
        for k in (True, 2.5):
            with pytest.raises(TypeError, match="step bound"):
                decide(r, 0, 0, k)


def test_pcf_step_relation_one_step():
    r = StepRelation()
    assert decide_k_step(r, App(Pred, Zero), Zero, 1)


def test_elements_compare_with_double_equals():
    # a step function needs only next; the target is an equal tuple that
    # is not the same object as the one the walk reaches
    r = SimpleNamespace(next={(0,): (1,), (1,): (2,)}.get)
    target = tuple([2])
    assert target is not r.next((1,))
    assert decide_k_step(r, (0,), target, 2)
    assert decide_reaches_within(r, (0,), target, 2)


def test_chain_examples():
    r = CHAIN.as_step_function()
    assert not decide_k_step(r, 0, 2, 1)
    assert decide_k_step(r, 0, 2, 2)
    assert decide_reaches_within(r, 0, 2, 5)
    assert not decide_reaches_within(r, 0, 2, 1)


def test_self_loop_never_reaches_elsewhere():
    g = FiniteRelation(2, ((0, 0),))
    r = g.as_step_function()
    assert not decide_reaches_within(r, 0, 1, 100)
    assert decide_reaches_within(r, 0, 0, 0)


def test_bfs_oracle_examples():
    assert bfs_closure_oracle(CHAIN, 0) == {(0, 0), (1, 1), (2, 2)}
    assert bfs_closure_oracle(FiniteRelation(1, ()), 0) == {(0, 0)}


def test_cycle_exact_k_differs_from_minimal_distance():
    # on a 2-cycle the length-2 walk returns home, while BFS records
    # distance 0 only; the two procedures answer different questions
    g = FiniteRelation(2, ((0, 1), (1, 0)))
    r = g.as_step_function()
    assert decide_k_step(r, 0, 0, 2)
    assert dict(bfs_closure_oracle(g, 0))[0] == 0
    assert 0 in walk_ends(g, 0, 2)


def test_oracle_equivalence_fuzz():
    rng = random.Random(50)
    for _ in range(30):
        g = random_single_valued(rng, max_nodes=12)
        r = g.as_step_function()
        dists = {x: dict(bfs_closure_oracle(g, x)) for x in range(g.node_count)}
        for x in range(g.node_count):
            for y in range(g.node_count):
                for k in range(0, 25):
                    assert decide_k_step(r, x, y, k) == (y in walk_ends(g, x, k))
                    want = y in dists[x] and dists[x][y] <= k
                    assert decide_reaches_within(r, x, y, k) == want


def test_reaches_within_is_monotone_in_k():
    rng = random.Random(51)
    for _ in range(40):
        g = random_single_valued(rng, max_nodes=15)
        r = g.as_step_function()
        x = rng.randrange(g.node_count)
        y = rng.randrange(g.node_count)
        hits = [decide_reaches_within(r, x, y, k) for k in range(30)]
        for a, b in zip(hits, hits[1:]):
            assert (not a) or b


def test_single_valued_flag():
    assert CHAIN.single_valued
    g = FiniteRelation(3, ((0, 1), (0, 2)))
    assert not g.single_valued
    with pytest.raises(ValueError):
        g.as_step_function()


def test_edge_bounds_checked():
    with pytest.raises(ValueError):
        FiniteRelation(2, ((0, 5),))
    with pytest.raises(ValueError):
        FiniteRelation(node_count=2, edges=((-1, 0),))
    with pytest.raises(ValueError):
        FiniteRelation(2.5, ((2, 0),))
    assert FiniteRelation(edges=((0, 1), (1, 2)), node_count=3) == CHAIN


def test_edge_bounds_checked_by_position_or_keyword():
    for make in (lambda: FiniteRelation(2, ((0, 2),)),
                 lambda: FiniteRelation(2, edges=((2, 0),)),
                 lambda: FiniteRelation(edges=((0, -1),), node_count=2),
                 lambda: FiniteRelation(2, ((0.5, 1),)),
                 lambda: FiniteRelation(2, ((True, 0),))):
        with pytest.raises(ValueError, match="out of range"):
            make()
    assert FiniteRelation(2, edges=((1, 0),)).edges == ((1, 0),)


def test_edges_are_kept_as_a_tuple():
    # edges from any iterable: a generator's survive the range check,
    # and a list's make a hashable record
    g = FiniteRelation(3, (e for e in [(0, 1), (0, 2)]))
    assert g.edges == ((0, 1), (0, 2)) and not g.single_valued
    assert FiniteRelation(3, [(0, 1), (1, 2)]) == CHAIN
    assert hash(FiniteRelation(3, [(0, 1), (1, 2)])) == hash(CHAIN)
