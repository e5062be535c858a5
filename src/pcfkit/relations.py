"""k-step reflexive-transitive closure over single-valued step functions.

A step function is any object whose method next(x) gives the unique
successor of x or None. The carrier's elements compare with ``==``, its
decidable equality: for interned terms that is identity. FiniteRelation
supplies graph fixtures and bfs_closure_oracle the independent brute
force the tests compare against.
"""

from __future__ import annotations

from collections import deque, namedtuple
from types import SimpleNamespace

from .syntax import Record, _check_natural

__all__ = [
    "FiniteRelation", "decide_k_step",
    "decide_reaches_within", "bfs_closure_oracle",
]


def decide_k_step(r, x, y, k: int) -> bool:
    """Whether y is related to x by the k-step closure.

    Follows the recursion that justifies decidability: at k = 0 the
    closure is equality; otherwise take the unique strict step from x
    (failing if there is none) and recur. So this walks exactly k steps.
    A k that is not an int (a bool neither) is a TypeError, and a
    negative one a ValueError.
    """
    _check_natural(k, "step bound")
    for _ in range(k):
        x = r.next(x)
        if x is None:
            return False
    return x == y


def decide_reaches_within(r, x, y, k: int) -> bool:
    """Whether some j <= k has y reachable from x in j steps.

    The bounded form of the search that realizes membership in the full
    reflexive-transitive closure. A k that is not an int (a bool
    neither) is a TypeError, and a negative one a ValueError.
    """
    _check_natural(k, "step bound")
    for j in range(k + 1):
        if x == y:
            return True
        if j < k:
            x = r.next(x)
            if x is None:
                return False
    return False


class FiniteRelation(namedtuple("FiniteRelation", "node_count edges"),
                     Record):
    """A finite graph fixture: nodes 0..node_count-1 plus a tuple of
    edges, made from any iterable, each edge a pair of such ints, a bool
    not among them (``_make`` and ``_replace`` skip that check)."""

    __slots__ = ()

    def __new__(cls, node_count, edges):
        if type(node_count) is not int or node_count < 0:
            raise ValueError(f"node count {node_count!r} is not a natural")
        edges = tuple(edges)
        for s, d in edges:
            if not (type(s) is type(d) is int
                    and 0 <= s < node_count and 0 <= d < node_count):
                raise ValueError(f"edge ({s},{d}) out of range")
        return super().__new__(cls, node_count, edges)

    @property
    def single_valued(self) -> bool:
        sources = [s for s, _ in self.edges]
        return len(sources) == len(set(sources))

    def as_step_function(self):
        if not self.single_valued:
            raise ValueError("relation is not single-valued")
        return SimpleNamespace(next=dict(self.edges).get)


def bfs_closure_oracle(g: FiniteRelation, source: int):
    """Reachability with minimal distances, by breadth-first search.

    Works on arbitrary finite relations; this is the brute force the
    closure procedures are checked against.
    """
    adj = {}
    for s, d in g.edges:
        adj.setdefault(s, []).append(d)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return {(node, d) for node, d in dist.items()}

