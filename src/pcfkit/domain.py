"""Finite posets, pointed dcpos, and least fixed points of monotone maps.

Carriers are index sets 0..size-1, and an order is one int bitmask per
element, its ``rows``: bit j of ``rows[i]`` is set when i is below j.
Posets are built from their rows.  `FinitePoset` checks the poset laws
of rows handed to it; `exponential` builds rows that obey them by
construction and skips that check.  Directedness and the existence of
suprema are checked by exhaustive scan over the rows.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .syntax import Record, _check_natural

__all__ = [
    "FinitePoset",
    "FiniteDcpoBot",
    "MonotoneMap",
    "TooLarge",
    "check_directed",
    "lub",
    "exponential",
    "least_fixed_point",
    "monotone_tables",
    "preserves_directed_lubs",
    "chain",
    "diamond",
    "flat",
    "random_dcpo",
]


class TooLarge(Exception):
    """An enumeration guard tripped; the requested object has too many points."""


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset(namedtuple("FinitePoset", "size rows"), Record):
    """A finite poset given by its rows.

    ``rows[i]`` is an int whose bit j is set when element i is below
    element j.  A row that is not an int (a bool is not), is negative or
    has a bit outside the carrier is refused, and the three poset laws
    are verified exhaustively at construction time (``_make`` and
    ``_replace`` skip the checks).
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(rows)
        n = len(rows)
        for i, r in enumerate(rows):
            if type(r) is not int or r < 0 or r >> n:
                raise ValueError(
                    f"row {i} must be a bitmask of the {n} elements, got {r!r}")
        for i in range(n):
            if not rows[i] >> i & 1:
                raise ValueError(f"not reflexive at element {i}")
        for i in range(n):
            reach = 0
            for j in _bits(rows[i]):
                reach |= rows[j]
            if reach & ~rows[i]:
                raise ValueError(f"not transitive below element {i}")
        # in a preorder, i <= j <= i exactly when i and j share a row
        first = {}
        for i, r in enumerate(rows):
            j = first.setdefault(r, i)
            if j != i:
                raise ValueError(f"antisymmetry fails on {{{j}, {i}}}")
        return super().__new__(cls, n, rows)

    def __reduce__(self):  # pickle and copy rebuild from the fields
        return self._make, (tuple(self),)

    def le(self, i, j):
        return bool(self.rows[i] >> j & 1)


def _subset_mask(p, subset):
    mask = 0
    for i in subset:
        if type(i) is not int or not 0 <= i < p.size:
            raise ValueError(f"element {i!r} outside carrier of size {p.size}")
        mask |= 1 << i
    return mask


def _top(p, mask):
    # the subset's greatest element as a one-bit mask, else 0; a finite
    # subset is directed exactly when it has one, and that is its lub
    top = mask
    for a in _bits(mask):
        top &= p.rows[a]
    return top


def check_directed(p, subset):
    return bool(_top(p, _subset_mask(p, subset)))


def lub(p, subset):
    """Least upper bound of the subset over the whole carrier, or None."""
    ub = (1 << p.size) - 1
    for i in _bits(_subset_mask(p, subset)):
        ub &= p.rows[i]
    for u in _bits(ub):
        if not ub & ~p.rows[u]:
            return u
    return None


class FiniteDcpoBot(namedtuple("FiniteDcpoBot", "poset bottom tables",
                               defaults=(None,)), Record):
    """A finite poset with a least element.

    Every finite directed subset contains its own maximum, so the
    completeness half of the definition holds automatically and is not
    checked.  The constructor checks that ``bottom`` is the int index (a
    bool is not one) of the least element (``_make`` and ``_replace``
    skip the check).
    The optional ``tables`` tuple records, for function-space instances,
    which map each carrier index stands for.
    """

    __slots__ = ()

    def __new__(cls, poset, bottom, tables=None):
        if type(bottom) is not int or not 0 <= bottom < poset.size:
            raise ValueError("bottom index outside carrier")
        if poset.rows[bottom] != (1 << poset.size) - 1:
            raise ValueError("bottom is not below every element")
        return super().__new__(cls, poset, bottom, tables)

    @property
    def size(self):
        return self.poset.size

    def le(self, i, j):
        return self.poset.le(i, j)


def _table_monotone(sp, tp, table):
    for i in range(sp.size):
        ti = tp.rows[table[i]]
        for j in _bits(sp.rows[i]):
            if not ti >> table[j] & 1:
                return False
    return True


class MonotoneMap(namedtuple("MonotoneMap", "source target table"), Record):
    """An order-preserving map between pointed dcpos, as a lookup table
    of int indices (a bool is not one), checked by the constructor
    (``_make`` and ``_replace`` skip that)."""

    __slots__ = ()

    def __new__(cls, source, target, table):
        table = tuple(table)
        if len(table) != source.size:
            raise ValueError("table length must match the source carrier")
        for v in table:
            if type(v) is not int or not 0 <= v < target.size:
                raise ValueError(f"table value {v} outside target carrier")
        if not _table_monotone(source.poset, target.poset, table):
            raise ValueError("table is not order preserving")
        return super().__new__(cls, source, target, table)

    def __call__(self, i):
        return self.table[i]


def monotone_tables(d, e):
    """Yield every monotone table d -> e in lexicographic order.

    The search backtracks in index order, without recursion: element i
    tries, lowest first, only the values in the up-set of each earlier
    element's value below i and in the down-set of each earlier
    element's value above i, one constraint per order edge of d.  So a
    dead end costs one partial table, not every candidate extending it.
    """
    erows, n = e.poset.rows, d.size
    down = [sum(1 << u for u, r in enumerate(erows) if r >> v & 1)
            for v in range(e.size)]
    # edges[i]: pairs (j, sets), j < i an order neighbour of i in d, so
    # that the value of i must lie in sets[table[j]]
    edges = [[] for _ in range(n)]
    for j, r in enumerate(d.poset.rows):
        for k in _bits(r ^ 1 << j):
            edges[max(j, k)].append((min(j, k), erows if j < k else down))
    full = (1 << e.size) - 1
    table, left, i = [0] * n, [full] * n, 0  # left[i]: values yet to try
    while i >= 0:
        if not left[i]:
            i -= 1
            continue
        table[i] = (left[i] & -left[i]).bit_length() - 1
        left[i] ^= 1 << table[i]
        if i + 1 == n:
            yield tuple(table)
            continue
        i += 1
        left[i] = full
        for j, sets in edges[i]:
            left[i] &= sets[table[j]]


def exponential(d, e):
    """The dcpo of all monotone maps d -> e under the pointwise order.

    Carrier index i stands for ``tables[i]``.  Two guards raise
    TooLarge: over 10**6 candidate tables bound the search, which so
    visits under 2 * 10**6 partial tables, dead ends included; over
    10**4 monotone tables bound the tables kept and the rows built.

    The rows come from per-argument columns, built in one pass over the
    tables.  The pointwise order on distinct monotone tables into a
    poset is a poset, so `FinitePoset`'s checks are not run again here;
    the test suite proves the rows against a pointwise oracle.
    """
    if e.size ** d.size > 10 ** 6:
        raise TooLarge(
            f"{e.size}^{d.size} candidate tables exceed the enumeration guard")
    tables = tuple(itertools.islice(monotone_tables(d, e), 10 ** 4 + 1))
    if len(tables) > 10 ** 4:
        raise TooLarge("over 10**4 monotone tables exceed the enumeration guard")
    # per argument x: at[x][w], the tables g with g(x) = w, and
    # ge[x][v], those with v <= g(x), a union of disjoint at[x][w]
    at = [[0] * e.size for _ in range(d.size)]
    for j, g in enumerate(tables):
        for col, gx in zip(at, g):
            col[gx] |= 1 << j
    ge = [[sum(col[w] for w in _bits(r)) for r in e.poset.rows] for col in at]
    full = (1 << len(tables)) - 1
    rows = []
    for f in tables:
        r = full
        for col, fx in zip(ge, f):
            r &= col[fx]
        rows.append(r)
    bottom = tables.index((e.bottom,) * d.size)
    return FiniteDcpoBot(FinitePoset._make((len(rows), tuple(rows))), bottom,
                         tables=tables)


def least_fixed_point(f):
    """Iterate f from bottom until it stabilizes; returns the fixed point."""
    if f.source != f.target:
        raise ValueError("least_fixed_point needs an endomap")
    x = f.source.bottom
    for _ in range(f.source.size + 1):
        nxt = f.table[x]
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("iteration from bottom failed to stabilize")


def preserves_directed_lubs(d, e, table):
    """Whether a raw table sends suprema of directed subsets to suprema.

    The table need not be monotone; this is the hypothesis side of the
    monotone-for-free lemma, checked over every directed subset.  A
    table not of length ``d.size`` is a ValueError, as in `MonotoneMap`.
    """
    p = d.poset
    if len(table) != p.size:
        raise ValueError("table length must match the source carrier")
    if p.size > 12:
        raise TooLarge("subset enumeration guard")
    for mask in range(1, 1 << p.size):
        top = _top(p, mask)
        if not top:
            continue
        # an image with no lub is None, which is no table value
        img = lub(e.poset, [table[i] for i in _bits(mask)])
        if img != table[top.bit_length() - 1]:
            return False
    return True


def chain(n):
    """The n-point linear order 0 < 1 < ... < n-1 with bottom 0, n >= 1."""
    _check_natural(n, "chain size")
    if n < 1:
        raise ValueError(f"a pointed dcpo needs an element, got size {n}")
    full = (1 << n) - 1
    return FiniteDcpoBot(FinitePoset(full >> i << i for i in range(n)), 0)


def diamond():
    """Bottom 0, incomparable 1 and 2, top 3."""
    return FiniteDcpoBot(FinitePoset((0b1111, 0b1010, 0b1100, 0b1000)), 0)


def flat(width):
    """Bottom 0 under `width` pairwise-incomparable points."""
    _check_natural(width, "flat width")
    n = width + 1
    rows = ((1 << n) - 1 if i == 0 else 1 << i for i in range(n))
    return FiniteDcpoBot(FinitePoset(rows), 0)


def random_dcpo(rng, size):
    """A random pointed dcpo on `size` elements, at least one.

    Draws a random relation into rows, closes it reflexively and
    transitively (Warshall's algorithm on bitmasks), and rejects draws
    that break antisymmetry or lack a least element.
    """
    _check_natural(size, "dcpo size")
    if size < 1:
        raise ValueError(f"a pointed dcpo needs an element, got size {size}")
    p = 0.9 / size if size > 1 else 0.0
    full = (1 << size) - 1
    while True:
        rows = [1 << i for i in range(size)]
        for i in range(size):
            for j in range(size):
                if i != j and rng.random() < p:
                    rows[i] |= 1 << j
        for k in range(size):
            for i in range(size):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        # in a preorder, i <= j <= i exactly when i and j share a row
        if len(set(rows)) < size or full not in rows:
            continue
        return FiniteDcpoBot(FinitePoset(rows), rows.index(full))
