"""Indexed well-founded trees with decidable equality, and the encoding
of terms into them.

A WSpec packages the classifying maps (arity, target and source of a
constructor head) as callables, because the head set for terms is
infinite: every pair of types yields its own application constructor.
Indices and heads compare with ``==``, and indices hash: the term
indices are interned types, for which both go by identity, and heads
carry their type parameters, so head equality is tuple equality and the
whole tree comparison reduces to finitely many head checks.

Equality decides by induction on the tree, which presumes every node
has exactly the children its head's arity names, each at the index its
slot expects.  So ``w_equal`` and ``validate`` are one walk, over a
pair of trees for the one and over a tree paired with itself for the
other: it raises InvalidTree at the first malformed node the pre-order
walk meets, and ``w_equal`` returns False at the first pair of unequal
heads.  So True means both trees are valid and equal.  A tree may share
subtrees, as those of ``encode_term`` do, and the walk checks each
shared pair once per call and index, keyed by identity.
``decode_term`` checks a tree through ``validate`` alone, then rebuilds
the term through ``syntax.constant`` and ``App`` without checking
again.
"""

from __future__ import annotations

from collections import namedtuple

from .syntax import App, Arrow, PcfType, Record, constant, fold, type_of

__all__ = [
    "WSpec", "WTree", "IndexMismatch", "InvalidTree",
    "w_equal", "validate", "TERM_SPEC", "encode_term", "decode_term",
]


class IndexMismatch(Exception):
    """The two trees live over different indices; equality is not posed."""


class InvalidTree(Exception):
    """A tree that does not fit its spec (head, arity, or child index)."""


class WSpec(namedtuple("WSpec", "arity target source"), Record):
    __slots__ = ()


class WTree(namedtuple("WTree", "head children", defaults=((),)), Record):
    __slots__ = ()


def _walk(spec, u, v, index):
    """The one checked walk, over the pair (u, v) with roots at
    ``index``, or with no index at the root: then the roots' targets
    must agree, else IndexMismatch.

    At each pair it checks, in this order: that both sides are WTrees;
    each head's target against the index its slot expects (the target
    map also checks the head's shape, so it runs first); that each
    side's children are a tuple, as many as its head's arity names; and
    then that the heads are equal.  Equal heads share their target and
    arity, so when ``v is u``, as in ``validate``, or the heads are
    equal, each map runs once.
    Pairs are walked in pre-order, leftmost child first, from an
    explicit stack, so tree depth is not bounded by the recursion
    limit.  A pair met again at the same index was walked in full
    before, as no subtree is its own descendant, and the slots of its
    children follow from its head alone, so it is skipped; at another
    index its target check fails.
    """
    arity, target, source = spec
    seen = set()
    stack = [(u, v, index)]
    while stack:
        u, v, idx = stack.pop()
        if (key := (id(u), id(v), idx)) in seen:
            continue
        if not (isinstance(u, WTree) and isinstance(v, WTree)):
            raise InvalidTree("not a WTree")
        same = v is u or u.head == v.head
        tu = target(u.head)
        tv = tu if same else target(v.head)
        if not seen and index is None:  # the roots, with no index given
            if tu != tv:
                raise IndexMismatch(f"trees indexed by {tu!r} and {tv!r}")
        elif tu != idx or tv != idx:
            tgt = tu if tu != idx else tv
            raise InvalidTree(f"head targets {tgt!r}, expected {idx!r}")
        n = arity(u.head)
        for w, k in ((u, n), (v, n if same else arity(v.head))):
            if type(w.children) is not tuple:
                raise InvalidTree(f"head {w.head!r} has non-tuple children")
            if len(w.children) != k:
                raise InvalidTree(
                    f"head {w.head!r} has arity {k}, got "
                    f"{len(w.children)} children")
        if not same:
            return False
        seen.add(key)
        for b in reversed(range(n)):
            stack.append((u.children[b], v.children[b], source(u.head, b)))
    return True


def w_equal(spec, u, v):
    """Decidable tree equality: True when both trees are valid and
    equal, False at the first pair of unequal heads, and InvalidTree or
    IndexMismatch when the walk meets a fault first."""
    return _walk(spec, u, v, None)


def validate(spec, w, index=None):
    """Check well-indexedness throughout, at ``index`` or at the root's
    own target; raises InvalidTree on failure."""
    _walk(spec, w, w, index)


# The term encoding: heads are (tag, *type-parameters), indexed by type.
# Constants are leaves; application is the one binary head, with the
# function child at the arrow index and the argument at its domain.

def _term_arity(head):
    return 2 if head[0] == "app" else 0


def _term_target(head):
    if type(head) is not tuple or not head:
        raise InvalidTree(f"term heads are tuples, got {head!r}")
    if head[0] == "app":
        if len(head) != 3 or not all(isinstance(p, PcfType) for p in head[1:]):
            raise InvalidTree(f"bad app head {head!r}")
        return head[2]
    try:
        return constant(head[0], head[1:]).ty
    except ValueError as e:
        raise InvalidTree(f"bad term head {head!r}: {e}") from None


def _term_source(head, b):
    if head[0] == "app" and b in (0, 1):
        sigma, tau = head[1], head[2]
        return Arrow(sigma, tau) if b == 0 else sigma
    raise InvalidTree(f"no child slot {b} for head {head!r}")


TERM_SPEC = WSpec(arity=_term_arity, target=_term_target,
                  source=_term_source)


def _encode_app(x, f, a):
    fty = x.fun.ty
    return WTree(("app", fty.domain, fty.codomain), (f, a))


def encode_term(t):
    """Encode a well-typed term; raises the usual type error otherwise."""
    if t.ty is None:
        type_of(t)
    return fold(t, lambda c: WTree((c.tag,) + c.params), _encode_app)


def decode_term(w):
    """The term that ``w`` encodes; InvalidTree if ``validate``, the
    walk that ``w_equal`` makes, rejects it.  The valid tree is then
    rebuilt in one post-order walk that decodes each shared node once,
    keyed by identity, trusting every head and child count."""
    validate(TERM_SPEC, w)
    out = {}
    stack = [w]
    while stack:
        node = stack[-1]
        if id(node) in out:
            stack.pop()
        elif not node.children:
            out[id(node)] = constant(node.head[0], node.head[1:])
            stack.pop()
        else:
            f, a = node.children
            if id(f) in out and id(a) in out:
                out[id(node)] = App(out[id(f)], out[id(a)])
                stack.pop()
            else:
                stack += [a, f]
    return out[id(w)]
