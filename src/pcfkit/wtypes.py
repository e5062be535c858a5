"""Indexed well-founded trees with decidable equality, and the encoding
of terms into them.

A WSpec packages the classifying data (index set, constructor heads,
arities, source and target maps) as plain callables, because the head
set for terms is infinite: every pair of types yields its own
application constructor.  Heads carry their type parameters, so head
equality is tuple equality and the whole tree comparison reduces to
finitely many head checks.  A tree may share subtrees, as those of
``encode_term`` do, so ``w_equal`` and ``validate`` check each shared
inner node once per call, keyed by identity.  ``validate`` is the one
checker of the tree format: ``decode_term`` calls it, then rebuilds the
term through ``syntax.constant`` and ``App`` without checking again.
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


class WSpec(namedtuple("WSpec", "index_eq head_eq arity target source"),
            Record):
    __slots__ = ()


class WTree(namedtuple("WTree", "head children", defaults=((),)), Record):
    __slots__ = ()


def w_equal(spec, u, v):
    """Decidable tree equality: heads first, then children pointwise.

    Pairs are compared in pre-order, leftmost child first, from an
    explicit stack, so tree depth is not bounded by the recursion limit.
    A pair met again was compared in full before, as no subtree is its
    own descendant, so skipping it keeps the answer of the tree walk.
    """
    seen = set()
    stack = [(u, v)]
    while stack:
        u, v = stack.pop()
        iu, iv = spec.target(u.head), spec.target(v.head)
        if not spec.index_eq(iu, iv):
            raise IndexMismatch(f"trees indexed by {iu!r} and {iv!r}")
        if not spec.head_eq(u.head, v.head):
            return False
        # identical heads, so identical arities and child indices
        n = spec.arity(u.head)
        if n and (key := (id(u), id(v))) not in seen:
            seen.add(key)
            for b in reversed(range(n)):
                stack.append((u.children[b], v.children[b]))
    return True


def validate(spec, w, index=None):
    """Check well-indexedness throughout; raises InvalidTree on failure."""
    if not isinstance(w, WTree):
        raise InvalidTree("not a WTree")
    seen = {}
    stack = [(w, spec.target(w.head) if index is None else index)]
    while stack:
        node, idx = stack.pop()
        if not isinstance(node, WTree):
            raise InvalidTree("not a WTree")
        tgt = spec.target(node.head)
        if not spec.index_eq(tgt, idx):
            raise InvalidTree(f"head targets {tgt!r}, expected {idx!r}")
        n = spec.arity(node.head)
        if len(node.children) != n:
            raise InvalidTree(
                f"head {node.head!r} has arity {n}, got "
                f"{len(node.children)} children")
        if n and (key := (id(node), id(idx))) not in seen:
            seen[key] = idx  # keeps idx, and so its id, alive
            for b in range(n):
                stack.append((node.children[b], spec.source(node.head, b)))


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


TERM_SPEC = WSpec(
    index_eq=lambda a, b: a is b,
    head_eq=lambda a, b: a == b,
    arity=_term_arity,
    target=_term_target,
    source=_term_source,
)


def _encode_app(x, f, a):
    fty = x.fun.ty
    return WTree(("app", fty.domain, fty.codomain), (f, a))


def encode_term(t):
    """Encode a well-typed term; raises the usual type error otherwise."""
    if t.ty is None:
        type_of(t)
    return fold(t, lambda c: WTree((c.tag,) + c.params), _encode_app)


def decode_term(w):
    """The term that ``w`` encodes; InvalidTree if ``validate`` rejects
    it.  The valid tree is then rebuilt in one post-order walk that
    decodes each shared node once, keyed by identity."""
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
