"""W-tree equality against structural term equality, plus the encoding."""

import random

import pytest
from conftest import shallow_stack

from pcfkit.syntax import (
    _CONSTANTS, App, Iota, K, Pred, Succ, TypeMismatch, Zero, constant,
    numeral, random_term, random_type,
)
from pcfkit.wtypes import (
    TERM_SPEC, IndexMismatch, InvalidTree, WTree, decode_term, encode_term,
    validate, w_equal,
)

APP_SZ = App(Succ, Zero)


def replace_leftmost_zero(t):
    """Type-preserving one-leaf mutation; None when t has no zero leaf."""
    if t is Zero:
        return App(Pred, Zero)
    if t.tag == "app":
        f = replace_leftmost_zero(t.fun)
        if f is not None:
            return App(f, t.arg)
        a = replace_leftmost_zero(t.arg)
        if a is not None:
            return App(t.fun, a)
    return None


def test_w_equal_reflexive():
    for t in (Zero, APP_SZ, numeral(6), App(K(Iota, Iota), Zero)):
        assert w_equal(TERM_SPEC, encode_term(t), encode_term(t))


def test_w_equal_head_mismatch():
    assert not w_equal(TERM_SPEC, encode_term(Zero),
                       encode_term(App(Pred, Zero)))


def test_w_equal_demands_one_index():
    with pytest.raises(IndexMismatch):
        w_equal(TERM_SPEC, encode_term(Zero), encode_term(Succ))


def test_w_equal_deeper_than_the_recursion_limit():
    for n in (5000, 20000):
        with shallow_stack():
            deep = encode_term(numeral(n))
            assert w_equal(TERM_SPEC, deep, encode_term(numeral(n)))
            assert not w_equal(TERM_SPEC, deep, encode_term(numeral(n - 1)))


def test_shared_subtrees_are_checked_once():
    # t_0 = zero, t_(i+1) = k t_i t_i: 121 distinct nodes at i = 40,
    # spelling a tree of 2**42 - 3 nodes; the walks are bounded by calls
    # of the spec's target map, so a walk of the whole tree fails fast
    k = K(Iota, Iota)
    t, near = Zero, App(Pred, Zero)
    for _ in range(40):
        t, near = App(App(k, t), t), App(App(k, near), near)
    calls = [0]

    def target(head):
        calls[0] += 1
        assert calls[0] <= 1000, "the walk does not share subtrees"
        return TERM_SPEC.target(head)

    spec = TERM_SPEC._replace(target=target)
    e = encode_term(t)
    assert w_equal(spec, e, encode_term(t))
    assert not w_equal(spec, e, encode_term(near))
    calls[0] = 0
    validate(spec, e, Iota)


def test_trees_are_records():
    h = ("zero",)
    assert WTree(h).children == ()
    assert WTree(h) == WTree(head=h, children=()) != (h, ())
    iota = WTree("iota")
    assert hash(WTree("arr", (iota, iota))) == hash(
        WTree("arr", (WTree("iota"), WTree("iota"))))
    with pytest.raises(AttributeError):
        iota.head = "arr"
    assert repr(iota) == "WTree(head='iota', children=())"


def test_term_encoding_frozen_shapes():
    assert encode_term(Zero) == WTree(("zero",))
    assert encode_term(APP_SZ) == WTree(
        ("app", Iota, Iota), (WTree(("succ",)), WTree(("zero",))))


def test_term_round_trip():
    rng = random.Random(92)
    for _ in range(1000):
        t = random_term(rng, random_type(rng, depth=2), depth=6)
        assert decode_term(encode_term(t)) is t
    # every constant of the table, at random type parameters
    for tag, ty_of in _CONSTANTS.items():
        for _ in range(5):
            c = constant(tag, tuple(random_type(rng, 3)
                                    for _ in range(ty_of.__code__.co_argcount)))
            assert decode_term(encode_term(c)) is c


def test_encode_rejects_ill_typed():
    with pytest.raises(TypeMismatch):
        encode_term(App(Zero, Zero))


def test_oracle_equivalence_with_near_misses():
    rng = random.Random(93)
    checked_false = checked_true = 0
    for _ in range(1000):
        ty = random_type(rng, depth=1)
        a = random_term(rng, ty, depth=3)
        roll = rng.random()
        if roll < 0.3:
            b = a
        elif roll < 0.6:
            b = replace_leftmost_zero(a) or a
        else:
            b = random_term(rng, ty, depth=3)
        got = w_equal(TERM_SPEC, encode_term(a), encode_term(b))
        assert got == (a is b)
        checked_true += got
        checked_false += not got
    assert checked_true > 100 and checked_false > 100


def test_validator_accepts_encodings():
    rng = random.Random(94)
    for _ in range(200):
        t = random_term(rng, random_type(rng, depth=2), depth=5)
        validate(TERM_SPEC, encode_term(t), t.ty)


def test_validator_rejects_misplaced_child():
    w = encode_term(APP_SZ)
    bad = WTree(w.head, (w.children[0], encode_term(Succ)))
    with pytest.raises(InvalidTree, match="expected"):
        validate(TERM_SPEC, bad)
    for bad in ("x", WTree(w.head, (w.children[0], "x"))):
        with pytest.raises(InvalidTree, match="not a WTree"):
            validate(TERM_SPEC, bad)


def test_validator_rejects_bad_arity():
    with pytest.raises(InvalidTree, match="arity"):
        validate(TERM_SPEC, WTree(("zero",), (WTree(("zero",)),)))
    with pytest.raises(InvalidTree):
        validate(TERM_SPEC, WTree(("app", Iota, Iota), ()))
    # a constant has no child slot, and an application two
    for head, b in ((("zero",), 0), (("app", Iota, Iota), 2)):
        with pytest.raises(InvalidTree, match="no child slot"):
            TERM_SPEC.source(head, b)


def test_decode_rejects_malformed_trees():
    cases = [
        WTree(("frob",)),
        WTree(("k", Iota)),
        WTree(("app", Iota, Iota), (WTree(("zero",)),)),
        WTree(("app", Iota, Iota), (WTree(("zero",)), WTree(("zero",)))),
        WTree(("app", "x", "y"), (WTree(("succ",)), WTree(("zero",)))),
        WTree(("zero", Iota)),
        WTree(("fix", "x")),
        WTree(("k", [Iota], Iota)),
        WTree(("succ",), (WTree(("zero",)),)),
    ]
    for w in cases:
        with pytest.raises(InvalidTree):
            decode_term(w)


def test_a_tree_is_no_head():
    # a WTree is a tuple, but only plain tuples are term heads, even one
    # whose fields read as a head
    for head in (WTree("fix", Iota), WTree(("zero",)), WTree("zero")):
        w = WTree(head)
        with pytest.raises(InvalidTree, match="term heads are tuples"):
            decode_term(w)
        with pytest.raises(InvalidTree, match="term heads are tuples"):
            validate(TERM_SPEC, w)


def _near_miss(rng, w, subtrees):
    """w with one node changed: its tag, the number or kind of its type
    parameters, the number of its children, a child, or its head's
    shape."""
    if w.children and rng.random() < 0.6:
        b = rng.randrange(len(w.children))
        kids = list(w.children)
        kids[b] = _near_miss(rng, kids[b], subtrees)
        return WTree(w.head, tuple(kids))
    head, kids = w.head, w.children
    roll = rng.randrange(6)
    if roll == 0:
        return WTree((rng.choice([*_CONSTANTS, "app", "frob"]),) + head[1:],
                     kids)
    if roll == 1:
        more = rng.random() < 0.5
        return WTree(head + (random_type(rng, 1),) if more else head[:-1],
                     kids)
    if roll == 2 and len(head) > 1:
        i = rng.randrange(1, len(head))
        p = rng.choice([random_type(rng, 1), "iota", [Iota]])
        return WTree(head[:i] + (p,) + head[i + 1:], kids)
    if roll == 3:
        more = not kids or rng.random() < 0.5
        return WTree(head, kids + (rng.choice(subtrees),) if more
                     else kids[:-1])
    if roll == 4 and kids:
        i = rng.randrange(len(kids))
        return WTree(head, kids[:i] + (rng.choice(subtrees),) + kids[i + 1:])
    if roll == 5:
        return WTree(rng.choice([list(head), WTree(head), ()]), kids)
    return rng.choice(subtrees)


def test_decode_rejects_exactly_what_validate_rejects():
    rng = random.Random(95)
    valid = invalid = 0
    for _ in range(2000):
        w = encode_term(random_term(rng, random_type(rng, depth=1), depth=4))
        subtrees, stack = [], [w]
        while stack:
            subtrees.append(stack.pop())
            stack += subtrees[-1].children
        bad = _near_miss(rng, w, subtrees)
        try:
            validate(TERM_SPEC, bad)
        except InvalidTree:
            invalid += 1
            with pytest.raises(InvalidTree):
                decode_term(bad)
        else:
            valid += 1
            assert encode_term(decode_term(bad)) == bad
    assert valid > 200 and invalid > 200
