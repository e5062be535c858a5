"""W-tree equality against structural term equality, plus the encodings."""

import random

import pytest
from conftest import shallow_stack

from pcfkit.syntax import (
    App, Arrow, Iota, K, Pred, Succ, TypeMismatch, Zero, numeral,
    random_term, random_type,
)
from pcfkit.wtypes import (
    TERM_SPEC, TYPE_SPEC, IndexMismatch, InvalidTree, WTree, decode_term,
    decode_type, encode_term, encode_type, validate, w_equal,
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


def test_trees_are_records():
    h = ("zero",)
    assert WTree(h).children == ()
    assert WTree(h) == WTree(head=h, children=()) != (h, ())
    iota = WTree("iota")
    assert hash(WTree("arr", (iota, iota))) == hash(
        encode_type(Arrow(Iota, Iota)))
    with pytest.raises(AttributeError):
        iota.head = "arr"
    assert repr(iota) == "WTree(head='iota', children=())"


def test_type_encoding_frozen_shapes():
    assert encode_type(Iota) == WTree("iota")
    assert encode_type(Arrow(Iota, Iota)) == WTree(
        "arr", (WTree("iota"), WTree("iota")))


def test_type_round_trip():
    rng = random.Random(90)
    for _ in range(1000):
        sigma = random_type(rng, depth=4)
        assert decode_type(encode_type(sigma)) is sigma


def test_types_retract_through_trees():
    rng = random.Random(91)
    for _ in range(300):
        a = random_type(rng, depth=3)
        b = random_type(rng, depth=3)
        assert w_equal(TYPE_SPEC, encode_type(a), encode_type(b)) == (a is b)


def test_term_encoding_frozen_shapes():
    assert encode_term(Zero) == WTree(("zero",))
    assert encode_term(APP_SZ) == WTree(
        ("app", Iota, Iota), (WTree(("succ",)), WTree(("zero",))))


def test_term_round_trip():
    rng = random.Random(92)
    for _ in range(1000):
        t = random_term(rng, random_type(rng, depth=2), depth=6)
        assert decode_term(encode_term(t)) is t


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
    validate(TYPE_SPEC, encode_type(Arrow(Iota, Iota)))


def test_validator_rejects_misplaced_child():
    w = encode_term(APP_SZ)
    bad = WTree(w.head, (w.children[0], encode_term(Succ)))
    with pytest.raises(InvalidTree, match="expected"):
        validate(TERM_SPEC, bad)


def test_validator_rejects_bad_arity():
    with pytest.raises(InvalidTree, match="arity"):
        validate(TERM_SPEC, WTree(("zero",), (WTree(("zero",)),)))
    with pytest.raises(InvalidTree):
        validate(TERM_SPEC, WTree(("app", Iota, Iota), ()))


def test_decode_rejects_malformed_trees():
    cases = [
        WTree(("frob",)),
        WTree(("k", Iota)),
        WTree(("app", Iota, Iota), (WTree(("zero",)),)),
        WTree(("app", Iota, Iota), (WTree(("zero",)), WTree(("zero",)))),
        WTree(("app", "x", "y"), (WTree(("succ",)), WTree(("zero",)))),
    ]
    for w in cases:
        with pytest.raises(InvalidTree):
            decode_term(w)
    with pytest.raises(InvalidTree):
        decode_type(WTree("arr", (WTree("iota"),)))
    with pytest.raises(InvalidTree):
        decode_type(WTree("nat"))


def test_a_tree_is_no_head():
    # a WTree is a tuple, but only plain tuples are term heads, even one
    # whose fields read as a head
    for head in (WTree("fix", Iota), WTree(("zero",)), WTree("zero")):
        w = WTree(head)
        with pytest.raises(InvalidTree, match="term heads are tuples"):
            decode_term(w)
        with pytest.raises(InvalidTree, match="term heads are tuples"):
            validate(TERM_SPEC, w)
