"""Types, terms, numerals, the checker, and the S-expression format."""

import copy
import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import collector_off, shallow_stack
from pcfkit.syntax import (
    _CONSTANTS, App, Arrow, Fix, Ifz, Iota, K, Pred, Record, S, Succ, Term,
    TypeMismatch, Zero, constant, fold, numeral, parse_term_sexp,
    parse_type_sexp, random_term, random_type, term_size, term_to_sexp,
    type_of, type_surface, type_to_sexp, SexpError,
)

NN = Arrow(Iota, Iota)


def test_type_of_constants():
    assert type_of(Zero) is Iota
    assert type_of(Succ) is NN
    assert type_of(Pred) is NN
    assert type_of(Ifz) is Arrow(Iota, Arrow(Iota, NN))


def test_type_of_application():
    assert type_of(App(Succ, Zero)) is Iota


def test_type_of_rejects_base_at_function_position():
    with pytest.raises(TypeMismatch):
        type_of(App(Zero, Zero))


def test_type_of_rejects_domain_mismatch():
    # k at (iota, iota) wants an iota argument, give it succ
    bad = App(K(Iota, Iota), Succ)
    with pytest.raises(TypeMismatch) as e:
        type_of(bad)
    assert e.value.expected is Iota
    assert e.value.actual is NN


def test_type_of_reports_the_innermost_offender():
    inner = App(Zero, Zero)
    # the offender on the argument side, then on the function side
    for bad in (App(Succ, inner), App(App(App(inner, Zero), Zero), Zero)):
        with pytest.raises(TypeMismatch) as e:
            type_of(bad)
        assert e.value.subterm is inner
        assert e.value.actual is Iota


def test_combinator_types():
    sigma, tau, rho = Iota, NN, Arrow(NN, Iota)
    assert type_of(K(sigma, tau)) is Arrow(sigma, Arrow(tau, sigma))
    assert type_of(S(sigma, tau, rho)) is Arrow(
        Arrow(sigma, Arrow(tau, rho)),
        Arrow(Arrow(sigma, tau), Arrow(sigma, rho)))
    assert type_of(Fix(sigma)) is Arrow(Arrow(sigma, sigma), sigma)


def test_constant_is_the_table_of_constants():
    assert constant("zero") is Zero and constant("ifz", ()) is Ifz
    assert constant("k", (Iota, NN)) is K(Iota, NN)
    assert constant("s", (NN, Iota, NN)) is S(NN, Iota, NN)
    assert constant("fix", (NN,)) is Fix(NN)
    for tag, params in [("frob", ()), ("app", (Iota, Iota)), ("zero", (Iota,)),
                        ("k", (Iota,)), ("k", [Iota, Iota]), ("fix", ("x",)),
                        ("s", ([Iota], Iota, Iota)), (Succ, Zero), ([], ())]:
        with pytest.raises(ValueError):
            constant(tag, params)


def test_numeral_zero_and_two():
    assert numeral(0) is Zero
    assert numeral(2) is App(Succ, App(Succ, Zero))


def test_numeral_type_and_size():
    for n in (0, 1, 7, 40, 20000):
        t = numeral(n)
        assert type_of(t) is Iota
        assert term_size(t) == 2 * n + 1


def doubling_dag(k):
    """t_0 = zero, t_i = App(t_{i-1}, t_{i-1}): k + 1 distinct subterms
    spelling a tree of 2**(k + 1) - 1 nodes."""
    t = Zero
    for _ in range(k):
        t = App(t, t)
    return t


def folded_in_order(t, memo=None):
    """fold t to its depth, recording every leaf and node call."""
    seen = []

    def leaf(c):
        seen.append(c)
        return 0

    def node(x, f, a):
        seen.append(x)
        return 1 + max(f, a)

    return fold(t, leaf, node, memo), seen


def test_fold_visits_each_distinct_subterm_once():
    t = doubling_dag(12)
    depth, seen = folded_in_order(t)
    assert depth == 12
    assert seen == [doubling_dag(i) for i in range(13)]


def test_fold_is_post_order_function_first():
    t = App(App(Pred, Zero), App(Succ, Zero))
    assert folded_in_order(t)[1] == [Pred, Zero, t.fun, Succ, t.arg, t]


def test_fold_reuses_a_given_memo():
    memo = {}
    assert folded_in_order(numeral(3), memo)[0] == 3
    depth, seen = folded_in_order(numeral(5), memo)
    assert depth == 5 and seen == [numeral(4), numeral(5)]


def test_term_size_is_linear_on_shared_dags():
    assert term_size(doubling_dag(40)) == 2 ** 41 - 1


def test_as_numeral_inverse():
    assert App(Succ, Zero).numeral == 1
    assert App(Pred, Zero).numeral is None
    assert numeral(17).numeral == 17
    assert Succ.numeral is None


def test_numeral_round_trip_large():
    # includes the top of the contract range
    for n in (0, 1, 2, 999, 10_000):
        assert numeral(n).numeral == n


@given(st.integers(min_value=0, max_value=300))
def test_numeral_round_trip_fuzz(n):
    assert numeral(n).numeral == n


def test_interning_makes_equality_structural():
    a = App(Succ, App(Pred, Zero))
    b = App(Succ, App(Pred, Zero))
    assert a is b
    assert numeral(5) is numeral(5)
    assert Arrow(Iota, Iota) is Arrow(Iota, Iota)
    assert K(Iota, NN) is K(Iota, NN)
    assert K(Iota, Iota) is not K(Iota, NN)


def test_a_dropped_term_leaves_the_pool_at_once():
    def build():
        return App(Pred, numeral(4321))

    with collector_off():
        before = len(Term._pool)
        t = build()
        assert len(Term._pool) > before
        del t
        assert len(Term._pool) == before
        t = build()
        assert build() is t
        del t
        assert len(Term._pool) == before


def test_type_of_is_deterministic_on_fuzzed_terms():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng, random_type(rng), depth=6)
        first = type_of(t)
        assert type_of(t) is first


def test_generator_output_is_well_typed():
    rng = random.Random(7)
    for _ in range(500):
        ty = random_type(rng)
        t = random_term(rng, ty, depth=8)
        assert type_of(t) is ty


def test_type_sexp_forms():
    assert type_to_sexp(Iota) == "iota"
    assert type_to_sexp(NN) == "(arr iota iota)"
    assert type_to_sexp(Arrow(NN, Iota)) == "(arr (arr iota iota) iota)"


def test_term_sexp_forms():
    assert term_to_sexp(Zero) == "zero"
    assert term_to_sexp(App(Succ, Zero)) == "(app succ zero)"
    assert term_to_sexp(K(Iota, NN)) == "(k iota (arr iota iota))"
    assert term_to_sexp(S(Iota, Iota, Iota)) == "(s iota iota iota)"
    assert term_to_sexp(App(Fix(Iota), Succ)) == "(app (fix iota) succ)"
    # every constant of the table, at random type parameters: an atom
    # without parameters, else a form headed by its tag
    rng = random.Random(24)
    for tag, ty_of in _CONSTANTS.items():
        for _ in range(5):
            params = tuple(random_type(rng, 3)
                           for _ in range(ty_of.__code__.co_argcount))
            c = constant(tag, params)
            words = " ".join([tag, *map(type_to_sexp, params)])
            assert term_to_sexp(c) == (f"({words})" if params else tag)
            assert parse_term_sexp(term_to_sexp(c)) is c


def test_sexp_round_trip_fuzz():
    rng = random.Random(23)
    for _ in range(300):
        t = random_term(rng, random_type(rng), depth=6)
        assert parse_term_sexp(term_to_sexp(t)) is t
        ty = random_type(rng, 3)
        assert parse_type_sexp(type_to_sexp(ty)) is ty


def test_sexp_round_trip_deep_numeral():
    t = numeral(500)
    assert parse_term_sexp(term_to_sexp(t)) is t


def test_deep_arrow_types_print_without_stack():
    right = left = Iota
    for _ in range(3000):
        right = Arrow(Iota, right)
        left = Arrow(left, Iota)
    with shallow_stack():
        assert parse_type_sexp(type_to_sexp(right)) is right
        assert parse_type_sexp(type_to_sexp(left)) is left
        assert type_surface(right) == "nat -> " * 3000 + "nat"
        assert type_surface(left) == ("(" * 2999 + "nat -> nat"
                                      + ") -> nat" * 2999)


def test_sexp_rejects_garbage():
    for bad in ("", "(app zero", "zap", "(arr iota)", "(k iota)", "zero zero",
                "k", "(zero)", "(fix zero)", "(s iota iota)", "(frob iota)"):
        with pytest.raises(SexpError):
            parse_term_sexp(bad)


def test_type_surface_rendering():
    assert type_surface(Iota) == "nat"
    assert type_surface(NN) == "nat -> nat"
    assert type_surface(Arrow(NN, Iota)) == "(nat -> nat) -> nat"
    assert type_surface(Arrow(Iota, NN)) == "nat -> nat -> nat"


def test_every_value_class_is_a_record():
    # a public class that is a tuple, or that defines its own equality,
    # gets both from the one record mechanism
    import pcfkit

    odd = []
    for info in pkgutil.walk_packages(pcfkit.__path__, "pcfkit."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if (isinstance(cls, type) and cls is not Record
                    and (issubclass(cls, tuple) or "__eq__" in vars(cls))
                    and not issubclass(cls, Record)):
                odd.append(f"{info.name}.{name}")
    assert odd == []


def test_terms_and_types_copy_and_pickle_as_themselves():
    from pcfkit.opsem import step

    shared = numeral(3)
    for _ in range(40):  # 2**40 paths through 40 distinct nodes
        shared = App(App(K(Iota, Iota), shared), shared)
    for x in (App(Succ, Zero), shared, Fix(NN), Arrow(NN, Iota), Iota):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    assert len(pickle.dumps(shared)) < 5_000  # shared subterms stay shared
    rec = step(App(Pred, numeral(2)))  # a record that holds a term
    for back in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert back == rec and back.next is rec.next


def test_value_records_are_type_exact_and_frozen():
    from pcfkit.domain import FiniteDcpoBot, FinitePoset, MonotoneMap, chain
    from pcfkit.lifting import unit
    from pcfkit.opsem import step

    d = chain(2)
    plain_data = (unit(3), d.poset, d, MonotoneMap(d, d, (0, 1)))
    for rec in plain_data:
        # pickle and copy still rebuild them
        assert pickle.loads(pickle.dumps(rec)) == rec == copy.deepcopy(rec)
    for rec in plain_data + (step(App(Pred, Zero)),):
        plain = tuple(rec)
        assert rec != plain and plain != rec and not rec == plain
        twin = type(rec)._make(plain)
        assert twin == rec and hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
    with pytest.raises(ValueError, match="antisymmetry"):
        FinitePoset([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="below every"):
        FiniteDcpoBot(d.poset, 1)
    with pytest.raises(ValueError, match="order preserving"):
        MonotoneMap(d, d, (1, 0))
