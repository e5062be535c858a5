"""Fuel-indexed denotational interpreter with cross-check harnesses.

Terms denote partial naturals at base type and memoized closures at
arrow types.  Each occurrence of the fixed-point constant is unrolled a
fixed number of times (the fuel) from the bottom value of its type, so
every answer is a finite approximant of the intended meaning: raising
the fuel can turn `bot` into a definite value, never change one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifting import BOT, kleisli, fmap, render, unit
from .opsem import WrongType, reaches_numeral, reduce
from .syntax import Iota, fold, type_of, term_to_sexp

__all__ = [
    "SemValue", "Base", "Func", "Interpreter", "Verdict",
    "bottom_value", "denote", "denote_base",
    "check_soundness", "check_adequacy", "check_semidecidability",
]

_MISS = object()


class SemValue:
    __slots__ = ()


class Base(SemValue):
    """The meaning of a base-type term: a partial natural."""

    __slots__ = ("partial",)

    def __init__(self, partial):
        self.partial = partial

    def __eq__(self, other):
        if not isinstance(other, Base):
            return NotImplemented
        return self.partial == other.partial

    def __hash__(self):
        return hash(self.partial)

    def __repr__(self):
        return f"Base({render(self.partial)})"


class Func(SemValue):
    """An arrow-type value; applications are memoized per argument.

    Base arguments key the cache by their payload.  Function arguments
    key it by themselves: Func compares and hashes by identity, and the
    cache keeps its keys alive.
    """

    __slots__ = ("_fn", "_cache")

    def __init__(self, fn):
        self._fn = fn
        self._cache = {}

    def apply(self, arg):
        key = arg.partial.value if isinstance(arg, Base) else arg
        got = self._cache.get(key, _MISS)
        if got is _MISS:
            got = self._fn(arg)
            self._cache[key] = got
        return got

    def __repr__(self):
        return "Func(<closure>)"


def bottom_value(sigma):
    """Least element of the type's domain: bot, constantly extended."""
    if sigma is Iota:
        return Base(BOT)
    bot = bottom_value(sigma.codomain)
    return Func(lambda _v: bot)


def _succ_value():
    return Func(lambda v: Base(fmap(lambda n: n + 1, v.partial)))


def _pred_value():
    # the semantic predecessor sends 0 to 0, forced by the pred-zero rule
    return Func(lambda v: Base(fmap(lambda n: n - 1 if n else 0, v.partial)))


def _ifz_value():
    def on_zero(x):
        def on_succ(y):
            def scrutinee(z):
                def chi(n):
                    return x.partial if n == 0 else y.partial
                return Base(kleisli(chi, z.partial))
            return Func(scrutinee)
        return Func(on_succ)
    return Func(on_zero)


def _k_value():
    return Func(lambda a: Func(lambda _b: a))


def _s_value():
    return Func(lambda f: Func(
        lambda g: Func(lambda x: f.apply(x).apply(g.apply(x)))))


def _fix_value(sigma, fuel):
    def unroll(f):
        cur = bottom_value(sigma)
        for _ in range(fuel):
            nxt = f.apply(cur)
            if isinstance(nxt, Base) and nxt == cur:
                return nxt  # chain from bottom stabilized; later iterates equal
            cur = nxt
        return cur
    return Func(unroll)


def _apply(_app, f, a):
    return f.apply(a)


class Interpreter:
    """Memoizing evaluator.

    One instance shares denotations across calls, keyed on the interned
    term and the fuel, so walking a reduction trace whose entries share
    most of their structure costs little more than denoting one of them.
    """

    def __init__(self):
        self._memo = {}  # fuel -> {term: value}

    def denote(self, t, fuel):
        if t.ty is None:
            type_of(t)  # raises with the offending subterm
        memo = self._memo.get(fuel)
        if memo is None:
            memo = self._memo[fuel] = {}
        return fold(t, lambda c: self._constant(c, fuel), _apply, memo)

    def denote_base(self, t, fuel):
        if t.ty is not Iota:
            raise WrongType(f"denote_base needs a base-type term, got {t.ty}")
        return self.denote(t, fuel).partial

    def _constant(self, t, fuel):
        tag = t.tag
        if tag == "zero":
            return Base(unit(0))
        if tag == "succ":
            return _succ_value()
        if tag == "pred":
            return _pred_value()
        if tag == "ifz":
            return _ifz_value()
        if tag == "k":
            return _k_value()
        if tag == "s":
            return _s_value()
        if tag == "fix":
            return _fix_value(t.params[0], fuel)
        raise AssertionError(f"unknown constant {tag}")


def denote(t, fuel):
    return Interpreter().denote(t, fuel)


def denote_base(t, fuel):
    return Interpreter().denote_base(t, fuel)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a cross-check: ok, vacuous, inconclusive, or violation."""

    status: str
    value: int | None = None
    detail: str = ""

    @property
    def passed(self):
        return self.status != "violation"


def check_soundness(s, max_steps, fuel):
    """Reduction must not change a committed denotation.

    Denotes s, and when that commits to a value, walks the trace checking
    every reduct against it at the same fuel and at half fuel.  A bottom
    on the reduct side is fine (a lower approximant), a different value
    is a violation.
    """
    interp = Interpreter()
    start = interp.denote_base(s, fuel)
    if not start.defined:
        return Verdict("vacuous")
    n = start.value
    _, trace, _ = reduce(s, max_steps)
    fuels = (fuel,) if fuel == 0 else (fuel, fuel // 2)
    for t, _rule in trace:
        for f2 in fuels:
            m = interp.denote(t, f2).partial
            if m.defined and m.value != n:
                return Verdict(
                    "violation", n,
                    f"{term_to_sexp(t)} denotes {render(m)} at fuel {f2},"
                    f" expected eta {n}")
    return Verdict("ok", n)


def check_adequacy(t, fuel, max_steps):
    """A committed denotation must be realized operationally."""
    v = denote_base(t, fuel)
    if not v.defined:
        return Verdict("vacuous")
    m = reaches_numeral(t, max_steps)
    if m == v.value:
        return Verdict("ok", v.value)
    return Verdict(
        "violation", v.value,
        f"denotes eta {v.value} but {max_steps} steps reach {m}")


def check_semidecidability(t, fuel, max_steps):
    """The two semi-decision procedures must agree when both commit."""
    den = denote_base(t, fuel)
    opn = reaches_numeral(t, max_steps)
    if den.defined and opn is not None:
        if den.value == opn:
            return Verdict("ok", opn)
        return Verdict(
            "violation", den.value,
            f"denotation eta {den.value} vs operational {opn}")
    if not den.defined and opn is None:
        return Verdict("inconclusive", detail="both sides undefined")
    side = "denotation" if den.defined else "operational"
    return Verdict("inconclusive",
                   detail=f"only the {side} side committed in budget")
