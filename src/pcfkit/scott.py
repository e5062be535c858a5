"""Fuel-indexed denotational interpreter with cross-check harnesses.

Terms denote partial naturals at base type and `Func` data at arrow
types: a constant applied to fewer arguments than its arity, interned
(single-threaded, as in `syntax`) so that equal values are one object,
memoized per argument keyed structurally, and applied by one loop over
an explicit stack.  Each occurrence of the fixed-point constant is
unrolled a fixed number of times (the fuel) from the bottom value of
its type, so every answer is a finite approximant of the intended
meaning: raising the fuel can turn `bot` into a definite value, never
change one.  The fuel reaches a term only through its `fix`
occurrences: every other constant means the same at every fuel.

`fix f` means the least upper bound of the chain f^n(bot).  Once an
iterate is a fixed point of f, every longer chain ends at it, so every
higher fuel gives the same value: one `fix` loop stops there.  And
since the approximants climb with the fuel, a base-type subterm that
denotes a defined natural at one fuel denotes it at every higher one:
``eta k`` is maximal in the information order.  So a subterm has one
value at every fuel from some fuel on when no `fix` is below it (from
fuel 0 on), once the `fix`es below it have reached their fixed points,
or once it is a defined natural (from the fuel a fold found it at on).
That is a fact about the interned term, not about
the `Interpreter` that found it, and it is kept in one table on the
term: `syntax.Term.value` is the term's denotation at every fuel from
`syntax.Term.since` on.  The first `Interpreter` to find it writes it
there, every later one reads it at any fuel from ``since`` on and walks
no further down, and a fold at a lower fuel that finds it again lowers
``since``.  The value is an interned `Func`, which a fresh
`Interpreter` would compute as the same object, or a partial natural,
which it would compute equal; it refers to no term, so the term still
dies with its last outside reference.  A constant's value is not kept
on it: `Succ`, `Pred` and `Ifz` live for good, and the caches of their
values would grow with every argument ever applied.
"""

from __future__ import annotations

from collections import namedtuple

# the adequacy and semidecidability checks call `opsem.run_bounded` by
# its module name, which pcfbench's tracer wraps
from . import opsem
from .lifting import BOT, kleisli, fmap, render, unit
# pcfbench's tracer wraps `reduce` under this module's name, and its
# install fails without it; the `opsem.reduce` span of the `denote`
# workload comes only from check_soundness's `reduce(s, 1)`. Both go
# when the tracer's patch list changes (ROADMAP item 1).
from .opsem import reduce, run_memo
from .syntax import (
    Arrow, Iota, Record, _check_base, _check_natural, fold, type_of,
    term_to_sexp, weak_pool,
)

__all__ = [
    "Func", "Interpreter", "Verdict",
    "bottom_value", "denote", "denote_base",
    "check_soundness", "check_adequacy", "check_semidecidability",
]

_MISS = object()
_ZERO = unit(0)  # one object, so Zero denotes the same at every fuel
# the arguments at which check_soundness compares two values of a type;
# None stands for the value itself
_PROBES = {Iota: (None,),
           Arrow(Iota, Iota): (BOT,) + tuple(unit(n) for n in range(6))}

# arguments each constant takes before it computes; fix takes the
# bottom of its type and its fuel ahead of the function
_ARITY = {"succ": 1, "pred": 1, "ifz": 3, "k": 2, "s": 3, "fix": 3}


class Func:
    """An arrow-type value: constant ``tag`` applied to ``args``.

    Instances are interned through a `syntax.weak_pool`, as
    `syntax.Term` is, so ``is`` means the same constant applied to the
    same arguments: a plain dict from key to weak reference, whose
    entries leave it when their values die.  The pool is
    single-threaded, as `syntax`'s is.  Applications are
    memoized per argument in ``_cache``, keyed by the argument itself:
    a partial natural by its value, a Func by identity, which interning
    makes structural.

    Pool keys hold their arguments, so a Func reachable from them
    through caches outlives its `Interpreter` and carries cache hits
    across operations.  With values kept on terms that still pays: one
    pool per `Interpreter` in its place ran the `denote` benchmark
    workload at a third of the operations a second, with a peak RSS
    about 45% higher (see ROADMAP item 5).  A fix for that leak must
    keep the hits across Interpreters.
    """

    __slots__ = ("tag", "args", "_cache", "__weakref__")

    def __new__(cls, tag, args):
        key = (tag, args)
        ref = _pool.get(key)
        if ref is not None:
            f = ref()
            if f is not None:
                return f
        f = super().__new__(cls)
        f.tag = tag
        f.args = args
        f._cache = {}
        return _pool_add(key, f)

    def apply(self, arg):
        return _apply(self, arg)

    def __repr__(self):
        return f"Func({self.tag!r}, {self.args!r})"


Func._pool, _pool_add = weak_pool()
_pool = Func._pool


def bottom_value(sigma):
    """Least element of the type's domain: bot, constantly extended,
    with one k layer per arrow down the codomain chain (no recursion)."""
    arrows = 0
    while sigma is not Iota:
        arrows, sigma = arrows + 1, sigma.codomain
    v = BOT
    for _ in range(arrows):
        v = Func("k", (v,))
    return v


def _apply(f, a):
    """The value of f at a, computed without nesting Python calls.

    A miss in a cache pushes a memo frame that stores the answer.  The
    s rule applies its first function to a under an arg frame, which
    then applies the second, under a fun frame, which applies the first
    result to the second.  A fix frame holds the last iterate and the
    fuel left, and stops at no fuel or once an iterate repeats.
    """
    stack = []
    while True:
        v = f._cache.get(a, _MISS)
        if v is _MISS:
            stack.append(("memo", f, a))
            tag, args = f.tag, f.args
            if len(args) + 1 < _ARITY[tag]:
                v = Func(tag, args + (a,))
            elif tag == "succ":
                v = fmap(lambda n: n + 1, a)
            elif tag == "pred":
                # sends 0 to 0, forced by the pred-zero rule
                v = fmap(lambda n: n - 1 if n else 0, a)
            elif tag == "ifz":
                v = kleisli(lambda n: args[0] if n == 0 else args[1], a)
            elif tag == "k":
                v = args[0]
            elif tag == "s":
                stack.append(("arg", args[1], a))
                f = args[0]
                continue
            else:  # fix: the bottom iterate, with no previous one
                stack.append(("fix", a, _MISS, args[1]))
                v = args[0]
        while stack:
            frame = stack.pop()
            kind = frame[0]
            if kind == "memo":
                frame[1]._cache[frame[2]] = v
            elif kind == "arg":
                stack.append(("fun", v))
                f, a = frame[1], frame[2]
                break
            elif kind == "fun":
                f, a = frame[1], v
                break
            else:
                _, g, prev, left = frame
                # a repeated iterate is the fixed point: later ones equal it
                if left and v != prev:
                    stack.append(("fix", g, v, left - 1))
                    f, a = g, v
                    break
        else:
            return v


class Interpreter:
    """Memoizing evaluator that computes each value once for all the
    fuels, and all the Interpreters, at which it is the same.

    Denoting a term at a fuel returns the value kept on it when its
    ``since`` is at most that fuel (see the module docstring), and else
    folds it into that fuel's memo, from each constant and each subterm
    with no value kept for that fuel to its value there; the fold stops
    at every subterm whose kept value holds at that fuel.  The memos are
    the only table an Interpreter has.

    A fold at fuel n keeps an application's value on it by these rules,
    where the ``since`` of a constant other than `fix` is 0 and that of
    a `fix` infinite, since its value names its fuel:

    - `fix g`, with g's ``since`` at most n, is kept from n on when its
      result v is a fixed point of g, read off g's cache.  This is
      exact: the chain reached v within the fuel, and g v = v, so every
      longer chain stops at v;
    - any other application is kept from the later ``since`` of its
      operands, once both are at most n: the same operands give the
      same result.  With no `fix` below it, that is from 0 on;
    - a base-type application that neither rule keeps is kept from n on
      when its value is a defined natural: that is maximal, and the
      approximants climb with the fuel, so every higher fuel gives it.
      An arrow-type `fix` such as `add`'s never reaches a fixed point,
      so without this rule every fuel of a ladder would fold the whole
      term again after the answer is known.

    The fold reaches only an application whose ``since`` is above n, so
    a write only ever lowers ``since``.  A `fix g` or a defined natural
    is kept from the fuel where it was found, not from the least fuel
    that gives it, so `_apply` reports nothing back and the rules stay
    exact for fuels asked in any order.  A new fuel re-applies only the
    part of the terms above a `fix` that has not reached its fixed
    point and below every defined natural kept for it, and each
    application at most once per fuel.

    A fuel that is not an int (a bool neither) is a TypeError, and a
    negative one a ValueError, here and so in `denote`, `denote_base`
    and the checks: an arrow-type `fix` would iterate for good.
    """

    def __init__(self):
        self._memo = {}  # fuel -> {constant or term not kept: value}
        self._fuel = None  # the fuel of the fold running

    def denote(self, t, fuel):
        _check_natural(fuel, "fuel")
        if t.since <= fuel:
            return t.value
        if t.ty is None:
            type_of(t)  # raises with the offending subterm
        self._fuel = fuel
        if t.tag != "app":  # no value is kept on a constant; a fold costs 3x
            return self._constant(t)
        memo = self._memo.get(fuel)
        if memo is None:
            memo = self._memo[fuel] = {}
        return fold(t, self._constant, self._node, memo, known=fuel)

    def denote_base(self, t, fuel):
        if t.ty is not Iota:  # a fuel ladder calls this once per fuel
            _check_base(t, "denote_base")
        return self.denote(t, fuel)

    def _constant(self, t):
        if t.tag == "zero":
            return _ZERO
        if t.tag == "fix":
            return Func("fix", (bottom_value(t.params[0]), self._fuel))
        return Func(t.tag, ())

    def _node(self, x, f, a):
        """The value of application x from those of its operands, kept
        on x when the rules say."""
        v = _apply(f, a)
        fun, arg = x.fun, x.arg
        fuel = self._fuel
        # a constant other than fix means the same at every fuel; fix
        # keeps an infinite since
        sa = arg.since if arg.tag == "app" or arg.tag == "fix" else 0
        if fun.tag == "fix":
            # a loop that stopped at a repeated iterate left g v = v in
            # g's cache
            if sa <= fuel and a._cache.get(v, _MISS) == v:
                x.value, x.since = v, fuel
                return v
        else:
            sf = fun.since if fun.tag == "app" else 0
            since = sf if sf > sa else sa
            if since <= fuel:
                x.value, x.since = v, since
                return v
        # a defined natural is maximal, and the approximants climb with
        # the fuel: every higher fuel gives it too
        if x.ty is Iota and v.value is not None:
            x.value, x.since = v, fuel
        return v


def denote(t, fuel):
    return Interpreter().denote(t, fuel)


def denote_base(t, fuel):
    return Interpreter().denote_base(t, fuel)


class Verdict(namedtuple("Verdict", "status value detail",
                          defaults=(None, "")), Record):
    """Outcome of a cross-check: ``status`` is ok, vacuous, inconclusive
    or violation; ``value`` the committed numeral, if any (default
    None); ``detail`` what went wrong (default "")."""

    __slots__ = ()

    @property
    def passed(self):
        return self.status != "violation"


def check_soundness(s, max_steps, fuel):
    """Reduction must not change a committed denotation.

    Denotes s, and when that commits to eta n, runs s once within
    max_steps and checks the pairs c ~>* c' of that run, by the paper's
    soundness theorem (t ~> t' gives the same denotation, so t ~>* t'
    does too), at the same fuel and at half fuel:

    - s against its first reduct and against the run's final term, which
      need not be a normal form: each must not commit to anything but n;
    - each finished subterm c against its normal form nf, one memo entry
      of the run (see `opsem.run_memo`): at base type the two values,
      and at type nat -> nat their results at bot and at 0..5, must not
      commit to different numerals.

    A bottom on either side is fine (a lower approximant).  A subterm of
    any other type is skipped: its `Func` values compare as data, and
    equal functions can be different data.  So the cost follows the
    distinct subterms the run finishes, not its steps.  The first
    reduct comes from `reduce`, so the reference engine's step from s is
    checked on its own.  A step budget or a fuel that is not a natural
    is refused at once, as in `opsem.run_memo` and `Interpreter.denote`.
    """
    _check_natural(max_steps, "step budget")
    interp = Interpreter()
    start = interp.denote_base(s, fuel)
    if not start.defined:
        return Verdict("vacuous")
    n = start.value
    fuels = (fuel,) if fuel == 0 else (fuel, fuel // 2)
    _, trace, _ = reduce(s, min(max_steps, 1))
    final, _, memo = run_memo(s, max_steps)
    pairs = [(s, t) for t, _rule in trace] + [(s, final)]
    pairs += [(c, hit[0]) for c, hit in memo.items() if c.ty in _PROBES]
    for c, nf in pairs:
        for f2 in fuels:
            # s is held to eta n, its value at the full fuel
            a = start if c is s else interp.denote(c, f2)
            b = interp.denote(nf, f2)
            if a is b:  # one value cannot disagree with itself
                continue
            for x in _PROBES[c.ty]:
                va, vb = (a, b) if x is None else (_apply(a, x), _apply(b, x))
                if va.defined and vb.defined and va.value != vb.value:
                    at = "" if x is None else f" applied to {render(x)}"
                    return Verdict(
                        "violation", n,
                        f"{term_to_sexp(c)} ⇝* {term_to_sexp(nf)}, but{at}"
                        f" they denote {render(va)} and {render(vb)}"
                        f" at fuel {f2}")
    return Verdict("ok", n)


def check_adequacy(t, fuel, max_steps):
    """A committed denotation must be realized operationally.

    A numeral-only run that stops early means that no budget reaches a
    numeral, so next to a committed denotation it is a violation; a run
    still stepping when its budget ends makes the check inconclusive."""
    _check_natural(max_steps, "step budget")
    v = denote_base(t, fuel)
    if not v.defined:
        return Verdict("vacuous")
    final, _ = opsem.run_bounded(t, max_steps, numeral_only=True)
    if final is None:
        return Verdict(
            "violation", v.value,
            f"denotes eta {v.value} but the run never reaches a numeral")
    m = final.numeral
    if m == v.value:
        return Verdict("ok", v.value)
    return Verdict(
        "inconclusive" if m is None else "violation", v.value,
        f"denotes eta {v.value} but {max_steps} steps reach"
        f" {'no numeral' if m is None else m}")


def check_semidecidability(t, fuel, max_steps):
    """The two semi-decision procedures must agree when both commit.

    A numeral-only run that stops early means that no budget reaches a
    numeral, so next to a committed denotation it is a violation."""
    _check_natural(max_steps, "step budget")
    den = denote_base(t, fuel)
    final, _ = opsem.run_bounded(t, max_steps, numeral_only=True)
    if final is None and den.defined:
        return Verdict(
            "violation", den.value,
            f"denotation eta {den.value} but the run never reaches"
            " a numeral")
    opn = None if final is None else final.numeral
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
