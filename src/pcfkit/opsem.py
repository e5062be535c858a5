"""Small-step operational semantics.

step gives the unique one-step reduct (the relation is single-valued);
successors re-derives the same conclusions schema by schema and is the
oracle the single-valuedness tests compare against; reduce iterates step
with a budget and records the trace; reaches_numeral is the bounded
semi-decision procedure for "this base term computes a numeral".

The bounded no-trace path dispatches to the compiled kernel whenever
``pcfkit._kernel`` imports, and to the pure engine otherwise; the pure
engine is the reference the kernel is tested against. Both engines walk
a zipper (a path stack into the term) so that a reduction step costs
O(1) amortized instead of a root-to-redex rescan. ``step`` and
``reduce`` share the pure engine's zipper: each of their steps is one
``_run_pure`` run with a budget of 1.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import syntax
from .rules import CONGRUENCE_RULES, RuleName
from .syntax import App, Iota, Term

__all__ = [
    "Step", "WrongType", "step", "successors", "reduce", "run_bounded",
    "reaches_numeral", "StepRelation", "engine_name",
]


class Step(NamedTuple):
    next: Term
    rule: RuleName


class WrongType(TypeError):
    """An operation that needs a base-type term got something else."""


_AL = RuleName.AppLeft


def _contract(t, r):
    """Apply a root-level (non-congruence) rule to t."""
    f, a = t.fun, t.arg
    if r is RuleName.PredZero:
        return a                                   # pred 0 ~> 0
    if r is RuleName.PredSucc:
        return a.arg                               # pred (succ n) ~> n
    if r is RuleName.IfzZero:
        return f.fun.arg                           # zero branch
    if r is RuleName.IfzSucc:
        return f.arg                               # successor branch
    if r is RuleName.KRule:
        return f.arg                               # k s t ~> s
    if r is RuleName.SRule:
        return App(App(f.fun.arg, a), App(f.arg, a))
    if r is RuleName.FixRule:
        return App(a, t)                           # fix f ~> f (fix f)
    raise AssertionError(r)


def step(t: Term) -> Optional[Step]:
    """The unique one-step reduct of t, or None when no rule applies."""
    r = t.rule
    if r is None:
        return None
    return Step(_run_pure(t, 1)[0], r)


def successors(t: Term) -> list:
    """Every conclusion derivable from t, trying the eleven schemas
    independently of step. Duplicates are preserved.

    On well-typed terms the result has at most one element; that is a
    tested property, not something this function enforces.
    """
    out = []
    if t.tag != "app":
        return out
    f, a = t.fun, t.arg
    n = syntax.as_numeral(a)
    # pred 0 ~> 0 ; pred (n+1) ~> n
    if f is syntax.Pred and n is not None:
        out.append(syntax.numeral(0) if n == 0 else syntax.numeral(n - 1))
    # ifz s t 0 ~> s ; ifz s t (n+1) ~> t
    if (f.tag == "app" and f.fun.tag == "app" and f.fun.fun is syntax.Ifz
            and n is not None):
        out.append(f.fun.arg if n == 0 else f.arg)
    # k s t ~> s
    if f.tag == "app" and f.fun.tag == "k":
        out.append(f.arg)
    # s f g t ~> f t (g t)
    if f.tag == "app" and f.fun.tag == "app" and f.fun.fun.tag == "s":
        out.append(App(App(f.fun.arg, a), App(f.arg, a)))
    # fix f ~> f (fix f)
    if f.tag == "fix":
        out.append(App(a, App(f, a)))
    # f ~> g  gives  f t ~> g t
    for g in successors(f):
        out.append(App(g, a))
    # succ s ~> succ t ; pred s ~> pred t
    if f is syntax.Succ or f is syntax.Pred:
        for b in successors(a):
            out.append(App(f, b))
    # ifz s t r ~> ifz s t r'
    if f.tag == "app" and f.fun.tag == "app" and f.fun.fun is syntax.Ifz:
        for b in successors(a):
            out.append(App(f, b))
    return out


def reduce(t: Term, max_steps: int):
    """Iterate step at most max_steps times.

    Returns (final, trace, exhausted) where trace lists (term, rule)
    after each step and exhausted means the budget ran out with the
    term still stepping.
    """
    trace = []
    cur = t
    for _ in range(max_steps):
        r = cur.rule
        if r is None:
            break
        cur = _run_pure(cur, 1)[0]
        trace.append((cur, r))
    return cur, trace, cur.rule is not None


def _run_pure(t, max_steps):
    """Bounded no-trace reduction; returns (final, steps_used).

    Keeps the path to the current redex on a stack. After contracting,
    the next redex is at or below the contraction site whenever the new
    subterm still steps (single-valuedness makes the congruence path
    above it stable), so no rescan from the root is needed. step and
    reduce take their one step through this same zipper with a budget
    of 1.
    """
    cur = t
    frames = []
    steps = 0
    while True:
        r = cur.rule
        if r is None or steps >= max_steps:
            # rebuild the spine one frame up; done at the root
            if not frames:
                return cur, steps
            other, cur_is_fun = frames.pop()
            cur = App(cur, other) if cur_is_fun else App(other, cur)
            continue
        while r in CONGRUENCE_RULES:
            if r is _AL:
                frames.append((cur.arg, True))
                cur = cur.fun
            else:
                frames.append((cur.fun, False))
                cur = cur.arg
            r = cur.rule
        cur = _contract(cur, r)
        steps += 1


try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:
    _kernel = None


def _run_compiled(t, max_steps):
    """_run_pure on the compiled kernel: encode t into flat arrays, reduce
    there, and decode the result back into interned terms."""
    from . import arena
    enc = arena.encode(t)
    root, steps = _kernel.run(enc.tags, enc.fun, enc.arg, enc.numv,
                              enc.rule, enc.root, max_steps)
    return arena.decode(enc, root), steps


def engine_name() -> str:
    return "compiled" if _kernel is not None else "pure"


def run_bounded(t: Term, max_steps: int):
    """Bounded reduction without the trace; returns (final, steps_used).

    Same final term as reduce, much cheaper on long runs, and the call
    that dispatches to the compiled kernel when one is loaded.
    """
    if _kernel is not None:
        return _run_compiled(t, max_steps)
    return _run_pure(t, max_steps)


def reaches_numeral(t: Term, k: int):
    """n if t reduces to the numeral n within k steps, else None."""
    if t.ty is not Iota:
        raise WrongType(f"reaches_numeral needs a base-type term, got {t.ty}")
    final, _ = run_bounded(t, k)
    return final.numeral


class StepRelation:
    """The PCF step relation packaged for the generic closure procedures."""

    def next(self, x):
        s = step(x)
        return None if s is None else s.next

    def eq(self, x, y):
        return x is y
