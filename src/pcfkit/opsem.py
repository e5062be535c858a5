"""Small-step operational semantics.

step gives the unique one-step reduct (the relation is single-valued);
successors re-derives the same conclusions schema by schema and is the
oracle the single-valuedness tests compare against; reduce iterates step
with a budget and records the trace; reaches_numeral is the bounded
semi-decision procedure for "this base term computes a numeral".

The engine walks a zipper (a path stack into the term) so that a
reduction step within one ``run_bounded`` call costs O(1) amortized
instead of a root-to-redex rescan. Each step of ``step`` and ``reduce``
is a fresh ``_run_pure`` run with a budget of 1 that starts at the
root, so it costs O(d) for a redex d deep: ``reduce(fix succ, n)`` is
quadratic in n. It would stay quadratic however it walked, since each
term of its trace is a new root-to-redex path: n(n-1)/2 ``App`` calls.

The engine builds only the terms a run keeps. Its focus is an interned
term or a pending application held as its two parts: the ``s`` rule's
``f t (g t)``, the ``f (fix f)`` of the fix rule, and the spine a memo
splice or a frame pop gives. A pending focus that steps gets its rule
from ``syntax._app_rule``, and the engine descends into a part or
contracts from the parts, so it goes from one contractum to the next
redex without plugging it back into a term (refocusing, Danvy and
Nielsen 2004). The focus is interned only when it is a normal form or
the budget is used up, because a frame pop, a memo entry or the return
needs the term; the fix rule interns ``fix f``, which ``f (fix f)`` holds.

The relation is call-by-name, so a run can reduce the same interned
subterm to normal form many times over (the benchmark's ``mul 4 4``
takes 168,861 steps). Every root redex has a head in normal form, so a
subterm the zipper enters through a congruence rule is reduced to
normal form before its frame pops, unless the budget runs out first,
in a number of steps that does not depend on the context.
``run_bounded`` therefore keeps a memo from such subterms to their
normal form and step count, which lives for that one call, and reuses
an entry whenever its steps fit in the budget left: the final term and
the step count are exactly those of the memo-free run. ``run_memo``
runs the same way and also hands the memo to its caller: each entry is
a pair c ~>* nf, which the soundness check denotes on both sides.
``step`` and ``reduce`` run without the memo, and the memo-free
``_run_pure`` stays the reference.

When ``fix f ~> f (fix f)`` gives a term that steps inside its argument
(f is succ, pred or ifz s t), each later step unrolls the same
``fix f`` once more, so k steps from ``fix f`` give ``f^k (fix f)`` and
the budget always runs out there. The engine builds ``f^k (fix f)`` for
the k steps left at once, with no frame per unrolling, through
``syntax._unroll``: it walks up the part of the chain the pool already
holds, builds the first missing term through ``App``, and enters each
later one with no pool lookup, which could not hit, since its key holds
the term built just before it in the same call. Every run takes it
unless it stops early (below), and ``successors`` still derives each
unrolling on its own.

A caller that reads only whether a run ends at a numeral
(``reaches_numeral``, the adequacy and semidecidability checks, and
``pcf run``) asks ``run_bounded`` for a numeral-only run. Such a run
also marks each subterm it is still reducing in the memo, and stops
with ``(None, max_steps)`` by one rule: when, with budget left, it
would meet a subterm it is still reducing again. Such a subterm is a
black hole in Launchbury's sense (1993, "A natural semantics for lazy
evaluation"): its normal form would depend on itself, so no budget
reaches a numeral. ``_run_pure``'s docstring states the rule, the
three sites that check it and why it is exact. The check is sound but
not complete: a loop whose terms keep growing, such as
``(fix \\g:nat -> nat. \\n:nat. g (succ n)) #0``, meets no subterm again
and runs until its budget is used up.

``run_bounded`` pauses CPython's cyclic garbage collector for the run,
and leaves it as it found it, also when the run raises. This is safe
because the engine builds only acyclic data: an interned term points
only at terms built before it, and the pool keys and weak references,
the zipper's frame tuples, the pending parts and the memo entries point
only at terms. Reference counting alone frees all of it, so a
collection during the run would scan the new objects and find nothing
to free. ``step`` and ``reduce`` leave the collector alone, so that no
pause has to last across a return to their caller between steps. The
collector's switch is process-wide, one more reason the engine is
single-threaded, as interning is.
"""

from __future__ import annotations

import gc
from collections import namedtuple

from . import syntax
from .syntax import (
    CONGRUENCE_RULES, App, RuleName, Term, WrongType, _app_rule, _check_base,
    _check_natural,
)

__all__ = [
    "Step", "WrongType", "step", "successors", "reduce", "run_bounded",
    "run_memo", "reaches_numeral", "StepRelation", "engine_name",
]


# one step: the reduct ``next`` and the ``rule`` that produced it
class Step(namedtuple("Step", "next rule"), syntax.Record):
    __slots__ = ()

_AL = RuleName.AppLeft
_FIX = RuleName.FixRule
_S = RuleName.SRule
# congruence rules that step inside the argument
_INTO_ARG = CONGRUENCE_RULES - {_AL}
# the memo value of a subterm the zipper is reducing in a numeral-only run
_BUSY = object()


def _contract(f, a, r):
    """Apply a root rule other than s and fix to App(f, a), from its
    parts."""
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
    raise AssertionError(r)


def step(t: Term) -> Step | None:
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
    n = a.numeral
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
    term still stepping. A budget that is not an int (a bool neither)
    is a TypeError, and a negative one a ValueError.
    """
    _check_natural(max_steps, "step budget")
    trace = []
    cur = t
    for _ in range(max_steps):
        r = cur.rule
        if r is None:
            break
        cur = _run_pure(cur, 1)[0]
        trace.append((cur, r))
    return cur, trace, cur.rule is not None


def _run_pure(t, max_steps, memo=None, *, numeral_only=False):
    """Bounded no-trace reduction; returns (final, steps_used).

    Keeps the path to the current redex on a stack. After contracting,
    the next redex is at or below the contraction site whenever the new
    subterm still steps (single-valuedness makes the congruence path
    above it stable), so no rescan from the root is needed. step and
    reduce take each step as a fresh run from the root with a budget of
    1, without a memo.

    The focus is an interned term, or a pending application held as its
    two parts ``fun`` and ``arg`` (then ``cur`` is None): the ``s``
    rule's ``f t (g t)``, the ``f (fix f)`` of the fix rule, and the
    spine a memo splice or a frame pop gives. Its rule comes from
    ``syntax._app_rule(fun, arg)``; a congruence rule descends into a
    part and a root rule contracts from the parts, so a pending focus
    that steps is never built. It is interned only where the run keeps
    it: at a normal form or an exhausted budget, because a frame pop,
    a memo entry or the return needs the term. The fix rule interns
    ``fix f`` once, since ``f (fix f)`` and ``syntax._unroll`` both
    hold it.

    ``memo``, when given, maps an interned subterm to (normal form,
    steps). Every root redex has a head in normal form, so a subterm
    the zipper enters through a congruence rule is reduced to normal
    form before its frame pops, unless the budget runs out first, and
    the steps it takes there do not depend on the context. Each frame
    records the subterm it entered and the step count at entry; a frame
    that pops on a normal form stores that subterm's entry, and one
    that pops on an exhausted budget stores nothing. A later descent
    into the same subterm splices the stored normal form in and adds
    its steps when they fit in the budget, and steps as usual
    otherwise, so final terms and step counts are those of the
    memo-free run at every budget. run_bounded passes a fresh memo on
    each call.

    The fix rule takes one shortcut. When ``fix f ~> f (fix f)`` gives a
    term that steps inside its argument (f is succ, pred or ifz s t),
    every step left unrolls that same ``fix f`` once more, so the budget
    runs out there, at ``f^k (fix f)`` for the k steps left. The zipper
    builds that term with ``syntax._unroll``, which looks the chain up
    in the pool only as far as its first missing term (every later key
    holds a term built in the same call, so no lookup could hit), and
    sets the step count to the budget. The frames above it then pop on
    an exhausted budget and store no memo entry, just as after k single
    steps. Such a ``fix f`` never reaches a normal form, so the memo
    never holds it.

    ``numeral_only`` (with a memo) is for a caller that reads only
    whether the final term is a numeral. The run marks the start term,
    and each subterm it enters through a congruence rule, as in progress
    in the memo; a frame that pops on a normal form replaces the mark
    with the usual entry. The stop rule: while budget is left, the run
    returns ``(None, max_steps)`` at once when it would meet again a
    term X that it is still reducing. Three sites check it:

    * the loop head, past the start: the focus that steps, after a
      contraction, a memo splice or a frame rebuild (each takes a step
      or more), is back at X, the term its own depth entered (the start
      term at the root, else the child of the top frame). Both are
      applications, so their parts are compared, and a pending focus is
      neither built nor looked up;
    * a descent: X is the marked child the run is about to enter;
    * the fix rule: X is a ``fix f`` that the shortcut would unroll with
      two steps or more left, which the step after the unrolling would
      enter.

    This is exact. Only a frame that pops on an exhausted budget leaves
    its mark behind, and no check is made after that, so a marked X is
    the start term or a child whose frame is still on the stack. Either
    way X reduces, in at least one step (a proper subterm cannot equal
    its whole), to a term that holds X again in a congruence position,
    so by the invariant above the steps X takes to its normal form are
    at least one more than its own: X has none, nor has the whole term,
    which holds X in a congruence position, and no budget reaches a
    numeral. The loop head looks only for its own depth's X, and misses
    none of the others for long: a focus that equals a marked X of a
    shallower depth repeats X's steps, which do not depend on the
    context, so it enters again the child whose frame sits just above
    X's, and the descent check stops the run within one loop. If the
    budget runs out first, the run returns what the full run returns,
    as any run that ends on its budget does.
    """
    cur = t
    fun = arg = None  # the parts of a pending focus, when cur is None
    frames = []
    steps = 0
    if numeral_only:
        memo[t] = _BUSY
    while True:
        if cur is None:
            r = _app_rule(fun, arg)
        else:
            r = cur.rule
            fun, arg = cur.fun, cur.arg
        if r is None or steps >= max_steps:
            # rebuild the spine one frame up; done at the root
            if cur is None:
                cur = App(fun, arg)
            if not frames:
                return cur, steps
            other, cur_is_fun, child, entry = frames.pop()
            if r is None and memo is not None:
                memo[child] = (cur, steps - entry)
            if cur_is_fun:
                fun, arg = cur, other
            else:
                fun, arg = other, cur
            cur = None
            continue
        # past the start, a focus that is back at the term its depth
        # entered never reaches a normal form; the focus steps, so it is
        # an application, equal to that term when both parts are
        if numeral_only and steps:
            x = frames[-1][2] if frames else t
            if fun is x.fun and arg is x.arg:
                return None, max_steps
        while r in CONGRUENCE_RULES:
            if r is _AL:
                child, other, cur_is_fun = fun, arg, True
            else:
                child, other, cur_is_fun = arg, fun, False
            if memo is not None:
                hit = memo.get(child)
                if hit is _BUSY:
                    return None, max_steps
                if hit is not None and steps + hit[1] <= max_steps:
                    nf, used = hit
                    steps += used
                    if cur_is_fun:
                        fun, arg = nf, other
                    else:
                        fun, arg = other, nf
                    cur = None
                    break
                if numeral_only:
                    memo[child] = _BUSY
            frames.append((other, cur_is_fun, child, steps))
            cur = child
            fun, arg = cur.fun, cur.arg
            r = cur.rule
        else:
            # no memo hit on the way down: r contracts a root redex
            if r is _FIX:
                # fix f, interned once: f (fix f) and the unrolling hold it
                fx = App(fun, arg) if cur is None else cur
                if _app_rule(arg, fx) in _INTO_ARG:
                    # f (fix f) steps inside fix f, so every step left
                    # unrolls it once more: the budget runs out here
                    if numeral_only and steps + 1 < max_steps:
                        return None, max_steps
                    cur = syntax._unroll(arg, fx, max_steps - steps)
                    steps = max_steps
                else:
                    steps += 1
                    fun, arg, cur = arg, fx, None
            elif r is _S:
                # s f g t ~> f t (g t), pending
                steps += 1
                fun, arg, cur = App(fun.fun.arg, arg), App(fun.arg, arg), None
            else:
                steps += 1
                cur = _contract(fun, arg, r)


def engine_name() -> str:
    """The name of the reduction engine, kept for callers that record it."""
    return "pure"


def run_memo(t: Term, max_steps: int, *, numeral_only=False):
    """run_bounded's run, with its memo: returns (final, steps_used, memo).

    The memo maps each subterm c that the zipper entered through a
    congruence rule and reduced to its normal form nf within the budget
    to ``(nf, steps)``, so each entry is a pair c ~>* nf of the paper's
    relation. In a numeral-only run, the start term and each subterm the
    run left unfinished map to an in-progress mark instead of a pair.

    The cyclic garbage collector is paused for the run: the engine
    builds no reference cycle, so reference counting frees what the run
    drops. If the collector was on, it is switched back on when the run
    returns or raises; if it was off, it stays off. A step budget that
    is not an int (a bool neither) is a TypeError, and a negative one a
    ValueError.
    """
    _check_natural(max_steps, "step budget")
    memo = {}
    paused = gc.isenabled()
    gc.disable()
    try:
        final, steps = _run_pure(t, max_steps, memo,
                                 numeral_only=numeral_only)
    finally:
        if paused:
            gc.enable()
    return final, steps, memo


def run_bounded(t: Term, max_steps: int, *, numeral_only=False):
    """Bounded reduction without the trace; returns (final, steps_used).

    Same final term and step count as reduce, much cheaper on long runs:
    it runs _run_pure with a memo of subterm normal forms that lives for
    this one call (see run_memo). The memo keeps the step count exact
    because every root redex has a head in normal form, so a subterm
    entered through a congruence rule reaches its normal form, in steps
    that do not depend on the context, before the zipper leaves it (see
    _run_pure).

    With ``numeral_only``, for a caller that reads only whether the run
    ends at a numeral, the run may stop early and return
    ``(None, max_steps)``. It does so only when no budget reaches a
    numeral, by the stop rule that _run_pure's docstring states: with
    budget left, it would meet again a subterm it is still reducing.
    Otherwise it returns what the full run returns.
    """
    return run_memo(t, max_steps, numeral_only=numeral_only)[:2]


def reaches_numeral(t: Term, k: int):
    """n if t reduces to the numeral n within k steps, else None.

    Runs run_bounded with ``numeral_only``, so a run that meets again a
    subterm it is still reducing (the stop rule in _run_pure's
    docstring) answers None at once instead of after k steps: no budget
    reaches a numeral. An ill-typed t is a TypeMismatch that
    names the offending application, as in scott.denote, and a
    well-typed t of arrow type a WrongType.
    """
    _check_base(t, "reaches_numeral")
    final, _ = run_bounded(t, k, numeral_only=True)
    return None if final is None else final.numeral


class StepRelation:
    """The PCF step relation packaged for the generic closure procedures."""

    def next(self, x):
        s = step(x)
        return None if s is None else s.next

    def eq(self, x, y):
        return x is y
