"""Helpers shared by the test modules.

The acceptance module appends (number, passed, name, detail) rows to
``ACCEPTANCE_RESULTS``; the hook prints them as a block in the summary
area, where pytest's output capture cannot swallow them.
``shallow_stack`` lowers the recursion limit around a block;
``collector_off`` runs a block with the cyclic garbage collector off;
``engine_app_calls`` counts the terms a run of the engine makes.
``_subterms`` lists a term's distinct subterms and ``_forget_values``
clears the denotations `scott` keeps on terms.
``small_terms`` lists every closed term of a type with a given number
of nodes.
``recursive_function`` and ``recursive_programs`` write surface
programs that recurse on a numeral, so that their denotations commit
only at fuels well past one unrolling of `fix`. ``ADD_SRC`` and
``MUL_SRC`` are the surface sources of addition and multiplication.
"""

import gc
import sys
from contextlib import contextmanager
from functools import lru_cache

ACCEPTANCE_RESULTS = []

# Addition and multiplication by recursion on the second argument, as in
# the benchmark; call-by-name makes mul n n blow up in n.
ADD_SRC = (r"(fix \f:nat -> nat -> nat. \x:nat. \y:nat."
           r" ifz x (succ (f x (pred y))) y)")
MUL_SRC = (r"(fix \m:nat -> nat -> nat. \x:nat. \y:nat."
           r" ifz #0 (" + ADD_SRC + r" x (m x (pred y))) y)")


@contextmanager
def shallow_stack():
    """Run the block with the recursion limit 60 frames above the
    current stack depth, so a walk that recurses once per level of its
    input fails at small sizes instead of passing under a high limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextmanager
def collector_off():
    """Run the block with the cyclic collector off, after collecting
    what earlier tests left, so that only reference counting frees
    objects inside it and a weak pool's size moves with the block's own
    objects alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def engine_app_calls():
    """Run the block with ``opsem.App`` and ``syntax._unroll`` wrapped,
    and yield a one-item list that counts the applications they return:
    one per call of ``opsem.App``, and k per ``f^k t`` that the fix
    shortcut unrolls. The engine makes every other term through
    ``opsem.App``, so this is the work a run did, also where it built
    only terms the pool already held or dropped them all on return."""
    from pcfkit import opsem, syntax

    app, unroll, calls = opsem.App, syntax._unroll, [0]

    def counted(fun, arg):
        calls[0] += 1
        return app(fun, arg)

    def counted_unroll(f, t, k):
        calls[0] += k
        return unroll(f, t, k)

    opsem.App, syntax._unroll = counted, counted_unroll
    try:
        yield calls
    finally:
        opsem.App, syntax._unroll = app, unroll


def _subterms(t):
    """Each distinct subterm of t, mapped to whether a fix is below it."""
    from pcfkit.syntax import fold

    memo = {}
    fold(t, lambda c: c.tag == "fix", lambda _x, f, a: f or a, memo)
    return memo


def _forget_values(terms):
    """Clear the value, and the fuel it holds from, that scott keeps on
    each of these terms."""
    for x in terms:
        x.value, x.since = None, float("inf")


@lru_cache(maxsize=None)
def small_terms(ty, size):
    """Every closed term of type ty with exactly ``size`` nodes (an
    application counts one node more than its two parts), in a fixed
    order: the constants, then the applications whose argument type is
    nat, nat -> nat, nat -> nat -> nat, (nat -> nat) -> nat or
    (nat -> nat) -> nat -> nat, by argument type, then by the size of
    the function part."""
    from pcfkit.syntax import App, Arrow, Iota, Zero, _constants_at, constant

    if size == 1:
        heads = [Zero] if ty is Iota else []
        return tuple(heads + [constant(*g) for g in _constants_at(ty)])
    nn = Arrow(Iota, Iota)
    out = []
    for a in (Iota, nn, Arrow(Iota, nn), Arrow(nn, Iota), Arrow(nn, nn)):
        for n in range(1, size - 1):
            for f in small_terms(Arrow(a, ty), n):
                out += [App(f, x) for x in small_terms(a, size - 1 - n)]
    return tuple(out)


# one-hole contexts around the recursive call; a second {} is the same hole
_CONTEXTS = ("succ ({})", "pred ({})", "{}", "ifz ({}) (succ ({})) x",
             "ifz #0 ({}) (pred x)")
_BASES = ("#{}", "succ #{}", "pred #{}", "x", "ifz x #{} #1")


def recursive_function(rng):
    """Surface source of a function of type nat -> nat that recurses
    on its argument: ``fix \\f:nat -> nat. \\x:nat. ifz B (C[f (pred
    x)]) x``, with B a small base term and C one or two random
    contexts."""
    body = "f (pred x)"
    for _ in range(rng.randrange(1, 3)):
        ctx = rng.choice(_CONTEXTS)
        body = ctx.format(*[body] * ctx.count("{}"))
    base = rng.choice(_BASES).format(rng.randrange(4))
    return rf"(fix \f:nat -> nat. \x:nat. ifz ({base}) ({body}) x)"


def recursive_programs(rng, count, max_n=40):
    """Sources of ``count`` base-type programs: a `recursive_function`
    applied to a numeral of at most ``max_n``."""
    return [f"{recursive_function(rng)} #{rng.randrange(max_n + 1)}"
            for _ in range(count)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for num, ok, name, detail in sorted(ACCEPTANCE_RESULTS):
        word = "PASS" if ok else "FAIL"
        terminalreporter.line(f"{num:>2} {word}  {name}  [{detail}]")
