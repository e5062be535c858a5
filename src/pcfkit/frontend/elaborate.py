"""Typed bracket abstraction from surface terms to combinatory terms.

Lambdas are removed innermost-first by the classical translation:

    [x:s] x      =  s k k        (instantiated as the identity at s)
    [x:s] M      =  k M          when x is not free in M
    [x:s] (M N)  =  s [x]M [x]N

with every combinator's type parameters computed from the types in
scope.  No eta rule and no other simplification: the translation is
deterministic and its output is stable enough to pin in tests.

A closed subterm is built as an interned `syntax.Term` at once, so
`syntax` alone knows each constant's type.  Only a subterm with a free
variable is an `_Open` node, carrying its type and its free names.
Every application is checked against the type the translation expects
when it is built; a `#n` literal becomes `numeral(n)`.
"""

from __future__ import annotations

from collections import namedtuple

from ..syntax import (
    App as CApp, Arrow, Fix, K, S, Term, TypeMismatch, constant, numeral,
)
from . import surface as sf

__all__ = ["elaborate"]


# A variable (fun None, arg its name) or an application with a free
# variable below it; free is the frozenset of those variables' names.
_Open = namedtuple("_Open", "fun arg ty free")


def _app(f, a, ty):
    """The application of f to a, whose type the caller computed as ty."""
    if isinstance(f, Term) and isinstance(a, Term):
        t = CApp(f, a)
        if t.ty is not ty:
            raise AssertionError("translation changed the type")
        return t
    return _Open(f, a, ty, frozenset().union(
        *(c.free for c in (f, a) if isinstance(c, _Open))))


def _lower(e):
    """Lower a closed surface term with two explicit stacks, so that no
    nesting of the input nests Python calls.  An item of ``todo`` is a
    surface term still to lower with its scope, or a node with the name
    of the check or construction ("fix", "arrow", "apply", "lambda")
    that waits on the values on top of ``done``."""
    done, todo = [], [(e, {})]
    while todo:
        e, env = todo.pop()
        if env == "fix":
            a = done.pop()
            if not (a.ty.is_arrow and a.ty.domain is a.ty.codomain):
                raise TypeMismatch(e, "an argument of type s -> s for fix",
                                   a.ty)
            done.append(_app(Fix(a.ty.domain), a, a.ty.domain))
        elif env == "arrow":  # checked before the argument is lowered
            if not done[-1].ty.is_arrow:
                raise TypeMismatch(e, "an arrow type", done[-1].ty)
        elif env == "apply":
            a = done.pop()
            f = done.pop()
            if a.ty is not f.ty.domain:
                raise TypeMismatch(e, f.ty.domain, a.ty)
            done.append(_app(f, a, f.ty.codomain))
        elif env == "lambda":
            done.append(_abstract(e.name, e.annot, done.pop()))
        elif isinstance(e, sf.Var):
            if e.name not in env:
                raise sf.UnboundVariable(e.name)
            done.append(_Open(None, e.name, env[e.name], frozenset((e.name,))))
        elif isinstance(e, sf.Prim):
            if e.tag == "fix":
                raise TypeMismatch(e, "fix applied to an argument of type"
                                   " s -> s", "a bare fix")
            done.append(constant(e.tag))
        elif isinstance(e, sf.NumLit):
            done.append(numeral(e.n))
        elif isinstance(e, sf.App) and e.fun == sf.FixS:
            todo += [(e, "fix"), (e.arg, env)]
        elif isinstance(e, sf.App):
            # the parser builds flat spines: the head is lowered first,
            # then each argument from the innermost application out
            while isinstance(e, sf.App) and e.fun != sf.FixS:
                todo += [(e, "apply"), (e.arg, env), (e, "arrow")]
                e = e.fun
            todo.append((e, env))
        elif isinstance(e, sf.Lam):
            todo += [(e, "lambda"), (e.body, {**env, e.name: e.annot})]
        else:
            raise TypeError(f"not a surface term: {e!r}")
    return done[0]


def _identity(sigma):
    arr = Arrow(sigma, sigma)
    return CApp(CApp(S(sigma, arr, sigma), K(sigma, arr)), K(sigma, sigma))


def _abstract(x, sigma, v):
    """[x:sigma] v, walking v with an explicit stack: an application
    with x free below it is visited once before its two halves and once
    after, when it combines their abstractions with s."""
    done, todo = [], [(v, False)]
    while todo:
        v, halves_done = todo.pop()
        tau = v.ty
        if halves_done:
            a, f = done.pop(), done.pop()
            ta = v.arg.ty
            s_f_ty = Arrow(Arrow(sigma, ta), Arrow(sigma, tau))
            done.append(_app(_app(S(sigma, ta, tau), f, s_f_ty), a,
                             Arrow(sigma, tau)))
        elif isinstance(v, Term) or x not in v.free:
            done.append(_app(K(tau, sigma), v, Arrow(sigma, tau)))
        elif v.fun is None:  # the variable x itself
            done.append(_identity(sigma))
        else:
            todo += [(v, True), (v.arg, False), (v.fun, False)]
    return done[0]


def elaborate(e):
    """Compile a closed surface term to a well-typed combinatory term."""
    return _lower(e)
