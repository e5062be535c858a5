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
    App as CApp, Arrow, Fix, Ifz, K, S, Succ, Pred, Term, TypeMismatch,
    Zero, numeral,
)
from . import surface as sf

__all__ = ["elaborate"]

_PRIMS = {"zero": Zero, "succ": Succ, "pred": Pred, "ifz": Ifz}


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


def _lower(e, env):
    if isinstance(e, sf.Var):
        if e.name not in env:
            raise sf.UnboundVariable(e.name)
        return _Open(None, e.name, env[e.name], frozenset((e.name,)))
    if isinstance(e, sf.Prim):
        if e.tag == "fix":
            raise TypeMismatch(e, "fix applied to an argument of type"
                               " s -> s", "a bare fix")
        return _PRIMS[e.tag]
    if isinstance(e, sf.NumLit):
        return numeral(e.n)
    if isinstance(e, sf.App) and e.fun == sf.FixS:
        a = _lower(e.arg, env)
        if not (a.ty.is_arrow and a.ty.domain is a.ty.codomain):
            raise TypeMismatch(e, "an argument of type s -> s for fix",
                               a.ty)
        return _app(Fix(a.ty.domain), a, a.ty.domain)
    if isinstance(e, sf.App):
        # the parser builds flat spines, so walk one in a loop: the
        # head first, then each argument from the innermost application
        spine = []
        while isinstance(e, sf.App) and e.fun != sf.FixS:
            spine.append(e)
            e = e.fun
        f = _lower(e, env)
        for node in reversed(spine):
            if not f.ty.is_arrow:
                raise TypeMismatch(node, "an arrow type", f.ty)
            a = _lower(node.arg, env)
            if a.ty is not f.ty.domain:
                raise TypeMismatch(node, f.ty.domain, a.ty)
            f = _app(f, a, f.ty.codomain)
        return f
    if isinstance(e, sf.Lam):
        body = _lower(e.body, {**env, e.name: e.annot})
        return _abstract(e.name, e.annot, body)
    raise TypeError(f"not a surface term: {e!r}")


def _identity(sigma):
    arr = Arrow(sigma, sigma)
    return CApp(CApp(S(sigma, arr, sigma), K(sigma, arr)), K(sigma, sigma))


def _abstract(x, sigma, v):
    tau = v.ty
    if isinstance(v, Term) or x not in v.free:
        return _app(K(tau, sigma), v, Arrow(sigma, tau))
    if v.fun is None:  # the variable x itself
        return _identity(sigma)
    ta = v.arg.ty
    s_f_ty = Arrow(Arrow(sigma, ta), Arrow(sigma, tau))
    return _app(_app(S(sigma, ta, tau), _abstract(x, sigma, v.fun), s_f_ty),
                _abstract(x, sigma, v.arg), Arrow(sigma, tau))


def elaborate(e):
    """Compile a closed surface term to a well-typed combinatory term."""
    return _lower(e, {})
