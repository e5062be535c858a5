"""Combinatory PCF: types, terms, numerals, and the type checker.

Types and terms are hash-consed: building the same tree twice yields the
same object. Structural equality therefore coincides with identity, and
every term carries three facts computed once at construction time:

  * ``ty``       its PCF type, or None if some application is ill-typed
  * ``numeral``  n if the term is syntactically succ^n(zero), else None
  * ``rule``     which ``RuleName`` (if any) applies to the whole term

The reduction engine and the denotational interpreter lean on these
fields heavily; nothing in this module ever rescans a subtree. Two more
fields belong to ``scott`` and are set lazily:

  * ``value``    the denotation of an application at every fuel from
                 ``since`` on, once some interpreter has found it, else
                 None
  * ``since``    the least fuel known to give ``value``: 0 for a value
                 that is the same at every fuel, as with no ``fix``
                 below the term, and infinity while ``value`` is None;
                 it only ever goes down

``fold`` with a fuel ``known`` stops at a subterm whose ``since`` is at
most ``known``.

Terms are interned weakly, through ``weak_pool``: a plain dict from a
term's key to a weak reference that leaves the dict when its term dies,
so a pool holds only live terms and ``len`` counts them. One pool holds
every term: ``App`` interns an application itself, in one call, under
the key ``(fun, arg)``, and ``constant`` interns a constant under
``(tag, params)``. The engine's fix shortcut builds a chain
``f^k (fix f)`` through ``_unroll``, which enters the same keys without
looking up those that cannot be there yet.
``constant`` is also the one table of PCF's seven constants: the
readers, the printer, the W-tree decoder and the elaborator build and
name constants through it alone.
A term never equals a tag string, and a tuple of parameters never
equals a term, so the two key shapes never collide. Interning is
single-threaded: it looks a key up and then inserts it, so two threads
building the same term at once can end up with two non-identical
copies, and ``is`` stops meaning equal.
"""

from __future__ import annotations

import enum
import weakref
from functools import lru_cache

__all__ = [
    "PcfType", "Iota", "Arrow",
    "Term", "constant", "Zero", "Succ", "Pred", "Ifz", "K", "S", "Fix",
    "App", "RuleName", "CONGRUENCE_RULES",
    "TypeMismatch", "WrongType", "Record",
    "type_of", "numeral", "fold", "term_size",
    "term_to_sexp", "type_to_sexp", "parse_term_sexp", "parse_type_sexp",
    "SexpError", "type_surface",
    "random_type", "random_term",
]


def _itself(self, memo=None):
    return self


class PcfType:
    """A PCF type: the base type of naturals, or an arrow between types.

    ``domain``/``codomain`` are None exactly for the base type. Instances
    are interned for good, so ``==`` is pointer comparison, and each
    keeps its S-expression in ``sexp`` once ``type_to_sexp`` has made it.
    A copy is the type itself; unpickling rebuilds it through the pool.
    """

    __slots__ = ("domain", "codomain", "sexp")
    _pool: dict = {}

    def __new__(cls, domain, codomain):
        key = (domain, codomain)
        cached = cls._pool.get(key)
        if cached is None:
            cached = super().__new__(cls)
            cached.domain = domain
            cached.codomain = codomain
            cached.sexp = "iota" if domain is None else None
            cls._pool[key] = cached
        return cached

    __copy__ = __deepcopy__ = _itself

    def __reduce__(self):
        return PcfType, (self.domain, self.codomain)

    @property
    def is_arrow(self) -> bool:
        return self.domain is not None

    def __repr__(self):
        return type_to_sexp(self)


Iota = PcfType(None, None)


def Arrow(domain: PcfType, codomain: PcfType) -> PcfType:
    """The function type from domain to codomain."""
    return PcfType(domain, codomain)


class TypeMismatch(TypeError):
    """An application whose function part does not accept its argument."""

    def __init__(self, subterm, expected, actual):
        self.subterm = subterm
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"ill-typed application: expected {expected}, got {actual}"
        )


class WrongType(TypeError):
    """An operation that needs a base-type term got something else."""


class Record(tuple):
    """Type-exact equality for immutable records.

    A record class derives from a ``collections.namedtuple`` and from
    Record, with ``__slots__ = ()``. Two records are equal when they
    have the same type and equal fields, so a record never equals a
    plain tuple or a record of another type; records hash by fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


def _check_natural(n, what):
    """Refuse n unless it is an int (a bool is not) and not negative."""
    if type(n) is not int:
        raise TypeError(f"{what} must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"{what} must be a natural, got {n}")


def _check_base(t, who):
    """Refuse t unless it is of base type: an ill-typed t is a
    TypeMismatch naming the offending application, else a WrongType."""
    if t.ty is None:
        type_of(t)  # raises with the offending subterm
    if t.ty is not Iota:
        raise WrongType(f"{who} needs a base-type term, got {t.ty}")


class _PoolRef(weakref.ref):
    """A weak reference that carries its key in the pool that holds it.

    No Python ``__init__``: the C constructor makes it, and the pool
    sets ``key`` afterwards.
    """

    __slots__ = ("key",)


def weak_pool():
    """A weak interning pool: ``(pool, add)``.

    ``pool`` is a plain dict from key to a weak reference to the
    interned object, so a hit is ``pool.get(key)`` and one call of the
    reference, which gives None if the object has died. ``add(key,
    obj)`` enters obj under key and returns it. When an object dies its
    entry leaves the pool at once, unless a newer entry has replaced it,
    so ``len(pool)`` counts live objects. Keys hold their parts
    strongly: ``Term._pool`` keys an application by ``(fun, arg)`` and
    a constant by ``(tag, params)``. Single-threaded.
    """
    pool = {}

    def remove(ref):
        if pool.get(ref.key) is ref:
            del pool[ref.key]

    def add(key, obj):
        ref = _PoolRef(obj, remove)
        ref.key = key
        pool[key] = ref
        return obj

    return pool, add


class Term:
    """A combinatory PCF term.

    Tags: app and those of ``constant``. Constants carry their type
    parameters in ``params`` so every well-formed tree has exactly one
    type. Use the module-level constructors; do not instantiate
    directly. A copy is the term itself. Pickling rebuilds a term
    through ``constant`` and ``App``, so unpickling gives the interned
    term and shared subterms stay shared; it recurses once per level,
    so a term deeper than the recursion limit cannot be pickled.
    """

    __slots__ = ("tag", "fun", "arg", "params", "ty", "numeral", "rule",
                 "value", "since", "__weakref__")
    __copy__ = __deepcopy__ = _itself

    def __reduce__(self):
        if self.tag == "app":
            return App, (self.fun, self.arg)
        return constant, (self.tag, self.params)

    def __repr__(self):
        return term_to_sexp(self)


# Weak interning: terms die when the last outside reference does, so long
# fuzzing runs do not pin every intermediate reduct in memory. The pool is
# a plain dict from key to weak reference (see weak_pool), used from one
# thread only.
Term._pool, _pool_add = weak_pool()
_pool = Term._pool
_NEVER = float("inf")  # the since of a term with no value kept on it


_ARROW_NN = Arrow(Iota, Iota)
_IFZ_TYPE = Arrow(Iota, Arrow(Iota, _ARROW_NN))


# Each constant's tag, to its type as a function of its type parameters.
_CONSTANTS = {
    "zero": lambda: Iota,
    "succ": lambda: _ARROW_NN,
    "pred": lambda: _ARROW_NN,
    "ifz": lambda: _IFZ_TYPE,
    "k": lambda sigma, tau: Arrow(sigma, Arrow(tau, sigma)),
    "s": lambda sigma, tau, rho: Arrow(
        Arrow(sigma, Arrow(tau, rho)),
        Arrow(Arrow(sigma, tau), Arrow(sigma, rho))),
    "fix": lambda sigma: Arrow(Arrow(sigma, sigma), sigma),
}


class RuleName(enum.Enum):
    """One name per rule of the one-step relation, spelled as in the
    CLI trace. ``_app_rule`` below is the one function that picks one.

    The step path (``_app_rule`` and the engine in ``opsem``) reads the
    members through the module constants bound below, never as
    ``RuleName.X``: on CPython 3.11 ``EnumType`` defines ``__getattr__``,
    so each such read takes the slow attribute hook, several times the
    cost of a global load."""

    PredZero = "pred-zero"    # pred 0  ~>  0
    PredSucc = "pred-succ"    # pred (n+1)  ~>  n
    IfzZero = "ifz-zero"      # ifz s t 0  ~>  s
    IfzSucc = "ifz-succ"      # ifz s t (n+1)  ~>  t
    KRule = "k"               # k s t  ~>  s
    SRule = "s"               # s f g t  ~>  f t (g t)
    FixRule = "fix"           # fix f  ~>  f (fix f)
    AppLeft = "app-left"      # f ~> g  implies  f t ~> g t
    SuccArg = "succ-arg"      # s ~> t  implies  succ s ~> succ t
    PredArg = "pred-arg"      # s ~> t  implies  pred s ~> pred t
    IfzScrut = "ifz-scrut"    # r ~> r' implies  ifz s t r ~> ifz s t r'

    # members are singletons; identity hashing spares the engine a
    # Python-level Enum.__hash__ call per membership test
    __hash__ = object.__hash__


# The eleven members as module constants, in RuleName's order: the one
# set of names the step path reads (see RuleName).
(_PRED_ZERO, _PRED_SUCC, _IFZ_ZERO, _IFZ_SUCC, _K_RULE, _S_RULE, _FIX_RULE,
 _APP_LEFT, _SUCC_ARG, _PRED_ARG, _IFZ_SCRUT) = RuleName

# The four congruence rules descend into a subterm, three of them into
# the argument; the other seven contract a redex at the root.
_INTO_ARG = frozenset({_SUCC_ARG, _PRED_ARG, _IFZ_SCRUT})
CONGRUENCE_RULES = _INTO_ARG | {_APP_LEFT}


def _app_rule(f, a):
    """Which rule applies at the root of App(f, a), if any.

    Constraint: at most one rule can ever match (the relation is
    single-valued); the branches below are mutually exclusive by the
    shape of f.
    """
    tag = f.tag
    if tag == "pred":
        if a.numeral is not None:
            return _PRED_ZERO if a.numeral == 0 else _PRED_SUCC
        return _PRED_ARG if a.rule is not None else None
    if tag == "succ":
        return _SUCC_ARG if a.rule is not None else None
    if tag == "fix":
        return _FIX_RULE
    if tag == "app":
        g = f.fun
        if g.tag == "k":
            return _K_RULE
        if g.tag == "app":
            h = g.fun
            if h.tag == "s":
                return _S_RULE
            if h.tag == "ifz":
                if a.numeral is not None:
                    return _IFZ_ZERO if a.numeral == 0 else _IFZ_SUCC
                return _IFZ_SCRUT if a.rule is not None else None
    # partial k/s/ifz applications and stuck heads fall through here;
    # they step only if the function part itself steps
    return _APP_LEFT if f.rule is not None else None


def constant(tag: str, params: tuple = ()) -> Term:
    """The constant ``tag`` at the tuple of type parameters ``params``.

    ValueError for an unknown tag, a wrong number of parameters, or a
    parameter that is not a PcfType; checked only when the constant is
    not yet in the pool, as only then is it built.
    """
    ref = None
    if type(params) is tuple:  # else the key could be an application's
        try:
            ref = _pool.get((tag, params))
        except TypeError:  # an unhashable tag or parameter: never pooled
            pass
    if ref is not None and (t := ref()) is not None:
        return t
    ty_of = _CONSTANTS.get(tag) if isinstance(tag, str) else None
    if ty_of is None:
        raise ValueError(f"unknown constant {tag!r}")
    n = ty_of.__code__.co_argcount
    if type(params) is not tuple or len(params) != n \
            or not all(isinstance(p, PcfType) for p in params):
        raise ValueError(f"{tag} takes {n} type parameters, got {params!r}")
    t = object.__new__(Term)
    t.tag = tag
    t.fun = t.arg = None
    t.params = params
    t.ty = ty_of(*params)
    t.numeral = 0 if tag == "zero" else None
    t.rule = t.value = None
    t.since = _NEVER
    return _pool_add((tag, params), t)


Zero = constant("zero")
Succ = constant("succ")
Pred = constant("pred")
Ifz = constant("ifz")


def K(sigma: PcfType, tau: PcfType) -> Term:
    """The constant k at sigma, tau; type sigma => tau => sigma."""
    return constant("k", (sigma, tau))


def S(sigma: PcfType, tau: PcfType, rho: PcfType) -> Term:
    """The constant s; type (sigma=>tau=>rho) => (sigma=>tau) => sigma=>rho."""
    return constant("s", (sigma, tau, rho))


def Fix(sigma: PcfType) -> Term:
    """The fixed-point constant at sigma; type (sigma=>sigma) => sigma."""
    return constant("fix", (sigma,))


def App(fun: Term, arg: Term) -> Term:
    """Application. Always constructible; type_of reports ill-typed uses.

    Interned here, in one call, under the key ``(fun, arg)``; the
    constants share the pool under ``(tag, params)`` keys.
    """
    key = (fun, arg)
    ref = _pool.get(key)
    if ref is not None:
        t = ref()
        if t is not None:
            return t
    t = object.__new__(Term)
    t.tag = "app"
    t.fun = fun
    t.arg = arg
    t.params = ()
    fty = fun.ty
    if fty is not None and fty.domain is not None and arg.ty is fty.domain:
        t.ty = fty.codomain
    else:
        t.ty = None
    if fun.tag == "succ" and arg.numeral is not None:
        t.numeral = arg.numeral + 1
    else:
        t.numeral = None
    t.rule = _app_rule(fun, arg)
    t.value = None
    t.since = _NEVER
    return _pool_add(key, t)


def _unroll(f: Term, t: Term, k: int) -> Term:
    """``f^k t``: f applied k times to t, the term k calls of ``App``
    would build.

    For the engine's fix shortcut: f is succ, pred or ``ifz s u`` and t
    is ``fix f``, so each term of the chain has t's type, no numeral,
    and the rule that steps inside its argument. The part of the chain
    the pool already holds is walked up by lookup, so a chain a caller
    still holds stays shared, and the first missing term is built by
    ``App``. Each later term copies ``ty``, ``numeral`` and ``rule``
    from that one and enters the pool with no lookup: its key holds the
    term built just before it in this call, which no earlier key holds,
    so a lookup could not hit.
    """
    cur = t
    while k:
        ref = _pool.get((f, cur))
        nxt = None if ref is None else ref()
        if nxt is None:
            break
        cur, k = nxt, k - 1
    if not k:
        return cur
    cur = first = App(f, cur)
    ty, num, rule = first.ty, first.numeral, first.rule
    new, add = object.__new__, _pool_add
    for _ in range(k - 1):
        u = new(Term)
        u.tag = "app"
        u.fun = f
        u.arg = cur
        u.params = ()
        u.ty = ty
        u.numeral = num
        u.rule = rule
        u.value = None
        u.since = _NEVER
        cur = add((f, cur), u)
    return cur


def type_of(t: Term) -> PcfType:
    """The unique PCF type of t, or TypeMismatch for an ill-typed tree."""
    if t.ty is not None:
        return t.ty
    # walk down to the innermost offending application for the error
    cur = t
    while True:
        f, a = cur.fun, cur.arg
        if f.ty is None:
            cur = f
        elif a.ty is None:
            cur = a
        else:
            if f.ty.domain is None:
                raise TypeMismatch(cur, "an arrow type", f.ty)
            raise TypeMismatch(cur, f.ty.domain, a.ty)


def numeral(n: int) -> Term:
    """The nth numeral: succ applied n times to zero."""
    _check_natural(n, "numeral")
    t = Zero
    for _ in range(n):
        t = App(Succ, t)
    return t


_MISS = object()


def fold(t: Term, leaf, node, memo=None, known=-1):
    """Compute a value for t bottom-up over its DAG of distinct subterms.

    ``leaf(c)`` gives the value of a constant c and ``node(x, f_val,
    a_val)`` that of an application x from the values of ``x.fun`` and
    ``x.arg``. Subterms are visited in post-order, function child
    first, and each distinct one is computed once and stored in
    ``memo`` under the term itself; pass a dict to keep the values
    across calls.

    ``known`` is a fuel: a subterm whose ``since`` is at most ``known``
    has its value in its ``value`` slot, and the walk reads it there and
    goes no further down. The default, -1, reads no slot. ``node`` may
    set the slots of the application it is given, and a value it keeps
    there for ``known`` is not also stored in ``memo``.
    """
    if memo is None:
        memo = {}
    # explicit post-order stack: reduction can pile up spines far
    # deeper than the interpreter recursion limit
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur.since <= known or cur in memo:
            stack.pop()
        elif cur.tag != "app":
            memo[cur] = leaf(cur)
            stack.pop()
        else:
            fun, arg = cur.fun, cur.arg
            fv = fun.value if fun.since <= known else memo.get(fun, _MISS)
            av = arg.value if arg.since <= known else memo.get(arg, _MISS)
            if fv is not _MISS and av is not _MISS:
                v = node(cur, fv, av)
                if cur.since > known:
                    memo[cur] = v
                stack.pop()
            else:
                if av is _MISS:
                    stack.append(arg)
                if fv is _MISS:
                    stack.append(fun)
    return t.value if t.since <= known else memo[t]


def term_size(t: Term) -> int:
    """Number of nodes of the tree, applications included; each shared
    subterm is counted once per occurrence but visited once."""
    return fold(t, lambda _c: 1, lambda _x, f, a: 1 + f + a)


# ---------------------------------------------------------------------------
# Canonical S-expression form (bit-exact external format)

def type_to_sexp(ty: PcfType) -> str:
    # iterative, like term_to_sexp: arrows nest too deep for recursion.
    # Only the type asked for keeps its string, not each subtype, so what
    # is kept is never longer than what was returned.
    if ty.sexp is None:
        out = []
        stack = [ty]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                out.append(x)
            elif x.sexp is not None:
                out.append(x.sexp)
            else:
                stack += [")", x.codomain, " ", x.domain, "(arr "]
        ty.sexp = "".join(out)
    return ty.sexp


def term_to_sexp(t: Term) -> str:
    # iterative: numerals and fix-chains nest too deep for recursion.
    # names maps each constant met, and the separators, to its string.
    out, names = [], {")": ")", " ": " "}
    stack = [t]
    while stack:
        x = stack.pop()
        s = names.get(x)
        if s is not None:
            out.append(s)
        elif x.tag == "app":
            out.append("(app ")
            stack += [")", x.arg, " ", x.fun]
        else:
            names[x] = s = x.tag if not x.params else "".join(
                ["(", x.tag, *(" " + type_to_sexp(p) for p in x.params), ")"])
            out.append(s)
    return "".join(out)


class SexpError(ValueError):
    pass


def _sexp_tokens(text):
    for piece in text.replace("(", " ( ").replace(")", " ) ").split():
        yield piece


def _as_type(x):
    if isinstance(x, PcfType):
        return x
    if x == "iota":
        return Iota
    raise SexpError(f"expected a type, got {x!r}")


def _as_term(x):
    if isinstance(x, Term):
        return x
    try:
        return constant(x)  # a constant without parameters is an atom
    except ValueError:
        raise SexpError(f"expected a term, got {x!r}") from None


def _finish(items):
    if not items or not isinstance(items[0], str):
        raise SexpError("empty or headless form")
    head, rest = items[0], items[1:]
    if head == "arr" and len(rest) == 2:
        return Arrow(_as_type(rest[0]), _as_type(rest[1]))
    if head == "app" and len(rest) == 2:
        return App(_as_term(rest[0]), _as_term(rest[1]))
    if rest and head not in ("app", "arr"):
        # a constant with type parameters
        params = tuple(map(_as_type, rest))
        try:
            return constant(head, params)
        except ValueError:
            pass
    raise SexpError(f"bad form ({head} ...) with {len(rest)} items")


def _parse_sexp(text):
    stack = []
    result = None
    for tok in _sexp_tokens(text):
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise SexpError("unbalanced ')'")
            node = _finish(stack.pop())
        else:
            node = tok
        if stack:
            stack[-1].append(node)
        elif result is None:
            result = node
        else:
            raise SexpError("trailing content after expression")
    if stack:
        raise SexpError("unbalanced '('")
    if result is None:
        raise SexpError("empty input")
    return result


def parse_term_sexp(text: str) -> Term:
    return _as_term(_parse_sexp(text))


def parse_type_sexp(text: str) -> PcfType:
    return _as_type(_parse_sexp(text))


def type_surface(ty: PcfType) -> str:
    """Surface rendering: nat, nat -> nat, (nat -> nat) -> nat."""
    out = []
    stack = [ty]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif x.domain is None:
            out.append("nat")
        elif x.domain.is_arrow:
            stack += [x.codomain, ") -> ", x.domain, "("]
        else:
            stack += [x.codomain, " -> ", x.domain]
    return "".join(out)


# ---------------------------------------------------------------------------
# Random well-typed closed terms, for the property suites

def random_type(rng, depth: int = 2) -> PcfType:
    if depth <= 0 or rng.random() < 0.6:
        return Iota
    return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))


@lru_cache(maxsize=None)
def _constants_at(ty):
    """The constants other than zero that have type ty, as ``constant``'s
    arguments. A parameter of k, s or fix is read off ty, and the
    table's type of the guess checks it. Types are interned for good,
    so caching by type keeps nothing else alive."""
    guesses = [("succ", ()), ("pred", ()), ("ifz", ())]
    if ty.is_arrow:
        d, c = ty.domain, ty.codomain
        if c.is_arrow:
            guesses.append(("k", (d, c.domain)))
        if d.is_arrow and d.codomain.is_arrow:
            guesses.append(
                ("s", (d.domain, d.codomain.domain, d.codomain.codomain)))
        guesses.append(("fix", (c,)))
    return tuple(g for g in guesses if _CONSTANTS[g[0]](*g[1]) is ty)


def _inhabitant(ty):
    if ty.domain is None:
        return Zero
    return App(K(ty.codomain, ty.domain), _inhabitant(ty.codomain))


def random_term(rng, ty: PcfType = Iota, depth: int = 8) -> Term:
    """A random closed well-typed term of the given type.

    Builds down from the target type with constructor-appropriate
    choices; depth bounds the recursion.

    The draws are pinned (``test_generators_draw_pinned_terms``), since
    every fuzz corpus rests on them, so an edit must keep, call for call:
    the choices and their weights in this order, a numeral 3 (at ι
    only), each of ``_constants_at(ty)`` 1, and, when depth > 0, an
    application 4, ``fix`` 1 and an ``ifz`` 2 (at ι only); one
    ``rng.random() * total`` per choice, tested by ``pick -= w; if pick
    <= 0`` in that order, with the last choice as the fallback;
    ``_inhabitant(ty)`` when there is no choice; and the order of the
    sub-draws: an application draws its argument type, then the
    function, then the argument, and an ``ifz`` its zero branch, then
    its successor branch, then the scrutinee.
    """
    consts = _constants_at(ty)
    nat, deep = ty is Iota, depth > 0
    total = 3 * nat + len(consts) + (5 + 2 * nat) * deep
    if not total:
        return _inhabitant(ty)
    pick = rng.random() * total
    if nat:
        pick -= 3
        if pick <= 0 or not (consts or deep):  # or the only choice
            return numeral(_geom(rng))
    for g in consts:
        pick -= 1
        if pick <= 0:
            return constant(*g)
    if not deep:  # the last choice is the fallback
        return constant(*consts[-1])
    pick -= 4
    if pick <= 0:
        return _random_app(rng, ty, depth)
    pick -= 1
    if pick <= 0 or not nat:
        return App(Fix(ty), random_term(rng, Arrow(ty, ty), depth - 1))
    return _random_ifz(rng, depth)


def _geom(rng):
    n = 0
    while rng.random() < 0.55 and n < 30:
        n += 1
    return n


def _random_app(rng, ty, depth):
    alpha = random_type(rng, min(2, depth - 1))
    f = random_term(rng, Arrow(alpha, ty), depth - 1)
    a = random_term(rng, alpha, depth - 1)
    return App(f, a)


def _random_ifz(rng, depth):
    z = random_term(rng, Iota, depth - 1)
    s = random_term(rng, Iota, depth - 1)
    scrut = random_term(rng, Iota, depth - 1)
    return App(App(App(Ifz, z), s), scrut)
