"""Surface language: lexer, parser, and the surface term types.

Grammar:

    expr    := lambda | app
    lambda  := '\\' IDENT ':' type '.' expr
    app     := atom { atom } [ lambda ]
    atom    := 'zero' | 'succ' | 'pred' | 'ifz' | 'fix'
             | '#' digits | IDENT | '(' expr ')'
    type    := tatom [ '->' type ]
    tatom   := 'nat' | '(' type ')'

Application is left-associative; a lambda may stand unparenthesized as
the last argument of an application (`fix \\f:nat. e`).  Arrows
associate to the right.  `ifz e0 e1 e2` takes the zero branch e0, the
successor branch e1, and the scrutinee e2 last, mirroring the constant
it parses to (this is not if-then-else order).  `#n` is one `NumLit`
node, n in ASCII digits and at most ``MAX_NUMERAL`` (100,000);
elaboration turns it into n successor applications around zero.  `--`
starts a comment running to end of line.  Programs must be closed; the
parser tracks binders and rejects unbound names.  One regular
expression lexes the source, and one loop with an explicit stack of
open parentheses parses it, so parsing has no nesting limit.
"""

from __future__ import annotations

import re
from collections import namedtuple

from ..syntax import Arrow, Iota, Record

__all__ = [
    "Var", "Lam", "App", "NumLit", "Prim",
    "ZeroS", "SuccS", "PredS", "IfzS", "FixS",
    "ParseError", "UnboundVariable", "parse",
]


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{msg} at line {line}, column {col}"
        super().__init__(msg)
        self.line = line
        self.col = col


class UnboundVariable(ParseError):
    def __init__(self, name, line=None, col=None):
        super().__init__(f"unbound variable {name!r}", line, col)
        self.name = name


class Var(namedtuple("Var", "name"), Record):
    __slots__ = ()


class Lam(namedtuple("Lam", "name annot body"), Record):
    """``\\name:annot. body``; annot is a ``PcfType``."""

    __slots__ = ()


class App(namedtuple("App", "fun arg"), Record):
    __slots__ = ()


class NumLit(namedtuple("NumLit", "n"), Record):
    __slots__ = ()


class Prim(namedtuple("Prim", "tag"), Record):
    __slots__ = ()


ZeroS = Prim("zero")
SuccS = Prim("succ")
PredS = Prim("pred")
IfzS = Prim("ifz")
FixS = Prim("fix")

_PRIMS = {"zero": ZeroS, "succ": SuccS, "pred": PredS,
          "ifz": IfzS, "fix": FixS}

_KEYWORDS = frozenset(_PRIMS) | {"nat"}


# kind is one of \ ( ) : . -> ident num nat zero succ pred ifz fix eof
_Tok = namedtuple("_Tok", "kind value line col")

# One alternative per token class, tried in order; layout and comments
# match no group, and the last alternative catches any other character.
# `[^\W\d]` also admits numeric characters that are no letter, such as
# '²'; _tokenize rejects a word that starts with one.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | [ \t\r]+ | --[^\n]*
  | (?P<num>\#[0-9]*)
  | (?P<word>[^\W\d][\w']*)
  | (?P<sym>->|[\\():.])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


# #n elaborates to n + 1 interned nodes, so a larger literal would fill
# memory before any step or fuel budget could stop the run.
MAX_NUMERAL = 100_000


def _tokenize(src):
    toks = []
    line, start = 1, 0  # start: index of the current line's first character
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            toks.append(_Tok(text if text in _KEYWORDS else "ident",
                             text, line, col))
        elif kind == "sym":
            toks.append(_Tok(text, text, line, col))
        elif kind == "num":
            if len(text) == 1:
                raise ParseError("'#' must be followed by digits", line, col)
            try:
                value = int(text[1:])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("numeral literal has too many digits",
                                 line, col) from None
            if value > MAX_NUMERAL:
                raise ParseError(f"numeral literal is larger than"
                                 f" #{MAX_NUMERAL}", line, col)
            toks.append(_Tok("num", value, line, col))
        elif kind is not None:  # "bad", or a word led by a non-letter
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    toks.append(_Tok("eof", None, line, len(src) - start + 1))
    return toks


def _expect(t, kind, what):
    if t.kind != kind:
        raise ParseError(f"expected {what}, found {t.value!r}"
                         if t.kind != "eof" else f"expected {what}",
                         t.line, t.col)
    return t


def _parse_type(toks, i):
    """The type starting at toks[i], and the index just past it."""
    doms = [[]]  # per open parenthesis, the domains of its arrows so far
    while True:
        t = toks[i]
        i += 1
        if t.kind == "(":
            doms.append([])
            continue
        if t.kind != "nat":
            raise ParseError(f"expected a type, found {t.value!r}",
                             t.line, t.col)
        ty = Iota
        while toks[i].kind != "->":  # ty ends its parenthesis
            for dom in reversed(doms.pop()):
                ty = Arrow(dom, ty)
            if not doms:
                return ty, i
            _expect(toks[i], ")", "')'")
            i += 1
        doms[-1].append(ty)
        i += 1


def parse(src):
    """Parse a closed program; raises ParseError with position info."""
    toks = _tokenize(src)
    # The innermost open parenthesis (or the whole program) is held in
    # lams, bound and spine: its lambdas so far, each with the spine it
    # is the last argument of (a lambda's body runs to the group's end);
    # the names they bind; and the application spine since the last
    # lambda, None before its first atom.  Enclosing groups wait on stack.
    stack, lams, bound, spine = [], [], frozenset(), None
    i = 0
    while True:
        t = toks[i]
        i += 1
        k = t.kind
        if k in _PRIMS:
            e = _PRIMS[k]
        elif k == "num":
            e = NumLit(t.value)
        elif k == "ident":
            if t.value not in bound:
                raise UnboundVariable(t.value, t.line, t.col)
            e = Var(t.value)
        elif k == "(":
            stack.append((lams, bound, spine))
            lams, spine = [], None
            continue
        elif k == "\\":
            name = _expect(toks[i], "ident", "a variable name").value
            _expect(toks[i + 1], ":", "':'")
            annot, i = _parse_type(toks, i + 2)
            _expect(toks[i], ".", "'.'")
            i += 1
            lams.append((spine, name, annot))
            bound, spine = bound | {name}, None
            continue
        elif spine is None:
            raise ParseError(
                f"expected a term, found {t.value!r}" if k != "eof"
                else "unexpected end of input", t.line, t.col)
        else:  # t ends the innermost group
            e = spine
            for fun, name, annot in reversed(lams):
                e = Lam(name, annot, e)
                if fun is not None:
                    e = App(fun, e)
            if not stack:
                if k != "eof":
                    raise ParseError(
                        f"trailing input starting with {t.value!r}",
                        t.line, t.col)
                return e
            _expect(t, ")", "')'")
            lams, bound, spine = stack.pop()
        spine = e if spine is None else App(spine, e)
