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
node; elaboration turns it into n successor applications around zero.
`--` starts a comment running to end of line.  Programs must be closed;
the parser tracks binders and rejects unbound names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import PcfType, Iota, Arrow

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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    name: str
    annot: PcfType
    body: object


@dataclass(frozen=True)
class App:
    fun: object
    arg: object


@dataclass(frozen=True)
class NumLit:
    n: int


@dataclass(frozen=True)
class Prim:
    tag: str


ZeroS = Prim("zero")
SuccS = Prim("succ")
PredS = Prim("pred")
IfzS = Prim("ifz")
FixS = Prim("fix")

_PRIMS = {"zero": ZeroS, "succ": SuccS, "pred": PredS,
          "ifz": IfzS, "fix": FixS}

_KEYWORDS = frozenset(_PRIMS) | {"nat"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # one of \ ( ) : . -> ident num nat zero succ pred ifz fix eof
    value: object
    line: int
    col: int


def _is_ident_start(c):
    return c.isalpha() or c == "_"


def _is_ident_char(c):
    return c.isalnum() or c in "_'"


def _tokenize(src):
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
        elif c == "\\":
            toks.append(_Tok("\\", c, line, col))
            i += 1
            col += 1
        elif src.startswith("->", i):
            toks.append(_Tok("->", "->", line, col))
            i += 2
            col += 2
        elif c in "():.":
            toks.append(_Tok(c, c, line, col))
            i += 1
            col += 1
        elif c == "#":
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("'#' must be followed by digits", line, col)
            try:
                value = int(src[i + 1:j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("numeral literal has too many digits",
                                 line, col) from None
            toks.append(_Tok("num", value, line, col))
            col += j - i
            i = j
        elif _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(src[j]):
                j += 1
            word = src[i:j]
            kind = word if word in _KEYWORDS else "ident"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", None, line, col))
    return toks


_ATOM_STARTS = frozenset(
    ["(", "ident", "num", "zero", "succ", "pred", "ifz", "fix"])


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.value!r}"
                             if t.kind != "eof" else f"expected {what}",
                             t.line, t.col)
        return t

    def parse_type(self):
        left = self.parse_type_atom()
        if self.peek().kind == "->":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self):
        t = self.next()
        if t.kind == "nat":
            return Iota
        if t.kind == "(":
            inner = self.parse_type()
            self.expect(")", "')'")
            return inner
        raise ParseError(f"expected a type, found {t.value!r}", t.line, t.col)

    def parse_expr(self, bound):
        if self.peek().kind == "\\":
            return self.parse_lambda(bound)
        return self.parse_app(bound)

    def parse_lambda(self, bound):
        self.expect("\\", "'\\'")
        name = self.expect("ident", "a variable name").value
        self.expect(":", "':'")
        annot = self.parse_type()
        self.expect(".", "'.'")
        body = self.parse_expr(bound | {name})
        return Lam(name, annot, body)

    def parse_app(self, bound):
        e = self.parse_atom(bound)
        while True:
            k = self.peek().kind
            if k in _ATOM_STARTS:
                e = App(e, self.parse_atom(bound))
            elif k == "\\":
                return App(e, self.parse_lambda(bound))
            else:
                return e

    def parse_atom(self, bound):
        t = self.next()
        if t.kind in _PRIMS:
            return _PRIMS[t.kind]
        if t.kind == "num":
            return NumLit(t.value)
        if t.kind == "ident":
            if t.value not in bound:
                raise UnboundVariable(t.value, t.line, t.col)
            return Var(t.value)
        if t.kind == "(":
            inner = self.parse_expr(bound)
            self.expect(")", "')'")
            return inner
        raise ParseError(
            f"expected a term, found {t.value!r}" if t.kind != "eof"
            else "unexpected end of input", t.line, t.col)


def parse(src):
    """Parse a closed program; raises ParseError with position info."""
    p = _Parser(_tokenize(src))
    e = p.parse_expr(frozenset())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input starting with {t.value!r}",
                         t.line, t.col)
    return e
