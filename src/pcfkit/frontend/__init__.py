from .surface import (
    App, FixS, IfzS, Lam, NumLit, ParseError, PredS, SuccS, UnboundVariable,
    Var, ZeroS, parse,
)
from .elaborate import elaborate

__all__ = [
    "parse", "elaborate",
    "ParseError", "UnboundVariable",
    "Var", "Lam", "App", "NumLit",
    "ZeroS", "SuccS", "PredS", "IfzS", "FixS",
]
