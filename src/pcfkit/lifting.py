"""Partial natural numbers: the finite approximation of the lifting monad.

A PartialNat is either bottom (undefined) or eta(n) for a natural n.
These are the only shapes the fuel-bounded interpreter ever produces, so
the monad structure (unit, Kleisli extension, functor action) and the
information order are all decidable here.
"""

from __future__ import annotations

from collections import namedtuple

from .syntax import Record, _check_natural

__all__ = ["PartialNat", "BOT", "unit", "kleisli", "fmap", "leq", "render"]


class PartialNat(namedtuple("PartialNat", "value"), Record):
    """Bottom or a defined natural. ``value`` is None exactly at bottom."""

    __slots__ = ()

    @property
    def defined(self) -> bool:
        return self.value is not None

    def __repr__(self):
        return render(self)


BOT = PartialNat(None)


def unit(n: int) -> PartialNat:
    """The unit of the monad: a defined value, for a natural n only."""
    _check_natural(n, "a defined value")
    return PartialNat(n)


def kleisli(f, l: PartialNat) -> PartialNat:
    """Extend f : nat -> PartialNat to act on PartialNat. Strict at bottom."""
    if l.value is None:
        return BOT
    return f(l.value)


def fmap(g, l: PartialNat) -> PartialNat:
    """Functor action of a total g : nat -> nat; fmap(g, l) = kleisli(unit . g, l)."""
    if l.value is None:
        return BOT
    return PartialNat(g(l.value))


def leq(l: PartialNat, m: PartialNat) -> bool:
    """The information order: bottom below everything, defined values discrete.

    This is the decidable reading of "if l is defined then l = m".
    """
    return l.value is None or l.value == m.value


def render(l: PartialNat) -> str:
    """External form: ``bot`` or ``eta <n>``."""
    return "bot" if l.value is None else f"eta {l.value}"
