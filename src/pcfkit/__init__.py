"""Combinatory PCF toolkit.

Interned syntax core, a small-step reduction engine, fuel-bounded
denotational semantics over the lifted naturals, finite domain theory,
decidable tree equality, and a surface language with a
bracket-abstraction compiler.
"""

__version__ = "0.1.0"
