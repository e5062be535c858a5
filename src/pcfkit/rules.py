"""Names for the eleven one-step reduction rules.

Kept in a leaf module so both the syntax layer (which caches, per term,
which rule applies at its root) and the operational layer can import it
without a cycle.
"""

import enum


class RuleName(enum.Enum):
    """One name per inference rule of the one-step relation.

    The enum value is the spelling used in CLI trace output.
    """

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


# The four congruence rules descend into a subterm; the other seven
# contract a redex at the root.
CONGRUENCE_RULES = frozenset(
    {RuleName.AppLeft, RuleName.SuccArg, RuleName.PredArg, RuleName.IfzScrut}
)
