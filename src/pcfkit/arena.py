"""Flat integer encoding of term graphs for the compiled kernel.

A term is encoded as parallel arrays indexed by node: ``tags`` (codes
below), ``fun``/``arg`` (child indices, -1 for constants), ``numv``
(numeral payload, -1 when the node is not a numeral) and ``rule`` (code
of the rule firing at that node's root, -1 when none does). The codes
mirror, in order, the tag strings on Term and the declaration order of
RuleName, so the kernel can hard-code them.

The kernel appends every node it creates (always an application) to the
caller's lists; ``decode`` rebuilds those through the interning
constructor and resolves original indices through ``payloads``, so a
decoded result is the identical interned term the pure engine yields.
"""

from typing import NamedTuple

from .rules import RuleName
from .syntax import App, Term, fold

TAG_CODES = {
    "zero": 0, "succ": 1, "pred": 2, "ifz": 3,
    "k": 4, "s": 5, "fix": 6, "app": 7,
}

RULE_CODES = {r: i for i, r in enumerate(RuleName)}


class Encoding(NamedTuple):
    tags: list
    fun: list
    arg: list
    numv: list
    rule: list
    payloads: list
    root: int


def encode(t: Term) -> Encoding:
    """Encode the term DAG rooted at t; shared subterms get one node."""
    tags, fun, arg, numv, rule, payloads = [], [], [], [], [], []

    def add(cur, fi=-1, ai=-1):
        tags.append(TAG_CODES[cur.tag])
        fun.append(fi)
        arg.append(ai)
        numv.append(-1 if cur.numeral is None else cur.numeral)
        rule.append(-1 if cur.rule is None else RULE_CODES[cur.rule])
        payloads.append(cur)
        return len(payloads) - 1

    root = fold(t, add, add)
    return Encoding(tags, fun, arg, numv, rule, payloads, root)


def decode(enc: Encoding, root: int) -> Term:
    """Rebuild the term at index root of a (possibly extended) encoding."""
    n0 = len(enc.payloads)
    if root < n0:
        return enc.payloads[root]
    fun, arg, payloads = enc.fun, enc.arg, enc.payloads
    built = {}
    stack = [root]
    while stack:
        i = stack.pop()
        if i in built:
            continue
        fi, ai = fun[i], arg[i]
        fd = payloads[fi] if fi < n0 else built.get(fi)
        ad = payloads[ai] if ai < n0 else built.get(ai)
        if fd is None or ad is None:
            stack.append(i)
            if ad is None:
                stack.append(ai)
            if fd is None:
                stack.append(fi)
            continue
        built[i] = App(fd, ad)
    return built[root]
