"""Spans around calls into pcfkit's public functions, for the traced run.

A span is ``[id, parent id, operation id, name, start ns, end ns]``.
Spans stay in memory and are written as JSON lines when the run ends.

The tracer measures each layer from outside: while a traced round runs
it replaces a few attributes of pcfkit's modules (the public functions
named in ``PATCHES``) with wrappers that open a span, and puts the
originals back afterwards. No file of the library changes, and an
untraced round calls the library exactly as a user would.

A wrapper records only while a root span (an operation, a replay, a
probe or the set-up) is open, so the benchmark's own output checks,
which run between operations, never show up as layer time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns


def _count_steps(tr, result):
    tr.count("opsem.steps", result[1])


def _count_denote(tr, result):
    tr.count("scott.denote_calls", 1)


def _count_verdict(tr, result):
    tr.count("scott.committed", result.status == "ok")


# (span name, attributes to wrap, counter hook). Every module that
# binds the function under its own name is listed, so a call made from
# inside another layer (run_bounded from reaches_numeral, reduce from
# check_soundness, denote from denote_base) becomes a child span.
# wtypes.w_equal calls itself through its module global, so only the
# CLI's binding is wrapped: wrapping the global would add a frame and a
# span to every level of the recursion.
PATCHES = [
    ("frontend.parse",
     [("pcfkit.frontend", "parse"), ("pcfkit.frontend.cli", "parse")], None),
    ("frontend.elaborate",
     [("pcfkit.frontend", "elaborate"),
      ("pcfkit.frontend.cli", "elaborate")], None),
    ("syntax.term_to_sexp",
     [("pcfkit.syntax", "term_to_sexp"),
      ("pcfkit.frontend.cli", "term_to_sexp")], None),
    ("opsem.run_bounded",
     [("pcfkit.opsem", "run_bounded"),
      ("pcfkit.frontend.cli", "run_bounded")], _count_steps),
    ("opsem.reduce",
     [("pcfkit.opsem", "reduce"), ("pcfkit.scott", "reduce"),
      ("pcfkit.frontend.cli", "reduce")], None),
    ("scott.denote", [("pcfkit.scott:Interpreter", "denote")], _count_denote),
    ("scott.check_soundness",
     [("pcfkit.scott", "check_soundness"),
      ("pcfkit.frontend.cli", "check_soundness")], _count_verdict),
    ("scott.check_adequacy",
     [("pcfkit.scott", "check_adequacy"),
      ("pcfkit.frontend.cli", "check_adequacy")], _count_verdict),
    ("scott.check_semidecidability",
     [("pcfkit.scott", "check_semidecidability")], _count_verdict),
    ("wtypes.encode_term",
     [("pcfkit.wtypes", "encode_term"),
      ("pcfkit.frontend.cli", "encode_term")], None),
    ("wtypes.w_equal", [("pcfkit.frontend.cli", "w_equal")], None),
]


def _owner(spec):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._op = -1
        self._saved = []
        self.round = defaultdict(int)   # counters of the current round
        self.total = defaultdict(int)   # counters of the whole run

    def count(self, name, n):
        self.round[name] += n
        self.total[name] += n

    def _wrap(self, name, fn, hook):
        spans, open_, tr = self.spans, self._open, self

        def traced(*args, **kwargs):
            if not open_:
                return fn(*args, **kwargs)
            rec = [len(spans), open_[-1], tr._op, name, _clock(), 0]
            spans.append(rec)
            open_.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = _clock()
                open_.pop()
            if hook is not None:
                hook(tr, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public functions in PATCHES until uninstall()."""
        for name, targets, hook in PATCHES:
            for spec, attr in targets:
                owner = _owner(spec)
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextmanager
    def root(self, name, op=-1):
        """A span with no parent: an operation, a replay, a probe."""
        rec = [len(self.spans), -1, op, name, _clock(), 0]
        self.spans.append(rec)
        self._open.append(rec[0])
        self._op = op
        try:
            yield
        finally:
            rec[5] = _clock()
            self._open.pop()
            self._op = -1

    def call(self, name, fn, *args):
        """Time one call inside the open root span, without patching."""
        return self._wrap(name, fn, None)(*args)

    def self_times(self):
        """{span name: (calls, self ns)}; self = span minus its children."""
        child = defaultdict(int)
        for _sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0])
        for sid, _parent, _op, name, t0, t1 in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += t1 - t0 - child[sid]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
