"""The `pcf` command line tool.

Exit codes, uniform across subcommands:
  0  success / value defined / terms equal
  1  no value: bot, no-numeral within budget, or terms distinct; also
     an inconclusive adequacy check, whose run reached no numeral
     within its step budget
  2  type error, or bad arguments (argparse), a negative budget among them
  3  parse error or unreadable input (missing, or not UTF-8)
  4  internal violation: a cross-check failed, or the run died of
     RecursionError, MemoryError or AssertionError (one line on stderr)

A program of arrow type is a type error (exit 2) for ``denote``,
``adequacy`` and ``sound``, which need a base-type term. ``run`` reads
only whether the run ends at a numeral, so it prints ``no-numeral``
and exits 1 on such a program instead.

A reader that closes stdout early (``pcf step ... | head -1``) ends the
run with exit 0 and nothing on stderr: no one reads the rest.

Start-up: each subcommand imports only the layer it runs. ``check`` and
``compile`` load the frontend and ``syntax``; ``step`` and ``run`` add
``opsem``; ``denote``, ``adequacy`` and ``sound`` add ``scott`` and
``lifting`` (and ``opsem``, which the cross-checks run); ``eq`` adds
``wtypes``. A ``pcf`` process runs one subcommand, so the layers it
does not run would only cost it their import.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..syntax import TypeMismatch, WrongType, term_to_sexp, type_surface
from .elaborate import elaborate
from .surface import ParseError, parse


def _on_call(module, name):
    """``module.name``, with the module imported at the first call.

    The subcommands call every layer function through such a name of
    this module, so a process imports only the layers its subcommand
    runs, and a wrapper put on a name here (pcfbench's tracer puts
    one) still sees each call.
    """
    def call(*args, **kwargs):
        return getattr(__import__(module, fromlist=[name]), name)(
            *args, **kwargs)
    return call


reduce = _on_call("pcfkit.opsem", "reduce")
run_bounded = _on_call("pcfkit.opsem", "run_bounded")
denote_base = _on_call("pcfkit.scott", "denote_base")
check_adequacy = _on_call("pcfkit.scott", "check_adequacy")
check_soundness = _on_call("pcfkit.scott", "check_soundness")
render = _on_call("pcfkit.lifting", "render")
encode_term = _on_call("pcfkit.wtypes", "encode_term")
w_equal = _on_call("pcfkit.wtypes", "w_equal")


def _budget(text):
    """argparse type of the step and fuel budgets: a natural number.
    A non-integer gets the same message as under ``type=int``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"invalid budget: {text!r} is negative")
    return n


def _load(path):
    # utf-8-sig skips a leading byte-order mark, which is valid UTF-8
    with open(path, encoding="utf-8-sig") as fh:
        return elaborate(parse(fh.read()))


def _report(verdict):
    if not verdict.passed:
        print(f"VIOLATION {verdict.detail}")
        return 4
    if verdict.status == "inconclusive":
        print(f"inconclusive {verdict.detail}")
        return 1
    if verdict.status == "vacuous":
        print("vacuous")
    else:
        print(f"ok n={verdict.value}")
    return 0


def _dispatch(args):
    if args.cmd == "check":
        print(type_surface(_load(args.file).ty))
        return 0
    if args.cmd == "compile":
        print(term_to_sexp(_load(args.file)))
        return 0
    if args.cmd == "step":
        _, trace, exhausted = reduce(_load(args.file), args.max)
        for nxt, rule in trace:
            print(f"{rule.value} ⇝ {term_to_sexp(nxt)}")
        print("step-budget-exhausted" if exhausted else "normal-form")
        return 0
    if args.cmd == "run":
        final, _ = run_bounded(_load(args.file), args.max_steps,
                               numeral_only=True)
        if final is None or final.numeral is None:
            print("no-numeral")
            return 1
        print(final.numeral)
        return 0
    if args.cmd == "denote":
        v = denote_base(_load(args.file), args.fuel)
        print(render(v))
        return 0 if v.defined else 1
    if args.cmd == "adequacy":
        return _report(check_adequacy(_load(args.file),
                                      args.fuel, args.max_steps))
    if args.cmd == "sound":
        return _report(check_soundness(_load(args.file),
                                       args.max_steps, args.fuel))
    if args.cmd == "eq":
        from ..wtypes import TERM_SPEC
        t1, t2 = _load(args.file), _load(args.file2)
        if t1.ty is t2.ty and w_equal(TERM_SPEC,
                                      encode_term(t1), encode_term(t2)):
            print("equal")
            return 0
        print("distinct")
        return 1
    raise AssertionError(args.cmd)


def main(argv=None):
    top = argparse.ArgumentParser(
        prog="pcf",
        description="Type, compile, reduce, and denote PCF programs.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def cmd(name, help_text, two_files=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="a .pcf source file")
        if two_files:
            p.add_argument("file2", help="a second .pcf source file")
        return p

    cmd("check", "infer and print the program's type")
    cmd("compile", "print the combinatory form as an S-expression")
    p = cmd("step", "print the reduction trace, one rule per line")
    p.add_argument("--max", type=_budget, default=100,
                   help="step budget (default 100)")
    p = cmd("run", "reduce and print the resulting numeral")
    p.add_argument("--max-steps", type=_budget, default=10000,
                   help="step budget (default 10000)")
    p = cmd("denote", "print the fuel-bounded denotation (bot or eta n)")
    p.add_argument("--fuel", type=_budget, default=32,
                   help="fix unrolling budget (default 32)")
    for name, blurb in (("adequacy", "denotation, then cross-check the"
                                     " operational result"),
                        ("sound", "denotation, then check one run's"
                                  " finished subterms")):
        p = cmd(name, blurb)
        p.add_argument("--fuel", type=_budget, default=32)
        p.add_argument("--max-steps", type=_budget, default=10000)
    cmd("eq", "decide equality of two compiled programs", two_files=True)

    args = top.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device, so that
        # the flush at exit has nowhere to fail, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (TypeMismatch, WrongType) as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
