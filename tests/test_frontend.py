"""Surface parser, bracket-abstraction compiler, and the pcf CLI."""

import ast
import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from conftest import ADD_SRC, MUL_SRC, engine_app_calls, shallow_stack

import pcfkit
from pcfkit.frontend import cli
from pcfkit.frontend import surface as sf
from pcfkit.frontend.elaborate import elaborate
from pcfkit.frontend.surface import (
    App, FixS, IfzS, Lam, NumLit, ParseError, PredS, SuccS,
    UnboundVariable, Var, ZeroS, parse,
)
from pcfkit.opsem import run_bounded
from pcfkit.scott import Interpreter, denote
from pcfkit.lifting import unit
from pcfkit.syntax import (
    App as CApp, Arrow, Ifz, Iota, K, S, TypeMismatch, Zero, numeral,
    parse_term_sexp, random_type, term_to_sexp, type_surface,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def child_env():
    """The environment of a child process that imports the same pcfkit
    as this one, however this one found it."""
    paths = [str(Path(pcfkit.__file__).resolve().parent.parent),
             os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_module(*args):
    """``python -m pcfkit.frontend.cli`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "pcfkit.frontend.cli", *args],
        capture_output=True, text=True, env=child_env())


# Runs cli.main on its arguments, then prints as its last line the exit
# code and the loaded pcfkit modules and heavy standard modules.
FOOTPRINT_PROBE = """
import sys
from pcfkit.frontend import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("pcfkit")
                    or m in ("dataclasses", "inspect", "typing")))
"""

# the modules every subcommand loads: the frontend and syntax
FRONTEND = {"pcfkit", "pcfkit.frontend", "pcfkit.frontend.cli",
            "pcfkit.frontend.elaborate", "pcfkit.frontend.surface",
            "pcfkit.syntax"}
# and the layers each subcommand adds to them
LAYERS = {"check": (), "compile": (), "step": ("opsem",), "run": ("opsem",),
          "denote": ("opsem", "scott", "lifting"),
          "adequacy": ("opsem", "scott", "lifting"),
          "sound": ("opsem", "scott", "lifting"), "eq": ("wtypes",)}


class TestParse:
    def test_application(self):
        assert parse("pred zero") == App(PredS, ZeroS)
        assert parse("succ zero zero") == App(App(SuccS, ZeroS), ZeroS)

    def test_hash_literals_are_succ_chains(self):
        assert parse("#3") == NumLit(3)
        assert parse("#0") == NumLit(0)
        assert parse("succ #2") == App(SuccS, NumLit(2))
        assert (elaborate(parse("#3"))
                is elaborate(parse("succ (succ (succ zero))")))

    def test_lambda_and_fix(self):
        got = parse("\\f:nat->nat. fix f")
        assert got == Lam("f", Arrow(Iota, Iota), App(FixS, Var("f")))

    def test_arrow_annotations_associate_right(self):
        lam = parse("\\f:nat->nat->nat. zero")
        assert lam.annot == Arrow(Iota, Arrow(Iota, Iota))
        lam = parse("\\f:(nat->nat)->nat. zero")
        assert lam.annot == Arrow(Arrow(Iota, Iota), Iota)
        lam = parse("\\f:(nat->nat)->nat->nat. zero")
        assert lam.annot == Arrow(Arrow(Iota, Iota), Arrow(Iota, Iota))

    def test_trailing_lambda_is_last_argument(self):
        got = parse("fix \\x:nat. x")
        assert got == App(FixS, Lam("x", Iota, Var("x")))

    def test_comments_and_layout(self):
        assert parse("-- intro\n  zero -- trailing\n") == ZeroS

    def test_shadowing(self):
        got = parse("\\x:nat. \\x:nat->nat. x")
        assert got.body.body == Var("x")

    def test_error_positions(self):
        with pytest.raises(ParseError, match="line 1, column 6"):
            parse("succ )")
        with pytest.raises(ParseError, match="line 2"):
            parse("succ\n @")
        # the end of input is where the source ends, after any comment
        with pytest.raises(ParseError) as exc:
            parse("(zero -- note")
        assert str(exc.value) == "expected ')' at line 1, column 14"
        with pytest.raises(ParseError) as exc:
            parse("-- note")
        assert str(exc.value) == "unexpected end of input at line 1, column 8"
        with pytest.raises(ParseError) as exc:
            parse("\\x:foo. x")
        assert str(exc.value) == (
            "expected a type, found 'foo' at line 1, column 4")

    def test_unbound_variables(self):
        with pytest.raises(UnboundVariable, match="'y'"):
            parse("\\x:nat. y")
        with pytest.raises(UnboundVariable, match="'x'"):
            parse("(\\x:nat. x) x")
        # a surface term built by hand is checked when it is elaborated
        with pytest.raises(UnboundVariable, match="'x'"):
            elaborate(Var("x"))

    def test_malformed_programs(self):
        bad = ["", "(zero", "\\x:nat x", "\\x. x", "#", "zero)",
               "\\x:nat. ", "\\zero:nat. zero"]
        for src in bad:
            with pytest.raises(ParseError):
                parse(src)

    def test_deep_nesting_needs_no_stack(self):
        with shallow_stack():
            assert parse("(" * 3000 + "zero" + ")" * 3000) is ZeroS
            spine = parse("succ (" * 3000 + "zero" + ")" * 3000)
            arrows = parse("\\x:" + "nat -> " * 3000 + "nat. x").annot
            nested = parse("\\x:" + "(" * 3000 + "nat" + " -> nat)" * 3000
                           + ". " + "(" * 3000 + "x" + ")" * 3000)
        for _ in range(3000):
            assert spine.fun is SuccS
            spine = spine.arg
            assert arrows.domain is Iota
            arrows = arrows.codomain
            assert nested.annot.codomain is Iota
            nested = Lam("x", nested.annot.domain, nested.body)
        assert (spine, arrows) == (ZeroS, Iota)
        assert nested == Lam("x", Iota, Var("x"))


class TestRecords:
    """The surface nodes are immutable records: equal by type and fields."""

    def test_equality_and_hash(self):
        assert Var("x") != sf.Prim("x")
        assert NumLit(3) != (3,)
        assert App(Var("f"), NumLit(1)) == App(fun=Var("f"), arg=NumLit(1))
        lam = Lam("x", Arrow(Iota, Iota), Var("x"))
        assert hash(lam) == hash(Lam("x", Arrow(Iota, Iota), Var("x")))
        assert lam != Lam("x", Iota, Var("x"))

    def test_fields_refuse_assignment(self):
        v = Var("x")
        for change in (lambda: setattr(v, "name", "y"),
                       lambda: setattr(v, "other", 1),
                       lambda: delattr(v, "name")):
            with pytest.raises(AttributeError):
                change()
        assert v == Var("x")

    def test_repr(self):
        assert repr(Var("x")) == "Var(name='x')"
        assert (repr(App(PredS, NumLit(2)))
                == "App(fun=Prim(tag='pred'), arg=NumLit(n=2))")

    def test_wrong_fields_are_refused(self):
        for make in (lambda: Var(), lambda: Var("x", "y"),
                     lambda: Var("x", name="y"), lambda: Var(nom="x")):
            with pytest.raises(TypeError):
                make()

    def test_records_are_not_plain_tuples(self):
        # records are tuples underneath, yet equal neither the tuple of
        # their fields, from either side, nor a same-shaped record
        for rec, fields in ((NumLit(3), (3,)), (Var("x"), ("x",)),
                            (App(Var("f"), NumLit(1)), (Var("f"), NumLit(1))),
                            (App(Var("f"), NumLit(1)), App(("f",), (1,)))):
            assert rec != fields and fields != rec
            assert not (rec == fields or fields == rec)
        assert Var("x") != sf.Prim("x") and not sf.Prim("x") == Var("x")
        assert {(3,): "tuple"}.get(NumLit(3)) is None


class TestElaborate:
    def test_identity_is_skk(self):
        want = CApp(
            CApp(S(Iota, Arrow(Iota, Iota), Iota), K(Iota, Arrow(Iota, Iota))),
            K(Iota, Iota))
        assert elaborate(parse("\\x:nat. x")) is want
        applied = CApp(want, numeral(4))
        final, _ = run_bounded(applied, 100)
        assert final is numeral(4)
        assert denote(want, 0).apply(unit(9)) == unit(9)

    def test_constant_function_is_k(self):
        assert elaborate(parse("\\x:nat. zero")) is CApp(K(Iota, Iota), Zero)

    def test_ifz_argument_order(self):
        t = elaborate(parse("ifz #9 #4 #0"))
        assert t is CApp(CApp(CApp(Ifz, numeral(9)), numeral(4)), numeral(0))

    def test_numlit_elaborates_to_numeral(self):
        assert elaborate(NumLit(5)) is numeral(5)
        assert elaborate(parse("#7")) is numeral(7)

    def test_add_program(self):
        add = elaborate(parse(ADD_SRC))
        assert add.ty is Arrow(Iota, Arrow(Iota, Iota))
        applied = CApp(CApp(add, numeral(2)), numeral(1))
        final, _ = run_bounded(applied, 10000)
        assert final is numeral(3)
        with shallow_stack():
            for fuel in (10, 63, 64, 500):
                assert Interpreter().denote_base(applied, fuel) == unit(3)

    def test_add_denotes_past_the_recursion_limit(self):
        add = elaborate(parse(ADD_SRC))
        big = CApp(CApp(add, numeral(200)), numeral(200))
        with shallow_stack():
            assert Interpreter().denote_base(big, 300) == unit(400)

    def test_bare_fix_is_a_type_error(self):
        for src in ("fix", "\\x:nat. fix"):
            with pytest.raises(TypeMismatch):
                elaborate(parse(src))

    def test_fix_needs_an_endofunction(self):
        with pytest.raises(TypeMismatch):
            elaborate(parse("fix zero"))
        with pytest.raises(TypeMismatch):
            elaborate(parse("fix \\x:nat. \\y:nat. x"))

    def test_application_type_errors(self):
        with pytest.raises(TypeMismatch, match="arrow"):
            elaborate(parse("zero zero"))
        with pytest.raises(TypeMismatch):
            elaborate(parse("succ \\x:nat. x"))

    def test_deep_nesting_needs_no_stack(self):
        args = parse("succ (" * 3000 + "zero" + ")" * 3000)
        binders = "".join(f"\\x{i}:nat. " for i in range(3000))
        lambdas = parse(f"({binders}x0)" + " #1" * 3000)
        abstracted = parse(f"{binders}x0")
        with shallow_stack():
            assert elaborate(args) is numeral(3000)
            assert elaborate(lambdas).ty is Iota
            assert elaborate(abstracted).ty.domain is Iota
        final, _ = run_bounded(elaborate(lambdas), 10**6)
        assert final is numeral(1)

    def test_only_surface_terms_elaborate(self):
        with pytest.raises(TypeError, match="not a surface term"):
            elaborate(42)

    def test_function_type_error_comes_before_the_argument(self):
        # the function part is checked before the argument is lowered,
        # so the bare fix in argument position is never reached
        with pytest.raises(TypeMismatch, match="an arrow type"):
            elaborate(parse("zero (fix)"))


# independent oracle: big-step call-by-name evaluation of surface terms,
# with a global step budget standing in for divergence

class _Out(Exception):
    pass


class _Budget:
    def __init__(self, n):
        self.n = n

    def tick(self):
        if self.n <= 0:
            raise _Out
        self.n -= 1


_ARITY = {"succ": 1, "pred": 1, "ifz": 3, "fix": 1}


def _seval(e, env, budget):
    budget.tick()
    if isinstance(e, NumLit):
        return ("num", e.n)
    if isinstance(e, Var):
        expr, cenv = env[e.name]
        return _seval(expr, cenv, budget)
    if isinstance(e, sf.Prim):
        if e.tag == "zero":
            return ("num", 0)
        return ("prim", e.tag, ())
    if isinstance(e, Lam):
        return ("clo", e, env)
    f = _seval(e.fun, env, budget)
    return _sapply(f, (e.arg, env), budget)


def _force_num(thunk, budget):
    v = _seval(thunk[0], thunk[1], budget)
    assert v[0] == "num", "oracle forced a non-number"
    return v[1]


def _sapply(f, thunk, budget):
    budget.tick()
    if f[0] == "clo":
        lam, cenv = f[1], f[2]
        return _seval(lam.body, {**cenv, lam.name: thunk}, budget)
    assert f[0] == "prim"
    tag, args = f[1], f[2] + (thunk,)
    if len(args) < _ARITY[tag]:
        return ("prim", tag, args)
    if tag == "succ":
        return ("num", _force_num(args[0], budget) + 1)
    if tag == "pred":
        n = _force_num(args[0], budget)
        return ("num", n - 1 if n else 0)
    if tag == "ifz":
        branch = args[0] if _force_num(args[2], budget) == 0 else args[1]
        return _seval(branch[0], branch[1], budget)
    # fix f unfolds to f (fix f) with the recursion packed into a thunk
    fv = _seval(thunk[0], thunk[1], budget)
    return _sapply(fv, (App(FixS, thunk[0]), thunk[1]), budget)


def _oracle(e, budget_n):
    try:
        v = _seval(e, {}, _Budget(budget_n))
    except _Out:
        return None
    return v[1] if v[0] == "num" else None


def _random_surface(rng, env, ty, depth):
    choices = []
    for x, t in env.items():
        if t is ty:
            choices += [("var", x)] * 2
    if ty is Iota:
        choices += [("lit", None)] * 2
        if depth > 0:
            choices += [("unary", None), ("ifz", None), ("ifz", None),
                        ("app", None), ("app", None), ("fix", None)]
    else:
        choices += [("lam", None)] * (4 if depth > 0 else 1)
        if depth > 0:
            choices += [("app", None), ("fix", None)]
        if ty.domain is Iota and ty.codomain is Iota:
            choices.append(("prim1", None))
    kind, payload = rng.choice(choices)
    if kind == "var":
        return Var(payload)
    if kind == "lit":
        return NumLit(rng.randrange(6))
    if kind == "prim1":
        return SuccS if rng.random() < 0.5 else PredS
    if kind == "unary":
        op = SuccS if rng.random() < 0.5 else PredS
        return App(op, _random_surface(rng, env, Iota, depth - 1))
    if kind == "ifz":
        e0 = _random_surface(rng, env, Iota, depth - 1)
        e1 = _random_surface(rng, env, Iota, depth - 1)
        e2 = _random_surface(rng, env, Iota, depth - 1)
        return App(App(App(IfzS, e0), e1), e2)
    if kind == "lam":
        x = f"v{len(env)}"
        body = _random_surface(rng, {**env, x: ty.domain},
                               ty.codomain, depth - 1)
        return Lam(x, ty.domain, body)
    if kind == "app":
        alpha = random_type(rng, 1)
        f = _random_surface(rng, env, Arrow(alpha, ty), depth - 1)
        a = _random_surface(rng, env, alpha, depth - 1)
        return App(f, a)
    f = _random_surface(rng, env, Arrow(ty, ty), depth - 1)
    return App(FixS, f)


def _show(e):
    """Surface syntax of e, fully parenthesized but for its types."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, NumLit):
        return f"#{e.n}"
    if isinstance(e, sf.Prim):
        return e.tag
    if isinstance(e, Lam):
        return f"(\\{e.name}:{type_surface(e.annot)}. {_show(e.body)})"
    return f"({_show(e.fun)} {_show(e.arg)})"


class TestCompilerCorrectness:
    def test_against_big_step_oracle(self):
        rng = random.Random(100)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(30000)
        committed = 0
        try:
            for _ in range(500):
                e = _random_surface(rng, {}, Iota, 4)
                t = elaborate(e)
                assert t.ty is Iota
                want = _oracle(e, 2500)
                if want is None:
                    continue
                committed += 1
                final, _ = run_bounded(t, 20000)
                assert final.numeral == want, term_to_sexp(t)
                den = Interpreter().denote_base(t, 24)
                if den.defined:
                    assert den.value == want, term_to_sexp(t)
        finally:
            sys.setrecursionlimit(old)
        assert committed > 100

    def test_type_preservation_and_sexp_round_trip(self):
        rng = random.Random(101)
        for _ in range(300):
            ty = random_type(rng, 2)
            e = _random_surface(rng, {}, ty, 3)
            t = elaborate(e)
            assert t.ty is ty
            assert parse_term_sexp(term_to_sexp(t)) is t

    @pytest.mark.parametrize("seed", [100, 101])
    def test_printed_programs_parse_back(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            e = _random_surface(rng, {}, random_type(rng, 2), 4)
            assert parse(_show(e)) == e


class TestCli:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        got = capsys.readouterr()
        return code, got.out, got.err

    def test_check_add(self, capsys):
        code, out, _ = self.run_cli(capsys, "check", str(SAMPLES / "add.pcf"))
        assert (code, out) == (0, "nat\n")

    def test_run_add(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", str(SAMPLES / "add.pcf"), "--max-steps", "10000")
        assert (code, out) == (0, "3\n")

    def test_run_omega(self, capsys):
        code, out, _ = self.run_cli(capsys, "run", str(SAMPLES / "omega.pcf"))
        assert (code, out) == (1, "no-numeral\n")

    def test_run_omega_builds_no_tail(self, capsys):
        # fix succ never reaches a numeral, so run stops before it
        # builds succ^k (fix succ) for the whole budget
        with engine_app_calls() as calls:
            code, out, err = self.run_cli(
                capsys, "run", str(SAMPLES / "omega.pcf"),
                "--max-steps", "1000000")
        assert (code, out, err) == (1, "no-numeral\n", "")
        assert calls[0] < 100

    def test_check_type_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcf"
        bad.write_text("zero zero\n")
        code, _, err = self.run_cli(capsys, "check", str(bad))
        assert code == 2 and "type error" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcf"
        bad.write_text("succ (zero\n")
        code, _, err = self.run_cli(capsys, "check", str(bad))
        assert code == 3 and "parse error" in err

    def test_unbound_variable_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcf"
        bad.write_text("x\n")
        code, _, err = self.run_cli(capsys, "run", str(bad))
        assert code == 3 and "unbound" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = self.run_cli(capsys, "run", str(tmp_path / "no.pcf"))
        assert code == 3 and "cannot read" in err

    def test_a_non_base_program_is_refused(self, capsys, tmp_path):
        src = tmp_path / "id.pcf"
        src.write_text("\\x:nat. x\n")
        for sub in ("denote", "adequacy", "sound"):
            assert self.run_cli(capsys, sub, str(src)) == (
                2, "", "type error: denote_base needs a base-type term,"
                       " got (arr iota iota)\n")
        # run reads only whether the run ends at a numeral
        assert self.run_cli(capsys, "run", str(src)) == (
            1, "no-numeral\n", "")

    def test_compile_matches_library(self, capsys, tmp_path):
        src = tmp_path / "id.pcf"
        src.write_text("\\x:nat. x\n")
        code, out, _ = self.run_cli(capsys, "compile", str(src))
        assert code == 0
        assert out.strip() == term_to_sexp(elaborate(parse("\\x:nat. x")))

    def test_step_trace(self, capsys, tmp_path):
        src = tmp_path / "p.pcf"
        src.write_text("pred #1\n")
        code, out, _ = self.run_cli(capsys, "step", str(src))
        assert code == 0
        assert out == "pred-succ ⇝ zero\nnormal-form\n"

    def test_step_budget(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "step", str(SAMPLES / "omega.pcf"), "--max", "3")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4 and lines[-1] == "step-budget-exhausted"
        assert lines[0].startswith("fix ⇝ ")

    def test_denote(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "denote", str(SAMPLES / "add.pcf"), "--fuel", "10")
        assert (code, out) == (0, "eta 3\n")
        code, out, _ = self.run_cli(
            capsys, "denote", str(SAMPLES / "omega.pcf"))
        assert (code, out) == (1, "bot\n")

    def test_adequacy_and_sound(self, capsys):
        for sub in ("adequacy", "sound"):
            code, out, _ = self.run_cli(
                capsys, sub, str(SAMPLES / "add.pcf"), "--fuel", "10")
            assert (code, out) == (0, "ok n=3\n")
            code, out, _ = self.run_cli(
                capsys, sub, str(SAMPLES / "omega.pcf"), "--max-steps", "500")
            assert (code, out) == (0, "vacuous\n")

    def test_denote_at_high_fuel(self):
        proc = run_module("denote", "--fuel", "100", str(SAMPLES / "add.pcf"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "eta 3\n", "")

    def test_adequacy_with_a_short_step_budget(self, capsys, tmp_path):
        src = tmp_path / "mul.pcf"
        src.write_text(f"{MUL_SRC} #3 #3\n")
        code, out, _ = self.run_cli(capsys, "adequacy", str(src),
                                    "--fuel", "8", "--max-steps", "3000")
        assert (code, out) == (1, "inconclusive denotes eta 9 but 3000 steps"
                                  " reach no numeral\n")

    def test_eq(self, capsys, tmp_path):
        a = tmp_path / "a.pcf"
        a.write_text("succ #1\n")
        b = tmp_path / "b.pcf"
        b.write_text("#2\n")
        code, out, _ = self.run_cli(capsys, "eq", str(a), str(a))
        assert (code, out) == (0, "equal\n")
        # same sexp once compiled, so equal even from different sources
        code, out, _ = self.run_cli(capsys, "eq", str(a), str(b))
        assert (code, out) == (0, "equal\n")
        code, out, _ = self.run_cli(
            capsys, "eq", str(a), str(SAMPLES / "omega.pcf"))
        assert (code, out) == (1, "distinct\n")

    def test_eq_across_types_is_distinct(self, capsys, tmp_path):
        f = tmp_path / "f.pcf"
        f.write_text("succ\n")
        code, out, _ = self.run_cli(
            capsys, "eq", str(f), str(SAMPLES / "omega.pcf"))
        assert (code, out) == (1, "distinct\n")

    @pytest.mark.parametrize("sub", ["check", "compile", "run", "denote"])
    def test_too_deep_input_is_an_internal_error(self, sub, capsys,
                                                 monkeypatch):
        # no input is known to overflow the stack any more, so the
        # elaborator is made to overflow
        def overflow(_e):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "elaborate", overflow)
        code, out, err = self.run_cli(capsys, sub, str(SAMPLES / "add.pcf"))
        assert (code, out) == (4, "")
        assert err == ("internal error: RecursionError: maximum recursion"
                       " depth exceeded\n")

    @pytest.mark.parametrize("src", [
        "succ (" * 3000 + "zero" + ")" * 3000,
        "(" + "".join(f"\\x{i}:nat. " for i in range(3000)) + "x0)"
        + " zero" * 3000,
    ], ids=["arguments", "lambdas"])
    def test_deep_nesting_checks(self, src, capsys, tmp_path):
        deep = tmp_path / "deep.pcf"
        deep.write_text(src + "\n")
        assert self.run_cli(capsys, "check", str(deep)) == (0, "nat\n", "")

    @pytest.mark.parametrize("src", ["zero " * 2000, "succ " * 1500 + "zero"],
                             ids=["zeros", "succs"])
    def test_long_flat_spine_is_a_type_error(self, src, capsys, tmp_path):
        spine = tmp_path / "spine.pcf"
        spine.write_text(src + "\n")
        code, out, err = self.run_cli(capsys, "check", str(spine))
        assert (code, out) == (2, "")
        assert err.startswith("type error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["check", "compile", "step", "run",
                                     "denote", "adequacy", "sound", "eq"])
    def test_deep_literal(self, sub, tmp_path):
        want = {"check": "nat", "compile": term_to_sexp(numeral(5000)),
                "step": "normal-form", "run": "5000", "denote": "eta 5000",
                "adequacy": "ok n=5000", "sound": "ok n=5000",
                "eq": "equal"}[sub] + "\n"
        deep = tmp_path / "deep.pcf"
        deep.write_text("#5000\n")
        other = tmp_path / "succ.pcf"
        other.write_text("succ #4999\n")
        argv = [sub, str(deep)] + ([str(other)] if sub == "eq" else [])
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")

    @pytest.mark.parametrize("sub, code, out", [
        ("run", 1, "no-numeral"), ("denote", 1, "bot"),
        ("adequacy", 0, "vacuous"), ("sound", 0, "vacuous")])
    def test_deep_arrow_type(self, sub, code, out, tmp_path):
        # fix at a type of 1,200 arrows, applied until it is a nat:
        # its bottom value is 1,200 k layers deep
        deep = tmp_path / "arrows.pcf"
        deep.write_text("fix (\\f:" + "nat -> " * 1200 + "nat. f)"
                        + " #0" * 1200 + "\n")
        proc = run_module(sub, str(deep))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out + "\n", "")

    @pytest.mark.parametrize("src, flags, codes, typed", [
        ("#5000", {}, "00000000", "nat"),
        (ADD_SRC + " #200 #200",
         {"denote": ["--fuel", "300"], "adequacy": ["--fuel", "300"],
          "sound": ["--fuel", "300", "--max-steps", "1000"]}, "00010100",
         "nat"),
        ("(" * 3000 + "zero" + ")" * 3000, {}, "00000000", "nat"),
        ("zero " * 2000, {}, "22222222", None),
        ("\\x:" + "nat -> " * 3000 + "nat. x", {}, "00012220",
         "(" + "nat -> " * 3000 + "nat) -> " + "nat -> " * 3000 + "nat"),
    ], ids=["literal", "add", "parens", "spine", "arrows"])
    def test_large_inputs_get_their_exit_codes(self, src, flags, codes,
                                               typed, capsys, tmp_path):
        path = tmp_path / "in.pcf"
        path.write_text(src + "\n")
        subs = ("check", "compile", "step", "run", "denote", "adequacy",
                "sound", "eq")
        for sub, want in zip(subs, map(int, codes)):
            argv = [sub, str(path)] + ([str(path)] if sub == "eq" else [])
            code, out, err = self.run_cli(capsys, *argv, *flags.get(sub, []))
            assert code == want, (sub, err)
            if sub == "check":
                assert out == ("" if want else typed + "\n")
            assert err.count("\n") == (1 if want == 2 else 0)
            assert "Traceback" not in err

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_hash_takes_ascii_digits_only(self, digit, capsys, tmp_path):
        # superscript two and Arabic-Indic three are digits to str.isdigit
        bad = tmp_path / "bad.pcf"
        bad.write_text("#" + digit + "\n", encoding="utf-8")
        code, out, err = self.run_cli(capsys, "run", str(bad))
        assert (code, out, err) == (3, "", "parse error: '#' must be followed"
                                           " by digits at line 1, column 1\n")

    def test_non_utf8_input_is_unreadable(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcf"
        bad.write_bytes(b"succ \xff\n")
        code, _, err = self.run_cli(capsys, "check", str(bad))
        assert code == 3 and err.startswith("cannot read input: ")

    def test_a_leading_byte_order_mark_is_skipped(self, capsys, tmp_path):
        src = tmp_path / "bom.pcf"
        src.write_bytes(b"\xef\xbb\xbf#2\n")
        assert self.run_cli(capsys, "check", str(src)) == (0, "nat\n", "")
        assert self.run_cli(capsys, "run", str(src)) == (0, "2\n", "")

    def test_overlong_literal_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcf"
        bad.write_text("succ #" + "9" * 5000 + "\n")
        code, _, err = self.run_cli(capsys, "run", str(bad))
        assert code == 3
        assert err == ("parse error: numeral literal has too many digits"
                       " at line 1, column 6\n")

    def test_literal_past_the_cap_is_a_parse_error(self, capsys, tmp_path):
        # #n builds n + 1 nodes, so a literal past the cap would fill
        # memory before any budget applies
        assert parse(f"#{sf.MAX_NUMERAL}") == NumLit(sf.MAX_NUMERAL)
        bad = tmp_path / "bad.pcf"
        bad.write_text(f"succ #{sf.MAX_NUMERAL + 1}\n")
        code, out, err = self.run_cli(capsys, "check", str(bad))
        assert (code, out, err) == (3, "", "parse error: numeral literal is"
                                           " larger than #100000 at line 1,"
                                           " column 6\n")

    @pytest.mark.parametrize("argv", [
        ["step", "--max", "-1"], ["run", "--max-steps", "-1"],
        ["denote", "--fuel", "-1"], ["adequacy", "--fuel", "-2"],
        ["sound", "--max-steps=-5"],
    ], ids=lambda argv: argv[0])
    def test_negative_budget_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], str(SAMPLES / "add.pcf"), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "is negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--max-steps", "abc"], ["denote", "--fuel", "2.5"],
        ["step", "--max", "1e3"],
    ], ids=lambda argv: argv[0])
    def test_non_integer_budget_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], str(SAMPLES / "add.pcf"), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid int value: '{argv[2]}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", list(LAYERS))
    def test_subcommand_loads_only_its_layer(self, sub):
        # -S keeps site, and the modules it imports, out of the count
        add = str(SAMPLES / "add.pcf")
        argv = [sub, add] + ([add] if sub == "eq" else [])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", FOOTPRINT_PROBE, *argv],
            capture_output=True, text=True, env=child_env())
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert (proc.returncode, code, proc.stderr) == (0, "0", "")
        assert set(loaded) == FRONTEND | {f"pcfkit.{m}" for m in LAYERS[sub]}

    def test_closed_stdout_ends_quietly(self):
        # the trace runs to 1.8 MB, far past what the pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "pcfkit.frontend.cli", "step",
             str(SAMPLES / "add.pcf"), "--max", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert proc.stdout.readline().startswith("app-left ⇝ ".encode())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_module_entry_point(self):
        proc = run_module("run", str(SAMPLES / "add.pcf"))
        assert proc.returncode == 0
        assert proc.stdout == "3\n"


# -- the exit-code contract, as a property over generated inputs

# each subcommand's budget flags
BUDGETS = {"check": (), "compile": (), "step": ("--max",),
           "run": ("--max-steps",), "denote": ("--fuel",),
           "adequacy": ("--fuel", "--max-steps"),
           "sound": ("--fuel", "--max-steps"), "eq": ()}
TOKENS = ["zero", "succ", "pred", "ifz", "fix", "#0", "#7", "x", "f",
          "\\x:nat.", "\\f:nat -> nat.", "(", ")", "nat", "->", ":", ".",
          "\\", "-- note\n", "\n"]


@st.composite
def programs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ty = random_type(rng, 2)
    return _show(_random_surface(rng, {}, ty, draw(st.integers(0, 5))))


def _lambdas(n):
    return ("(" + "".join(f"\\x{i}:nat. " for i in range(n)) + "x0)"
            + " zero" * n)


NESTINGS = [lambda n: "succ (" * n + "zero" + ")" * n,
            lambda n: "(" * n + "#3" + ")" * n,
            lambda n: "(" * n + "zero" + ")" * (n - 1),
            _lambdas]
SPINES = [lambda n: "zero " * n, lambda n: "succ " * n + "zero",
          lambda n: "(\\x:nat. x)" + " #0" * n]

SOURCES = st.one_of(
    programs(),                                            # well-typed
    # one well-typed program applied to another: mostly ill-typed
    st.tuples(programs(), programs()).map("({0[0]}) ({0[1]})".format),
    st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join),
    st.builds(lambda make, n: make(n), st.sampled_from(NESTINGS),
              st.integers(1, 3000)),
    st.builds(lambda make, n: make(n), st.sampled_from(SPINES),
              st.integers(1, 3000)),
    st.text("0123456789", min_size=1, max_size=6000).map("succ #{}".format),
).map(lambda src: src.encode("utf-8")) | st.binary(max_size=300)


@st.composite
def invocations(draw):
    sub = draw(st.sampled_from(list(BUDGETS)))
    files = [draw(SOURCES)] + ([draw(SOURCES)] if sub == "eq" else [])
    flags = []
    for flag in BUDGETS[sub]:
        flags += [flag, str(draw(st.sampled_from([0, 1, -1])))]
    return sub, files, flags


@seed(2019)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(invocations())
def test_exit_codes_hold_for_generated_inputs(tmp_path_factory, case):
    sub, files, flags = case
    d = tmp_path_factory.mktemp("in")
    paths = []
    for i, data in enumerate(files):
        paths.append(d / f"{i}.pcf")
        paths[-1].write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([sub, *map(str, paths), *flags])
        except SystemExit as exc:      # argparse: a usage error
            code = exc.code
            usage = True
        else:
            usage = False
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5) and "Traceback" not in err, (code, err)
    lines = err.splitlines()
    if usage:
        # argparse's usage, then one line with the error
        assert code == 2 and lines[0].startswith(f"usage: pcf {sub} ")
        assert lines[-1].startswith(f"pcf {sub}: error: "), err
    elif code <= 1:
        assert err == ""
    elif out.startswith("VIOLATION "):
        assert code == 4 and err == ""          # a cross-check failed
    else:
        assert len(lines) == 1 and err.endswith("\n"), err
        prefix = {2: ("type error: ",),
                  3: ("parse error: ", "cannot read input: "),
                  4: ("internal error: RecursionError: ",     # a resource
                      "internal error: MemoryError: ")}[code]  # cap
        assert err.startswith(prefix), err


def test_sources_parse_under_the_oldest_python_supported():
    # pyproject.toml asks for Python 3.10 or later, so no source may use
    # later syntax, such as except*
    root = SAMPLES.parent
    paths = sorted((root / "src").rglob("*.py"))
    paths += sorted((root / "tests").rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
