import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ott.checker import HasType
from ott.oracle import DerivationSpace
from ott.surface import _lex, print_term
from ott.terms import Const, NatTy, Signature

from generators import print_context

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ott.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_postulates_only_exits_zero(tmp_path):
    path = _write(tmp_path, "p.ott", "postulate A : Type\npostulate a : A\n")
    result = _run(["check", path])
    assert result.returncode == 0
    assert "FAIL" not in result.stdout


def test_failing_obligation_prints_locus_and_exits_one(tmp_path):
    path = _write(tmp_path, "bad.ott", """
postulate A : Type
postulate a : A
check [] |- refl(A, a) : Id(A, a, refl(A, a))
""")
    result = _run(["check", path])
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "refl type mismatch" in result.stdout


def test_parse_error_exits_two(tmp_path):
    path = _write(tmp_path, "broken.ott", "postulate A :\n")
    result = _run(["check", path])
    assert result.returncode == 2
    assert "expected a term" in result.stderr


def test_invalid_utf8_exits_two_with_position(tmp_path):
    path = tmp_path / "bad.ott"
    path.write_bytes(b"postulate A : Type\npostulate a\xff : A\n")
    result = _run(["check", str(path)])
    assert result.returncode == 2
    assert result.stderr == f"{path}:2:12: invalid UTF-8 byte 0xff\n"


DEEP = 10**5


def test_deep_nest_is_checked(tmp_path):
    """Any nesting depth the checker accepts is accepted."""
    nest = "succ(" * DEEP + "zero" + ")" * DEEP
    path = _write(tmp_path, "deep.ott", f"check [] |- {nest} : Nat\n")
    result = _run(["--json", "check", path])
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert (record["verdict"], record["steps"]) == ("accept", 2 * DEEP + 3)


def test_unclosed_deep_nest_is_a_syntax_error(tmp_path):
    text = "check [] |- " + "succ(" * DEEP + "zero"
    path = _write(tmp_path, "open.ott", text)
    result = _run(["check", path])
    assert result.returncode == 2
    assert result.stderr == f"{path}:1:{len(text) + 1}: expected ')', found ''\n"


def test_main_changes_no_interpreter_setting(tmp_path, capsys):
    """``main`` runs in the caller's thread and leaves the recursion limit
    and the thread stack size as it found them."""
    import threading

    from ott import cli

    path = _write(tmp_path, "ok.ott", "postulate A : Type\npostulate a : A\ncheck [] |- a : A\n")
    before = (sys.getrecursionlimit(), threading.stack_size())
    assert cli.main(["check", path]) == 0
    assert (sys.getrecursionlimit(), threading.stack_size()) == before
    assert "ok" in capsys.readouterr().out


def test_missing_file_exits_three(tmp_path):
    result = _run(["check", str(tmp_path / "absent.ott")])
    assert result.returncode == 3


def test_json_stream_is_parseable(tmp_path):
    path = _write(tmp_path, "ok.ott", """
postulate A : Type
postulate a : A
check [] |- refl(A, a) : Id(A, a, a)
infer [x : A] |- refl(A, x)
infer [x : A] |- app{A, z.A}(x, x)
""")
    result = _run(["--json", "check", path])
    assert result.returncode == 1  # the last item is rejected
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert records[0]["verdict"] == "accept"
    assert {"steps", "nanoseconds", "locus", "reason"} <= set(records[0])
    assert records[1]["item"] == "infer"
    assert records[1]["inferred"] == "Id(A, x, x)"
    # infer rejections carry the same stage root as check records
    assert records[2]["item"] == "infer" and records[2]["verdict"] == "reject"
    assert records[2]["reason"] == "variable type mismatch"
    assert records[2]["locus"] == ["term", 2]


def test_steps_flag_shows_counters(tmp_path):
    path = _write(tmp_path, "ok.ott", """
postulate A : Type
postulate a : A
check [] |- refl(A, a) : Id(A, a, a)
""")
    result = _run(["--steps", "check", path])
    assert result.returncode == 0
    assert "steps=" in result.stdout


def test_elab_commands_report_recheck(tmp_path):
    path = _write(tmp_path, "elab.ott", """
postulate A : Type
postulate a : A
elab [x : A, y : A, p : Id(A, x, y)] |- symmetry(A, x, y, p)
elab [] |- tele_pi{[x : A, e : Id(A, x, a)] . Nat}
""")
    result = _run(["check", path])
    assert result.returncode == 0
    assert "rechecked : Id(A, y, x)" in result.stdout


def test_elab_rejection_prints_its_error_only(tmp_path, capsys):
    """An elab rejection has no reason or locus, so none is printed."""
    from ott import cli

    path = _write(tmp_path, "sym.ott", """
postulate A : Type
elab [x : A, y : A, p : Id(A, x, x)] |- symmetry(A, x, y, p)
""")
    assert cli.main(["check", path]) == 1
    assert capsys.readouterr().out == (
        "FAIL elab symmetry  -- precondition failed: symmetry: path relates lhs and rhs\n"
    )


def _unbound_exit(tmp_path, capsys, text, line, name):
    """Run ``text`` whose line ``line`` has the first unbound name, ``name``:
    exit 2 at that name's position, and no record for any item."""
    from ott import cli

    path = _write(tmp_path, "unbound.ott", text)
    assert cli.main(["--json", "check", path]) == 2
    col = text.splitlines()[line - 1].index(f"{name},") + 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{path}:{line}:{col}: unbound name {name!r}\n")


def test_unbound_name_in_elab_item_exits_two(tmp_path, capsys):
    _unbound_exit(tmp_path, capsys, """postulate A : Type
postulate a : A
elab [x : A, p : Id(A, x, x)] |- symmetry(A, x, q, p)
check [] |- a : A
""", 3, "q")


def test_unbound_names_in_elab_item_reported_in_text_order(tmp_path, capsys):
    """Of two unbound names in one elab item, the first in the text is
    reported, although the elaborator takes the base after the ends."""
    _unbound_exit(tmp_path, capsys, """postulate A : Type
elab [x : A, p : Id(A, x, x)] |- tele_idrec{A; x y u. [e : Id(A, x, y)] . Id(A, x, y)}(x, r, p; p; x e. s)
""", 2, "r")


def _grammar_keywords(production):
    """The quoted words (not punctuation) of a production in
    docs/grammar.ebnf."""
    text = re.sub(r"\(\*.*?\*\)", "", (ROOT / "docs" / "grammar.ebnf").read_text(),
                  flags=re.DOTALL)
    tokens = re.findall(r'"[^"]*"|[^\s"]+', text)
    start = next(i for i in range(len(tokens) - 1)
                 if tokens[i:i + 2] == [production, "="]) + 2
    body = tokens[start: tokens.index(";", start)]  # an unquoted ";" ends it
    return {t[1:-1] for t in body if t[0] == '"' and t[1:-1].isidentifier()}


def test_every_elab_op_is_dispatched():
    """Every elaborator the parser accepts has an entry in the CLI's table,
    and the grammar doc names the same elaborators, and the same term
    keywords as the syntax table."""
    from ott.cli import _ELABORATORS
    from ott.surface import _ELAB_OPS, _SYNTAX

    assert sorted(_ELABORATORS) == sorted(_ELAB_OPS)
    assert _grammar_keywords("elabcall") == set(_ELAB_OPS)
    assert _grammar_keywords("term") == {row[0] for row in _SYNTAX}


def test_ill_typed_telescope_input_fails_its_item_only(tmp_path, capsys):
    """A telescope body of the wrong type is a failed precondition: the
    item fails, and the script goes on to the next item."""
    from ott import cli

    path = _write(tmp_path, "tele.ott", """postulate A : Type
postulate a : A
elab [] |- tele_lam{[x : A, e : Id(A, x, a)] . Id(A, x, x)}(refl(A, a))
check [] |- a : A
""")
    assert cli.main(["check", path]) == 1
    assert capsys.readouterr().out == (
        "FAIL elab tele_lam  -- precondition failed: body term inhabits the telescope body\n"
        "ok   check |- a : A\n"
    )


def test_telescope_item_mutants_never_crash(tmp_path, capsys):
    """Every single-token mutant of the equality demo's telescope items (a
    token deleted, or replaced by ``a``, ``x`` or ``zero``) ends with exit
    0, 1 or 2, never with an exception."""
    from ott import cli

    lines = (ROOT / "demo" / "equality.ott").read_text(encoding="utf-8").splitlines()
    prelude = [line for line in lines if line.startswith("postulate")]
    items = [line for line in lines if line.startswith("elab") and "tele_" in line]
    assert len(items) == 8
    path = tmp_path / "mutant.ott"
    codes = set()
    for item in items:
        words = _lex(item)[:-1]
        for at in range(len(words)):
            for word in ((), ("a",), ("x",), ("zero",)):
                mutant = " ".join(words[:at] + list(word) + words[at + 1:])
                path.write_text("\n".join(prelude + [mutant]) + "\n")
                codes.add(cli.main(["check", str(path)]))
    capsys.readouterr()
    assert codes == {0, 1, 2}


def _benchmark_script(items=100):
    """The benchmark's seed-1 script, at 100 items unless told otherwise."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.script_text(1, items=items)[0]


@pytest.mark.parametrize("last, error", [
    ("check [w : A] |- refl(A, w) : Id(A, w w)", "10404:39: expected ',', found 'w'"),
    ("check [w : A] |- refl(A, w) : Id(A, w, w) ?", "10404:43: unexpected character '?'"),
    ("check [w : A] |- refl(A, w) : Id(A, w, v)", "10404:40: unbound name 'v'"),
], ids=["syntax", "stray", "unbound"])
def test_error_on_the_last_line_of_the_benchmark_script(tmp_path, capsys, last, error):
    """The 10,000-item benchmark script with an error on its last line is
    reported at the line and column that a lexer keeping every token's
    position reported: a syntax error, a stray character, and an unbound
    name, which is found only after every item before it ran."""
    from ott import cli

    lines = _benchmark_script(items=10_000).splitlines()
    assert len(lines) == 10404
    path = _write(tmp_path, "last.ott", "\n".join(lines[:-1] + [last]) + "\n")
    assert cli.main(["--json", "check", path]) == 2
    assert capsys.readouterr().err == f"{path}:{error}\n"


def test_unbound_name_is_placed_by_reading_its_own_item_only(tmp_path, capsys, monkeypatch):
    """An unbound name in the last item of the 10,000-item benchmark script
    is placed by reading that one item again: the positional scan starts at
    the item's first token, and the parser reads one item more than the
    script has."""
    from ott import cli, surface

    lines = _benchmark_script(items=10_000).splitlines()
    text = "\n".join(lines[:-1] + ["check [w : A] |- refl(A, w) : Id(A, w, v)"]) + "\n"
    path = _write(tmp_path, "last.ott", text)
    script = surface.parse(text)
    items, scans = [], []
    item, scan = surface._Parser.item, surface._scan
    monkeypatch.setattr(surface._Parser, "item", lambda self: items.append(self.pos) or item(self))
    monkeypatch.setattr(surface, "_scan", lambda text, at=0: scans.append(at) or scan(text, at))
    assert cli.main(["--json", "check", path]) == 2
    assert capsys.readouterr().err == f"{path}:10404:40: unbound name 'v'\n"
    assert scans == [script.starts[-1]]
    assert len(items) == len(script.items) + 1 and items[-1] == 0


@pytest.mark.parametrize("text, error", [
    ("postulate A : Type\r\npostulate a : A\r\ncheck [] |- refl(A a) : Id(A, a, a)\r\n",
     "3:20: expected ',', found 'a'"),
    ("postulate A : Type\r\npostulate a : A\r\ncheck [] |- refl(A, a) : Id(A, a, a) ½\r\n",
     "3:38: unexpected character '½'"),
    ("postulate A : Type\r\npostulate a : A\r\ncheck [] |- refl(A, a) : Id(A, a, b)\r\n",
     "3:35: unbound name 'b'"),
    ("postulate A : Type\n\tpostulate a :\tA\n\tcheck []\t|- refl(A,\ta) : Id(A, a a)\n",
     "3:35: expected ',', found 'a'"),
    ("postulate A : Type\n\tpostulate a :\tA\n\tcheck []\t|- refl(A,\ta) : Id(A, a, a)\t'\n",
     "3:39: unexpected character \"'\""),
    ("postulate A : Type\n\tpostulate a :\tA\n\tcheck []\t|- refl(A,\tb) : Id(A, a, a)\n",
     "3:22: unbound name 'b'"),
], ids=["crlf-syntax", "crlf-stray", "crlf-unbound", "tab-syntax", "tab-stray", "tab-unbound"])
def test_errors_in_crlf_and_tab_indented_lines(tmp_path, capsys, text, error):
    """A carriage return and a tab each take one column."""
    from ott import cli

    path = tmp_path / "ws.ott"
    path.write_bytes(text.encode())
    assert cli.main(["--json", "check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}:{error}\n")


def test_scripts_without_errors_never_run_the_positional_scan(tmp_path, capsys, monkeypatch):
    """Positions are found only when an error is reported: the demos and
    the 100-item benchmark script parse, resolve and run without it."""
    from ott import cli, surface

    def scan(*args):
        raise AssertionError("the positional scan ran")

    monkeypatch.setattr(surface, "_scan", scan)
    paths = [str(ROOT / "demo" / "basics.ott"), str(ROOT / "demo" / "equality.ott"),
             _write(tmp_path, "script.ott", _benchmark_script())]
    for path in paths:
        surface.parse(Path(path).read_bytes())
        assert cli.main(["--json", "check", path]) in (0, 1)
    capsys.readouterr()


def _golden_script(tmp_path, name):
    """The path of the script that ``tests/golden/<name>.*`` records: a demo,
    or the benchmark's 100-item script."""
    if name == "script-1-100":
        return _write(tmp_path, "script.ott", _benchmark_script())
    return str(ROOT / "demo" / f"{name}.ott")


@pytest.mark.parametrize("name, code", [("basics", 0), ("equality", 0), ("script-1-100", 1)])
def test_json_records_match_recorded_outputs(tmp_path, capsys, name, code):
    """``ott --json check`` prints the records in ``tests/golden``, where
    each verdict's wall-clock ``nanoseconds`` is left out, and exits with
    the recorded code."""
    from ott import cli

    assert cli.main(["--json", "check", _golden_script(tmp_path, name)]) == code
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for record in records:
        record.pop("nanoseconds", None)
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    assert text == (ROOT / "tests" / "golden" / f"{name}.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, code", [("basics", 0), ("equality", 0), ("script-1-100", 1)],
                         ids=["basics", "equality", "script-1-100"])
def test_human_output_matches_recorded_output(tmp_path, capsys, name, code):
    """``ott check`` without ``--json`` or ``--steps`` prints the lines in
    ``tests/golden/<name>.txt``, ``FAIL`` lines included, and exits with the
    recorded code."""
    from ott import cli

    assert cli.main(["check", _golden_script(tmp_path, name)]) == code
    out = capsys.readouterr().out
    assert out == (ROOT / "tests" / "golden" / f"{name}.txt").read_text(encoding="utf-8")


def test_a_rejection_locus_reads_the_same_in_both_modes(tmp_path, capsys):
    """A check or infer rejection's line ends with its locus written as the
    JSON record writes it, tuples inside it as lists, and a context
    rejection's line shows the entry that its locus names."""
    from ott import cli

    path = _write(tmp_path, "loci.ott", (
        "postulate A : Type\npostulate a : A\npostulate B : Type\n"
        "check [x : Id(A, a, B)] Ctxt\ninfer [x : Id(A, a, B)] |- x\n"
        "infer [x : A] |- succ(x)\n"))
    assert cli.main(["--json", "check", path]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["locus"] for r in records] == [[["ctx", 0], 2], [["ctx", 0], 2], ["term", 0]]
    assert [r["display"] for r in records] == [
        "check [x : Id(A, a, B)] Ctxt", "infer [x : Id(A, a, B)] |- x", "infer |- succ(x)"]
    assert cli.main(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'FAIL check [x : Id(A, a, B)] Ctxt  -- not a term constant at [["ctx", 0], 2]',
        'FAIL infer [x : Id(A, a, B)] |- x  -- not a term constant at [["ctx", 0], 2]',
        'FAIL infer |- succ(x)  -- variable type mismatch at ["term", 0]',
    ]


def test_equality_demo_stated_types():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "demo" / "equality.ott"
    result = _run(["--json", "check", str(path)])
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in result.stdout.splitlines()]
    shown = [(r["display"].split()[1], r.get("stated_type", r["term"])) for r in records]
    assert shown == [
        ("transport", "Id(A, y, y)"),
        ("symmetry", "Id(A, y, x)"),
        ("transitivity", "Id(A, x, z)"),
        ("congr_app", "Id(A, app{A, x.A}(f, a), app{A, x.A}(g, a))"),
        ("tele_pi", "Pi(x : A) Pi(y : Id(A, x, a)) Id(A, x, x)"),
        ("tele_lam", "Pi(x : A) Pi(y : Id(A, x, a)) Id(A, x, x)"),
        ("tele_app", "Id(A, a, a)"),
        ("tele_beta", "Id(Nat, app{Nat, x.Nat}(app{A, y.Pi(z : Nat) Nat}(lam(z : A -> "
                      "Pi(u : Nat) Nat) lam(u : Nat -> Nat) succ(u), a), zero), succ(zero))"),
        ("tele_beta", "Id(Nat, app{Nat, x.Nat}(app{Nat, y.Pi(z : Nat) Nat}(app{A, z.Pi(u : Nat) "
                      "Pi(v : Nat) Nat}(lam(u : A -> Pi(v : Nat) Pi(w : Nat) Nat) lam(v : Nat -> "
                      "Pi(w : Nat) Nat) lam(w : Nat -> Nat) succ(v), a), zero), succ(zero)), "
                      "succ(zero))"),
        ("tele_idrec", "Id(A, x, y)"),
        ("tele_idconv", "Id(Id(A, x, x), app{Id(A, x, x), y.Id(A, x, x)}(idrec{A, z u v.Pi(w : "
                        "Id(A, z, u)) Id(A, z, u)}(x, x, refl(A, x), z.lam(w : Id(A, z, z) -> "
                        "Id(A, z, z)) w), refl(A, x)), refl(A, x))"),
        ("tele_idconv", "Id(Id(A, x, x), app{Nat, y.Id(A, x, x)}(app{Id(A, x, x), z.Pi(u : Nat) "
                        "Id(A, x, x)}(idrec{A, u v w.Pi(p : Id(A, u, v)) Pi(q : Nat) Id(A, u, v)}"
                        "(x, x, refl(A, x), u.lam(p : Id(A, u, u) -> Pi(q : Nat) Id(A, u, u)) "
                        "lam(q : Nat -> Id(A, u, u)) p), refl(A, x)), zero), refl(A, x))"),
    ]


def test_definitions_are_transparent(tmp_path):
    path = _write(tmp_path, "defs.ott", """
postulate A : Type
postulate a : A
def idA : Pi(x : A) A := lam(x : A -> A) x
check [] |- app{A, x.A}(idA, a) : A
check [] |- betaconv{A, x.A}(a, x.x) : Id(A, app{A, x.A}(idA, a), a)
""")
    result = _run(["check", path])
    assert result.returncode == 0, result.stdout


def test_ill_typed_definition_fails(tmp_path):
    path = _write(tmp_path, "defbad.ott", """
postulate A : Type
def bad : A := zero
""")
    result = _run(["check", path])
    assert result.returncode == 1


def test_bench_json_smoke():
    result = _run([
        "--json", "bench", "--family", "conv-heavy",
        "--sizes", "256,512,1024,2048,4096,8192,16384,32768",
    ])
    assert result.returncode == 0
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert any("slope" in r for r in records)
    summary = [r for r in records if "slope" in r][0]
    assert summary["passed"] is True
    assert "wall_slope" in summary


def test_bench_fits_every_family_in_process(capsys):
    """``ott bench --family all`` at 2^8 to 2^15 nodes exits 0 with one
    slope record per family, each within the gate.  A family whose step
    counts span less than two orders of magnitude over these sizes, as when
    its comparisons meet one object on both sides, makes it exit 3."""
    from ott import cli
    from ott.bench import FAMILIES

    sizes = ",".join(str(2 ** k) for k in range(8, 16))
    assert cli.main(["--json", "bench", "--family", "all", "--sizes", sizes, "--reps", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    slopes = [r for r in records if "slope" in r]
    assert [r["family"] for r in slopes] == list(FAMILIES)
    assert all(r["passed"] is True for r in slopes)


def test_usage_error_exit_code():
    result = _run(["bench", "--family", "zigzag"])
    assert result.returncode == 3


@pytest.mark.parametrize("args", [
    ["infer", "demo/basics.ott"],
    ["elab", "demo/equality.ott"],
    ["bench", "--seed", "0"],
])
def test_removed_aliases_and_options_are_usage_errors(args):
    """``check`` runs every kind of item, and the bench shapes take no seed."""
    result = _run(args, cwd=ROOT)
    assert result.returncode == 3
    assert result.stdout == ""


def test_closed_stdout_exits_three_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ott.cli", "check", "demo/basics.ott"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr == ""


def test_no_stdout_at_start_keeps_the_verdict():
    result = subprocess.run(
        f"{shlex.quote(sys.executable)} -m ott.cli check demo/basics.ott >&-",
        shell=True, capture_output=True, text=True, cwd=ROOT,
    )
    assert (result.returncode, result.stderr) == (0, "")


# golden corpus: scripts whose verdicts were fixed by the enumeration oracle


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Scripts whose expected verdicts come from the enumeration oracle."""
    from ott.terms import Id, Zero

    sig = Signature().with_type("A").with_const("a", Const("A"))
    space = DerivationSpace(sig, max_term=5, roots=((), (Const("A"),), (NatTy,)))
    positive = []
    for ctx, term, ty in space.all_term_judgements():
        if len(ctx) <= 1:
            positive.append((ctx, term, ty))
        if len(positive) >= 25:
            break
    twisted = []
    for ctx, term, ty in positive[:10]:
        wrong = Id(NatTy, Zero, Zero) if ty != Id(NatTy, Zero, Zero) else NatTy
        twisted.append((ctx, term, wrong))
    lines = ["postulate A : Type", "postulate a : A"]
    expected = []
    for ctx, term, ty in positive + twisted:
        ctx_text, names = print_context(ctx, reserved=("A", "a"))
        lines.append(
            f"check {ctx_text} |- {print_term(term, names, ('A', 'a'))}"
            f" : {print_term(ty, names, ('A', 'a'))}"
        )
        derivable = space.derivable(HasType(ctx, term, ty))
        expected.append("accept" if derivable else "reject")
    path = tmp_path_factory.mktemp("golden") / "corpus.ott"
    path.write_text("\n".join(lines) + "\n")
    return str(path), expected


def test_golden_corpus_verdicts(golden):
    path, expected = golden
    result = _run(["--json", "check", path])
    records = [json.loads(line) for line in result.stdout.splitlines()]
    verdicts = [r["verdict"] for r in records if r["item"] == "check"]
    assert verdicts == expected


def test_duplicate_postulate_fails_cleanly(tmp_path):
    path = _write(tmp_path, "dup.ott", "postulate A : Type\npostulate A : Type\n")
    result = _run(["check", path])
    assert result.returncode == 1
    assert "duplicate" in result.stderr


@pytest.mark.parametrize("text", [
    # a second def would change what d means halfway through the script
    "def d : A := a\ndef d : A := b\ncheck [p : Id(A, d, b)] |- p : Id(A, b, b)\n",
    # a def would shadow the postulated type
    "def A : A := a\ncheck [] |- a : A\n",
    # a postulate would be shadowed by the def before it
    "def d : A := a\npostulate d : A\n",
], ids=["def-after-def", "def-after-postulate", "postulate-after-def"])
def test_redeclared_name_fails_cleanly(tmp_path, text):
    declared = "postulate A : Type\npostulate a : A\npostulate b : A\n"
    path = _write(tmp_path, "redeclared.ott", declared + text)
    result = _run(["check", path])
    assert result.returncode == 1
    assert "duplicate" in result.stderr


def test_shipped_demo_scripts_run_clean():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("basics.ott", "equality.ott"):
        result = _run(["check", str(root / "demo" / name)])
        assert result.returncode == 0, (name, result.stdout, result.stderr)
        assert "FAIL" not in result.stdout
