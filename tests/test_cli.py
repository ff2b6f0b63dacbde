import json
import subprocess
import sys

import pytest

from ott.checker import HasType, check
from ott.oracle import DerivationSpace
from ott.surface import print_context, print_term
from ott.terms import Const, NatTy, Signature


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
    result = _run(["elab", path])
    assert result.returncode == 0
    assert "rechecked : Id(A, y, x)" in result.stdout


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


def test_usage_error_exit_code():
    result = _run(["bench", "--family", "zigzag"])
    assert result.returncode == 3


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


def test_shipped_demo_scripts_run_clean():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("basics.ott", "equality.ott"):
        result = _run(["check", str(root / "demo" / name)])
        assert result.returncode == 0, (name, result.stdout, result.stderr)
        assert "FAIL" not in result.stdout
