import random
import sys

import pytest

from ott.surface import (
    ParseError, parse, parse_term, print_script, print_term, to_core,
)
from ott.terms import (
    App, Const, Id, IdRec, Lambda, NatRec, NatTy, Pi, Refl, Succ, Var, Zero,
    size, syntactic_equal,
)
from ott.testing import Generator

A = Const("A")


def _core(text, scope, sig):
    return to_core(parse_term(text), scope, sig)


def test_postulate_type(sig):
    script = parse(b"postulate B : Type")
    assert script.items[0].name == "B"
    assert script.items[0].ty is None


def test_check_item_shape(sig):
    script = parse("check [x : A] |- refl(A, x) : Id(A, x, x)")
    item = script.items[0]
    assert item.form == "term"
    core = to_core(item.term, ["x"], sig)
    assert core == Refl(A, Var(0))
    assert to_core(item.ty, ["x"], sig) == Id(A, Var(0), Var(0))


def test_to_core_basic_binding(sig):
    assert _core("lam(x : A -> A) x", [], sig) == Lambda(A, A, Var(0))


def test_to_core_nested_binding_standard_indices(sig):
    t = _core("lam(x : A -> Pi(y : A) A) lam(y : A -> A) x", [], sig)
    assert t[3][3] == Var(1)


def test_alpha_classes_collapse(sig):
    s1 = _core("lam(x : A -> A) x", [], sig)
    s2 = _core("lam(y : A -> A) y", [], sig)
    assert s1 == s2


def test_shadowing_resolves_innermost(sig):
    t = _core("lam(x : A -> Pi(x : A) A) lam(x : A -> A) x", [], sig)
    assert t[3][3] == Var(0)


def test_unbound_name_is_an_error(sig):
    with pytest.raises(ParseError) as err:
        _core("refl(A, ghost)", [], sig)
    assert "ghost" in str(err.value)


def test_duplicate_context_binders_rejected(sig):
    with pytest.raises(ParseError) as err:
        parse("check [x : A, x : A] Ctxt")
    assert "duplicate binder" in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("postulate A :\ncheck")
    assert err.value.line == 2


def test_comments_and_whitespace(sig):
    script = parse("""
    -- leading comment
    postulate B : Type  -- trailing comment
    """)
    assert len(script.items) == 1


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse("postulate refl : Type")


def test_print_term_examples(sig):
    assert print_term(Var(0), ("x",)) == "x"
    assert print_term(Refl(A, Var(0)), ("x",), reserved=("A",)) == "refl(A, x)"
    assert print_term(Zero) == "zero"
    assert print_term(NatTy) == "Nat"


def test_print_avoids_capture(sig):
    # the free variable named x must not be shadowed by a generated binder
    t = Lambda(A, A, Var(1))
    text = print_term(t, ("x",), reserved=("A",))
    back = to_core(parse_term(text), ["x"], sig)
    assert back == t


def test_round_trip_random_core_terms(sig, rng):
    gen = Generator(sig, rng)
    reserved = ("A", "a")
    for _ in range(300):
        ctx, term, ty = gen.random_judgement()
        names = tuple(f"v{i}" for i in range(len(ctx)))
        for t in (term, ty):
            text = print_term(t, names, reserved)
            assert to_core(parse_term(text), list(names), sig) == t


def test_script_print_parse_round_trip(sig):
    src = """
postulate A : Type
postulate a : A
def idA : Pi(x : A) A := lam(x : A -> A) x
check [x : A] |- refl(A, x) : Id(A, x, x)
check [] |- Id(A, a, a) Type
check [x : A, y : A] Ctxt
infer [x : A] |- refl(A, x)
elab [x : A, y : A, p : Id(A, x, y)] |- symmetry(A, x, y, p)
elab [x : A, y : A, p : Id(A, x, y)] |- transitivity(A, x, y, y, p, refl(A, y))
elab [] |- tele_pi{[x : A, e : Id(A, x, a)] . Nat}
elab [] |- tele_beta{[x : A, n : Nat] . Nat}(succ(n); a, zero)
elab [x : A] |- tele_idrec{A; x y u. [e : Id(A, x, y)] . Id(A, x, y)}(x, x, refl(A, x); refl(A, x); x e. e)
"""
    script = parse(src)
    assert parse(print_script(script)) == script


def test_definitions_splice_closed_bodies(sig):
    script = parse("""
postulate B : Type
postulate b : B
def pair : Id(B, b, b) := refl(B, b)
check [] |- refl(Id(B, b, b), pair) : Id(Id(B, b, b), pair, pair)
""")
    # resolution happens in the runner; here we just confirm the item parses
    assert len(script.items) == 4


def test_parse_rejects_stray_characters():
    with pytest.raises(ParseError):
        parse("check [] |- ? : A")


def test_invalid_utf8_is_a_parse_error_at_the_bad_byte():
    with pytest.raises(ParseError) as err:
        parse("postulate A : Type\npostulate α".encode() + b"\xff : A")
    assert (err.value.line, err.value.col) == (2, 12)
    assert err.value.message == "invalid UTF-8 byte 0xff"
    with pytest.raises(ParseError) as err:
        parse_term(b"\xc3")
    assert (err.value.line, err.value.col) == (1, 1)


def test_random_scripts_round_trip(sig, rng):
    """print_script . parse is the identity on randomly assembled scripts."""
    from ott.surface import print_context

    gen = Generator(sig, rng)
    reserved = ("A", "a")
    for _ in range(40):
        lines = ["postulate A : Type", "postulate a : A"]
        for _ in range(rng.randrange(1, 6)):
            ctx, term, ty = gen.random_judgement()
            ctx_text, names = print_context(ctx, reserved)
            kind = rng.randrange(3)
            if kind == 0:
                lines.append(
                    f"check {ctx_text} |- {print_term(term, names, reserved)}"
                    f" : {print_term(ty, names, reserved)}"
                )
            elif kind == 1:
                lines.append(f"check {ctx_text} |- {print_term(ty, names, reserved)} Type")
            else:
                lines.append(f"infer {ctx_text} |- {print_term(term, names, reserved)}")
        first = parse("\n".join(lines))
        again = parse(print_script(first))
        assert again == first


def test_deep_nests_need_no_deep_python_stack(sig):
    """Parsing, name resolution and both printers run on explicit stacks:
    a 10^5-deep nest goes through each under the default recursion limit.
    Deep trees are compared with syntactic_equal, size and strings, never
    with ==, which recurses."""
    n = 10**5
    text = "succ(" * n + "zero" + ")" * n
    expected = Zero
    for _ in range(n):
        expected = Succ(expected)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        surface = parse_term(text)
        core = to_core(surface, [], sig)
        assert size(core) == n + 1 and syntactic_equal(core, expected)
        assert print_term(core) == text
        item = f"check [] |- {text} : Nat"
        assert print_script(parse(item)) == item + "\n"
    finally:
        sys.setrecursionlimit(limit)
