import gc
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ott.surface import (
    KEYWORDS, ParseError, Script, _lex, is_pair, parse, parse_term, print_term,
    to_core,
)
from ott.terms import (
    Const, Id, Lambda, NatTy, Refl, Succ, Var, Zero, size, syntactic_equal,
)

from generators import Generator, print_context

A = Const("A")
ROOT = Path(__file__).resolve().parents[1]


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


def test_elab_args_carry_their_scopes():
    """Each elab argument is paired with the binders written in the item
    that scope over it, in the elaborator's call order.  Every op and the
    empty telescope and argument list forms are read."""
    xyu = ("x", "y", "u")
    cases = [  # the call; each argument's binders; its terms' head words
        ("tele_beta{[x : A, n : Nat] . Nat}(succ(n); a, zero)",
         [[(), ("x",)], ("x", "n"), ("x", "n"), [(), ()]], "A Nat Nat succ a zero"),
        ("tele_app{[x : A] . Nat}(f; a)", [[()], ("x",), (), [()]], "A Nat f a"),
        ("tele_app{[] . Nat}(f)", [[], (), (), []], "Nat f"),
        ("transport{A, z.B}(x, y, p, q)", [(), ("z",)] + [()] * 4, "A B x y p q"),
        ("congr_app{A, v.B}(f, g, h, a)", [(), ("v",)] + [()] * 4, "A B f g h a"),
        ("symmetry(A, x, y, p)", [()] * 4, "A x y p"),
        ("transitivity(A, x, y, z, p, refl(A, z))", [()] * 6, "A x y z p refl"),
        ("tele_pi{[x : A, e : Id(A, x, a)] . Nat}", [[(), ("x",)], ("x", "e")], "A Id Nat"),
        ("tele_lam{[x : A, e : E] . Id(A, x, x)}(refl(A, x))",
         [[(), ("x",)], ("x", "e"), ("x", "e")], "A E Id refl"),
        ("tele_idrec{A; x y u. [e : E, f : F] . P}(l, r, p; s, t; x e f. d)",
         [(), [xyu, xyu + ("e",)], xyu + ("e", "f"), (), (), (), [(), ()], ("x", "e", "f")],
         "A E F P l r p s t d"),
        ("tele_idconv{A; x y u. [e : E, n : Nat] . P}(x; r, zero; x e n. e)",
         [(), [xyu, xyu + ("e",)], xyu + ("e", "n"), (), [(), ()], ("x", "e", "n")],
         "A E Nat P x r zero e"),
        ("tele_idconv{A; x y u. [] . Id(A, x, y)}(x; ; x. refl(A, x))",
         [(), [], xyu, (), [], ("x",)], "A Id x refl"),
    ]
    for call, scopes, heads in cases:
        (item,) = parse("elab [] |- " + call).items
        assert [arg[0] if is_pair(arg) else [b for b, _ in arg] for arg in item.args] == scopes
        pairs = [pair for arg in item.args for pair in ((arg,) if is_pair(arg) else arg)]
        assert " ".join(t if type(t) is str else t[0] for _, t in pairs) == heads, call


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
    """Random judgements printed as script items parse and resolve back to
    themselves: each item's context entries, term and type."""

    def resolve(s, names):
        return None if s is None else to_core(s, names, sig)

    gen = Generator(sig, rng)
    reserved = ("A", "a")
    for _ in range(40):
        lines = ["postulate A : Type", "postulate a : A"]
        expected = []
        for _ in range(rng.randrange(1, 6)):
            ctx, term, ty = gen.random_judgement()
            ctx_text, names = print_context(ctx, reserved)
            kind = rng.randrange(4)
            if kind == 0:
                lines.append(
                    f"check {ctx_text} |- {print_term(term, names, reserved)}"
                    f" : {print_term(ty, names, reserved)}"
                )
                expected.append(("CheckItem", ctx, term, ty))
            elif kind == 1:
                lines.append(f"check {ctx_text} |- {print_term(ty, names, reserved)} Type")
                expected.append(("CheckItem", ctx, None, ty))
            elif kind == 2:
                lines.append(f"check {ctx_text} Ctxt")
                expected.append(("CheckItem", ctx, None, None))
            else:
                lines.append(f"infer {ctx_text} |- {print_term(term, names, reserved)}")
                expected.append(("InferItem", ctx, term, None))
        items = parse("\n".join(lines)).items
        assert [(p.name, resolve(p.ty, [])) for p in items[:2]] == [("A", None), ("a", A)]
        got = []
        for item in items[2:]:
            names, ctx = [], []
            for name, entry in item.bindings:
                ctx.append(to_core(entry, names, sig))
                names.append(name)
            got.append((type(item).__name__, tuple(ctx), resolve(item.term, names),
                        resolve(getattr(item, "ty", None), names)))
        assert got == expected


def test_deep_nests_need_no_deep_python_stack(sig):
    """Parsing, name resolution and printing run on explicit stacks: a
    10^5-deep nest goes through each under the default recursion limit.
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
    finally:
        sys.setrecursionlimit(limit)


def _terms(script):
    """Every term of a parsed script, subterms included, with its depth."""
    todo = []
    for item in script.items:
        todo.extend(t for _, t in getattr(item, "bindings", ()))
        todo.extend(getattr(item, f, None) for f in ("ty", "body", "term"))
        for arg in getattr(item, "args", ()):
            todo.extend(t for _, t in ((arg,) if is_pair(arg) else arg))
    todo = [(t, 0) for t in todo if t is not None]
    while todo:
        t, depth = todo.pop()
        yield t, depth
        # a name is a string; a constructor's children follow its keyword
        # and their binders
        if type(t) is tuple:
            todo.extend((child, depth + 1) for child in t[2::2])


def test_parsed_terms_are_plain_tuples_the_collector_untracks():
    """Every term node is an exact string (a name) or an exact tuple of
    strings and such tuples, so the cyclic garbage collector can untrack a
    parsed script instead of rescanning it.  A full collection untracks
    each tuple whose contents are untracked by then, so a fresh tree can
    take one collection per level of its deepest term."""
    for path in sorted((ROOT / "demo").glob("*.ott")):
        nodes = list(_terms(parse(path.read_bytes())))
        assert nodes and all(type(t) in (tuple, str) for t, _ in nodes)
        assert any(type(t) is tuple for t, _ in nodes)
        for _ in range(max(depth for _, depth in nodes) + 1):
            gc.collect()
        assert [t for t, _ in nodes if gc.is_tracked(t)] == []


# fuzzing ----------------------------------------------------------------------
#
# Whatever bytes or text come in, ``parse`` returns a Script and
# ``parse_term`` a term, or either raises a ParseError; no other exception
# escapes.  The inputs are random bytes, soups of the language's own tokens,
# and the demo scripts with tokens deleted, repeated, swapped and inserted,
# which reach deep into the grammar before they go wrong.

_TOKENS = sorted(KEYWORDS) + [
    "|-", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".",
    "x", "y", "A", "a", "_", "x'", "--", "-", "|", "0", "½", "é",
]
_TOKEN_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)
_DEMO = [_lex((ROOT / "demo" / name).read_text())[:-1]
         for name in ("basics.ott", "equality.ott")]


@st.composite
def _demo_mutant(draw):
    """A demo script's lexemes (comments are not among them) with one to
    eight random edits, joined by spaces."""
    words = list(draw(st.sampled_from(_DEMO)))
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(words)))
        j = draw(st.integers(i, min(len(words), i + 6)))
        edit = draw(st.sampled_from(("delete", "repeat", "swap", "insert")))
        if edit == "delete":
            del words[i:j]
        elif edit == "repeat":
            words[i:i] = words[i:j]
        elif edit == "swap" and j < len(words):
            words[i], words[j] = words[j], words[i]
        else:
            words.insert(i, draw(st.sampled_from(_TOKENS)))
    return " ".join(words)


def _read_outcome(read, source, kind):
    try:
        result = read(source)
    except ParseError:
        return
    assert isinstance(result, kind), (source, result)


@settings(max_examples=300)
@given(st.one_of(
    st.binary(max_size=80), _TOKEN_SOUP, _TOKEN_SOUP.map(str.encode), _demo_mutant(),
    st.tuples(_demo_mutant(), st.binary(max_size=4)).map(
        lambda p: p[0].encode() + p[1]),
))
def test_parsers_give_a_result_or_a_parse_error(source):
    _read_outcome(parse, source, Script)
    _read_outcome(parse_term, source, (tuple, str))


def test_demo_mutants_reach_the_grammar():
    """The unedited demo lexemes, joined by spaces, parse to the demo
    scripts' items, so an edit goes wrong only where it is made."""
    for name, words in zip(("basics.ott", "equality.ott"), _DEMO):
        script = parse((ROOT / "demo" / name).read_text())
        assert parse(" ".join(words)).items == script.items
