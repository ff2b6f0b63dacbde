"""The table-driven surface layer against the recursive code it replaced.

``ReferenceParser.term``, ``reference_print_term`` and
``reference_surface`` are the parser's term rule and the two printers
as they were written before the syntax table: one hand-written branch per
constructor, recursing on the Python stack.  The parser must build the same
trees with the same spans, or raise the same ParseError at the same place;
the printers must write the same text, or raise the same ValueError.  The one
intended difference is a negative de Bruijn index, which the reference
printer writes as a name from the wrong end of the scope.
"""

import dataclasses
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ott.kernel import (
    APP, BETA, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)
from ott.surface import (
    KEYWORDS, ParseError, SurfaceTerm, _decode, _fresh, _lex, _Parser,
    _print_surface, print_term,
)
from ott.terms import Const, Var
from ott.testing import Generator, default_signature, replace_at, subterm_paths

ROOT = Path(__file__).resolve().parents[1]


class ReferenceParser(_Parser):
    def term(self) -> SurfaceTerm:
        kind, word, line, col = self.peek()
        span = (line, col)
        if kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "name":
            self.next()
            return SurfaceTerm("name", name=word, span=span)
        if kind != "kw":
            self.fail(f"expected a term, found {word!r}")
        if word == "Nat":
            self.next()
            return SurfaceTerm("nat", span=span)
        if word == "zero":
            self.next()
            return SurfaceTerm("zero", span=span)
        if word == "succ":
            self.next()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return SurfaceTerm("succ", children=(((), arg),), span=span)
        if word == "Pi":
            self.next()
            self.expect("(")
            binder = self.name()
            self.expect(":")
            dom = self.term()
            self.expect(")")
            cod = self.term()
            return SurfaceTerm("pi", children=(((), dom), ((binder,), cod)), span=span)
        if word == "lam":
            self.next()
            self.expect("(")
            binder = self.name()
            self.expect(":")
            dom = self.term()
            self.expect("->")
            cod = self.term()
            self.expect(")")
            body = self.term()
            return SurfaceTerm(
                "lam",
                children=(((), dom), ((binder,), cod), ((binder,), body)),
                span=span,
            )
        if word == "app":
            self.next()
            dom, binder, cod = self._family1()
            self.expect("(")
            fun = self.term()
            self.expect(",")
            arg = self.term()
            self.expect(")")
            return SurfaceTerm(
                "app",
                children=(((), dom), ((binder,), cod), ((), fun), ((), arg)),
                span=span,
            )
        if word == "betaconv":
            self.next()
            dom, binder, cod = self._family1()
            self.expect("(")
            arg = self.term()
            self.expect(",")
            b2 = self.name()
            self.expect(".")
            body = self.term()
            self.expect(")")
            return SurfaceTerm(
                "betaconv",
                children=(((), dom), ((binder,), cod), ((), arg), ((b2,), body)),
                span=span,
            )
        if word == "Id":
            self.next()
            self.expect("(")
            over = self.term()
            self.expect(",")
            lhs = self.term()
            self.expect(",")
            rhs = self.term()
            self.expect(")")
            return SurfaceTerm(
                "id", children=(((), over), ((), lhs), ((), rhs)), span=span
            )
        if word == "refl":
            self.next()
            self.expect("(")
            over = self.term()
            self.expect(",")
            point = self.term()
            self.expect(")")
            return SurfaceTerm("refl", children=(((), over), ((), point)), span=span)
        if word == "idrec":
            self.next()
            over, (x, y, u), motive = self._family3()
            self.expect("(")
            lhs = self.term()
            self.expect(",")
            rhs = self.term()
            self.expect(",")
            pth = self.term()
            self.expect(",")
            bx = self.name()
            self.expect(".")
            base = self.term()
            self.expect(")")
            return SurfaceTerm(
                "idrec",
                children=(
                    ((), over), ((x, y, u), motive), ((), lhs), ((), rhs),
                    ((), pth), ((bx,), base),
                ),
                span=span,
            )
        if word == "idconv":
            self.next()
            over, (x, y, u), motive = self._family3()
            self.expect("(")
            point = self.term()
            self.expect(",")
            bx = self.name()
            self.expect(".")
            base = self.term()
            self.expect(")")
            return SurfaceTerm(
                "idconv",
                children=(((), over), ((x, y, u), motive), ((), point), ((bx,), base)),
                span=span,
            )
        if word in ("natrec", "natconv_zero", "natconv_succ"):
            self.next()
            self.expect("{")
            nb = self.name()
            self.expect(".")
            motive = self.term()
            self.expect("}")
            self.expect("(")
            z = self.term()
            self.expect(",")
            n1 = self.name()
            n2 = self.name()
            self.expect(".")
            s = self.term()
            children = [((nb,), motive), ((), z), ((n1, n2), s)]
            if word != "natconv_zero":
                self.expect(",")
                children.append(((), self.term()))
            self.expect(")")
            return SurfaceTerm(word, children=tuple(children), span=span)
        self.fail(f"expected a term, found {word!r}")

    def _family1(self):
        """``{A, x.B}``: a type and a one-binder family."""
        self.expect("{")
        dom = self.term()
        self.expect(",")
        binder = self.name()
        self.expect(".")
        cod = self.term()
        self.expect("}")
        return dom, binder, cod

    def _family3(self):
        """``{A, x y u. P}``: a type and a three-binder motive."""
        self.expect("{")
        over = self.term()
        self.expect(",")
        x = self.name()
        y = self.name()
        u = self.name()
        self.expect(".")
        motive = self.term()
        self.expect("}")
        return over, (x, y, u), motive


def reference_print_term(t, scope=(), reserved=()) -> str:
    """Deterministic, re-parseable rendering; fresh binder names avoid the
    scope, the reserved names (signature and definitions), and each other."""
    # the caller's reserved set is only read, never copied
    if not isinstance(reserved, (set, frozenset)):
        reserved = frozenset(reserved)
    used = set(scope)

    def go(t, names: tuple) -> str:
        tag = t[0]
        if tag == VAR:
            i = t[1]
            if i >= len(names):
                raise ValueError(f"unbound index {i} while printing")
            return names[-(i + 1)]
        if tag == CONST:
            return t[1]
        if tag == NAT:
            return "Nat"
        if tag == ZERO:
            return "zero"
        if tag == SUCC:
            return f"succ({go(t[1], names)})"
        if tag == PI:
            x = _fresh(used, reserved)
            used.add(x)
            out = f"Pi({x} : {go(t[1], names)}) {go(t[2], names + (x,))}"
            used.discard(x)
            return out
        if tag == LAM:
            x = _fresh(used, reserved)
            used.add(x)
            out = (
                f"lam({x} : {go(t[1], names)} -> {go(t[2], names + (x,))}) "
                f"{go(t[3], names + (x,))}"
            )
            used.discard(x)
            return out
        if tag == APP or tag == BETA:
            x = _fresh(used, reserved)
            used.add(x)
            fam = f"{{{go(t[1], names)}, {x}.{go(t[2], names + (x,))}}}"
            if tag == APP:
                out = f"app{fam}({go(t[3], names)}, {go(t[4], names)})"
            else:
                out = f"betaconv{fam}({go(t[3], names)}, {x}.{go(t[4], names + (x,))})"
            used.discard(x)
            return out
        if tag == ID:
            return f"Id({go(t[1], names)}, {go(t[2], names)}, {go(t[3], names)})"
        if tag == REFL:
            return f"refl({go(t[1], names)}, {go(t[2], names)})"
        if tag == IDREC or tag == IDCONV:
            x = _fresh(used, reserved)
            used.add(x)
            y = _fresh(used, reserved)
            used.add(y)
            u = _fresh(used, reserved)
            used.add(u)
            motive = go(t[2], names + (x, y, u))
            fam = f"{{{go(t[1], names)}, {x} {y} {u}.{motive}}}"
            if tag == IDREC:
                base = go(t[6], names + (x,))
                out = (
                    f"idrec{fam}({go(t[3], names)}, {go(t[4], names)}, "
                    f"{go(t[5], names)}, {x}.{base})"
                )
            else:
                base = go(t[4], names + (x,))
                out = f"idconv{fam}({go(t[3], names)}, {x}.{base})"
            used.difference_update((x, y, u))
            return out
        if tag in (NATREC, NATCONVZERO, NATCONVSUCC):
            n = _fresh(used, reserved)
            used.add(n)
            ih = _fresh(used, reserved)
            used.add(ih)
            motive = go(t[1], names + (n,))
            scase = go(t[3], names + (n, ih))
            head = {NATREC: "natrec", NATCONVZERO: "natconv_zero",
                    NATCONVSUCC: "natconv_succ"}[tag]
            out = f"{head}{{{n}.{motive}}}({go(t[2], names)}, {n} {ih}.{scase}"
            if tag != NATCONVZERO:
                out += f", {go(t[4], names)}"
            out += ")"
            used.difference_update((n, ih))
            return out
        raise ValueError(f"cannot print tag {tag}")

    return go(t, tuple(scope))


def reference_surface(s: SurfaceTerm) -> str:
    if s.kind == "name":
        return s.name
    if s.kind == "nat":
        return "Nat"
    if s.kind == "zero":
        return "zero"
    if s.kind == "succ":
        return f"succ({reference_surface(s.children[0][1])})"
    if s.kind == "pi":
        (_, dom), (binder, cod) = s.children
        return (
            f"Pi({binder[0]} : {reference_surface(dom)}) "
            f"{reference_surface(cod)}"
        )
    if s.kind == "lam":
        (_, dom), (binder, cod), (_, body) = s.children
        return (
            f"lam({binder[0]} : {reference_surface(dom)} -> "
            f"{reference_surface(cod)}) {reference_surface(body)}"
        )
    if s.kind == "app":
        (_, dom), (binder, cod), (_, fun), (_, arg) = s.children
        return (
            f"app{{{reference_surface(dom)}, {binder[0]}.{reference_surface(cod)}}}"
            f"({reference_surface(fun)}, {reference_surface(arg)})"
        )
    if s.kind == "betaconv":
        (_, dom), (binder, cod), (_, arg), (b2, body) = s.children
        return (
            f"betaconv{{{reference_surface(dom)}, {binder[0]}.{reference_surface(cod)}}}"
            f"({reference_surface(arg)}, {b2[0]}.{reference_surface(body)})"
        )
    if s.kind == "id":
        parts = ", ".join(reference_surface(c) for _, c in s.children)
        return f"Id({parts})"
    if s.kind == "refl":
        parts = ", ".join(reference_surface(c) for _, c in s.children)
        return f"refl({parts})"
    if s.kind == "idrec":
        (_, over), (xyu, motive), (_, lhs), (_, rhs), (_, pth), (bx, base) = s.children
        fam = f"{{{reference_surface(over)}, {' '.join(xyu)}.{reference_surface(motive)}}}"
        return (
            f"idrec{fam}({reference_surface(lhs)}, {reference_surface(rhs)}, "
            f"{reference_surface(pth)}, {bx[0]}.{reference_surface(base)})"
        )
    if s.kind == "idconv":
        (_, over), (xyu, motive), (_, point), (bx, base) = s.children
        fam = f"{{{reference_surface(over)}, {' '.join(xyu)}.{reference_surface(motive)}}}"
        return f"idconv{fam}({reference_surface(point)}, {bx[0]}.{reference_surface(base)})"
    if s.kind in ("natrec", "natconv_zero", "natconv_succ"):
        (nb, motive), (_, z), (nm, scase) = s.children[:3]
        out = (
            f"{s.kind}{{{nb[0]}.{reference_surface(motive)}}}"
            f"({reference_surface(z)}, {' '.join(nm)}.{reference_surface(scase)}"
        )
        if len(s.children) > 3:
            out += f", {reference_surface(s.children[3][1])}"
        return out + ")"
    raise ValueError(f"cannot print surface kind {s.kind}")


# parsing ----------------------------------------------------------------------

def _walk(tree):
    """Every node of a parse result, once each, in a fixed order."""
    todo = [tree]
    while todo:
        x = todo.pop()
        yield x
        if isinstance(x, SurfaceTerm):
            todo.extend(child for _, child in x.children)
        elif dataclasses.is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, dict):
            todo.extend(x[k] for k in sorted(x))
        elif isinstance(x, tuple):
            todo.extend(x)


def _fields(tree):
    """Everything a parse produced, spans included, as a flat list: the
    dataclasses leave spans out of ==, and == recurses."""
    out = []
    for x in _walk(tree):
        if isinstance(x, SurfaceTerm):
            out.append((x.kind, x.name, x.span, tuple(b for b, _ in x.children)))
        elif dataclasses.is_dataclass(x):
            out.append(type(x).__name__)
        elif isinstance(x, dict):
            out.append(tuple(sorted(x)))
        elif isinstance(x, tuple):
            out.append(len(x))
        else:
            out.append(x)
    return out


def _parse_outcome(parser, text):
    try:
        return _fields(parser(_decode(text)).script())
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _assert_parses_alike(text):
    new = _parse_outcome(_Parser, text)
    assert new == _parse_outcome(ReferenceParser, text), text
    if new[0] != "error":
        # both printers of surface terms write the same text
        for s in _walk(_Parser(text).script()):
            if isinstance(s, SurfaceTerm):
                assert _print_surface(s) == reference_surface(s)
    return new[0] != "error"


def _sources():
    """The shipped demos and a small benchmark script, one token list each."""
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demo").glob("*.ott"))]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    texts.append(workloads.script_text(1, items=100)[0])
    return [[tok for tok in _lex(text) if tok[0] != "eof"] for text in texts]


_SOURCES = _sources()
_VOCABULARY = sorted(KEYWORDS) + [
    "|-", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".",
    "x", "y", "A", "a", "idA", "transport", "symmetry", "tele_pi",
]


def _render(tokens):
    """Tokens back to text, one source line per line."""
    lines: dict = {}
    for _, word, line, _ in tokens:
        lines.setdefault(line, []).append(word)
    return "\n".join(" ".join(words) for _, words in sorted(lines.items()))


def _mutate(tokens, at, how, word):
    tokens = list(tokens)
    at %= len(tokens)
    kind, _, line, col = tokens[at]
    if how == "delete":
        del tokens[at]
    elif how == "duplicate":
        tokens.insert(at, tokens[at])
    elif how == "insert":
        tokens.insert(at, ("", word, line, col))
    elif how == "swap" and at + 1 < len(tokens):
        tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    else:
        tokens[at] = (kind, word, line, col)
    return _render(tokens)


@settings(max_examples=300)
@given(
    st.integers(0, len(_SOURCES) - 1), st.integers(0, 10**6),
    st.sampled_from(("delete", "duplicate", "insert", "swap", "replace")),
    st.sampled_from(_VOCABULARY),
)
def test_parser_matches_reference_on_mutated_scripts(source, at, how, word):
    _assert_parses_alike(_mutate(_SOURCES[source], at, how, word))


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_VOCABULARY + ["\n"]), max_size=40))
def test_parser_matches_reference_on_token_soups(words):
    _assert_parses_alike(" ".join(words))


def test_parser_matches_reference_on_sources():
    for tokens in _SOURCES:
        assert _assert_parses_alike(_render(tokens))
    # every token of the demos deleted in turn
    for tokens in _SOURCES[:-1]:
        for at in range(len(tokens)):
            _assert_parses_alike(_mutate(tokens, at, "delete", ""))


# printing ---------------------------------------------------------------------

def _print_outcome(printer, t, scope, reserved):
    try:
        return printer(t, scope, reserved)
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_print_term_matches_reference(seed):
    """Generated terms, printed under their scope or a prefix of it (so
    that some indices are unbound), with names that crowd the fresh-name
    pool, and now and then a node with no notation."""
    rng = random.Random(seed)
    sig = default_signature()
    ctx, term, ty = Generator(sig, rng).random_judgement(max_ctx=4, fuel=8)
    t = rng.choice((term, ty))
    if rng.random() < 0.1:
        path, _ = rng.choice(list(subterm_paths(t)))
        t = replace_at(t, path, (CLO, Var(0), (0, (), 0)))
    pool = ["x", "y", "z", "u", "v", "w", "x1", "p"]
    scope = tuple(rng.choice(pool) for _ in range(len(ctx)))[: rng.randrange(len(ctx) + 1)]
    reserved = {"A", "a"} | set(rng.sample(pool, rng.randrange(len(pool))))
    new = _print_outcome(print_term, t, scope, reserved)
    assert new == _print_outcome(reference_print_term, t, scope, reserved)


def test_print_term_reports_the_error_the_reference_reports():
    """Two unprintable nodes: the error names the one the recursive printer
    met first, which for eliminators is not the leftmost."""
    a = Const("a")
    cases = [
        # idrec visits its motive before the type it ranges over
        ((IDREC, Var(7), Var(9), a, a, a, a), ()),
        # and its base before its other arguments
        ((IDREC, Const("A"), Const("A"), Var(5), a, a, Var(6)), ()),
        ((IDCONV, Const("A"), Const("A"), Var(5), Var(8)), ()),
        ((NATREC, Var(4), Var(6), Var(7), Var(3)), ()),
        ((NATCONVZERO, Const("A"), Var(6), (CLO,)), ()),
        ((NATCONVSUCC, Const("A"), Var(6), Var(9), Var(5)), ()),
        ((APP, Var(1), (CLO,), Var(2), Var(3)), ("x",)),
    ]
    for t, scope in cases:
        expected = _print_outcome(reference_print_term, t, scope, ())
        assert expected[0] == "error"
        assert _print_outcome(print_term, t, scope, ()) == expected, t


def test_negative_index_is_unbound():
    """The intended difference: the reference prints ``Var(-1)`` as the
    outermost name in scope."""
    assert reference_print_term(Var(-1), ("x", "y")) == "x"
    assert _print_outcome(print_term, Var(-1), ("x", "y"), ()) == (
        "error", "unbound index -1 while printing")
