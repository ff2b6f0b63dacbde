"""The table-driven surface layer against the recursive code it replaced.

``ReferenceParser.term`` and ``reference_print_term`` are the parser's term
rule and the printer as they were written before the syntax table: one
hand-written branch per constructor, recursing on the Python stack.  The
reference reads the positional scan's tokens and places each error at the
token it fails on; the parser reads bare lexemes and places an error only
once it is raised.  The parser must build the same tuples, or raise the
same ParseError at the same line and column; the printer must write the
same text, or raise the same ValueError.  The one intended difference is a
negative de Bruijn index, which the reference printer writes as a name from
the wrong end of the scope.
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
    _KIND, KEYWORDS, ParseError, _decode, _fresh, _Parser, _scan, _Token, parse, print_term,
)
from ott.terms import Const, Var

from generators import Generator, default_signature, replace_at, subterm_paths

ROOT = Path(__file__).resolve().parents[1]


def _node(keyword, *children):
    """The constructor written as ``keyword``, from its ``(binders, child)``
    pairs in slot order."""
    return (keyword,) + tuple(x for pair in children for x in pair)


class ReferenceParser(_Parser):
    def fail(self, message, at=None):
        tok = self.tokens[self.pos if at is None else at]
        raise ParseError(message, tok.line, tok.col)

    def term(self) -> tuple:
        word = self.peek()
        kind = _KIND.get(word, "name")
        if kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "name":
            self.next()
            return word
        if kind != "kw":
            self.fail(f"expected a term, found {word!r}")
        if word == "Nat":
            self.next()
            return _node("Nat")
        if word == "zero":
            self.next()
            return _node("zero")
        if word == "succ":
            self.next()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return _node("succ", ((), arg))
        if word == "Pi":
            self.next()
            self.expect("(")
            binder = self.name()
            self.expect(":")
            dom = self.term()
            self.expect(")")
            cod = self.term()
            return _node("Pi", ((), dom), ((binder,), cod))
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
            return _node("lam", ((), dom), ((binder,), cod), ((binder,), body))
        if word == "app":
            self.next()
            dom, binder, cod = self._family1()
            self.expect("(")
            fun = self.term()
            self.expect(",")
            arg = self.term()
            self.expect(")")
            return _node("app", ((), dom), ((binder,), cod), ((), fun), ((), arg))
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
            return _node(
                "betaconv", ((), dom), ((binder,), cod), ((), arg), ((b2,), body)
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
            return _node("Id", ((), over), ((), lhs), ((), rhs))
        if word == "refl":
            self.next()
            self.expect("(")
            over = self.term()
            self.expect(",")
            point = self.term()
            self.expect(")")
            return _node("refl", ((), over), ((), point))
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
            return _node(
                "idrec", ((), over), ((x, y, u), motive), ((), lhs), ((), rhs),
                ((), pth), ((bx,), base),
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
            return _node(
                "idconv", ((), over), ((x, y, u), motive), ((), point), ((bx,), base)
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
            return _node(word, *children)
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


# parsing ----------------------------------------------------------------------

def _walk(tree):
    """Every value in a parse result, once each, in a fixed order."""
    todo = [tree]
    while todo:
        x = todo.pop()
        yield x
        if dataclasses.is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, tuple):
            todo.extend(x)


def _fields(tree):
    """Everything a parse produced as a flat list, since == recurses."""
    out = []
    for x in _walk(tree):
        if dataclasses.is_dataclass(x):
            out.append(type(x).__name__)
        elif isinstance(x, tuple):
            out.append(len(x))
        else:
            out.append(x)
    return out


def _reference_parse(text):
    return ReferenceParser([_Token(*tok) for tok in _scan(_decode(text))]).script()


def _parse_outcome(parse, text):
    try:
        return _fields(parse(text))
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _assert_parses_alike(text):
    new = _parse_outcome(parse, text)
    assert new == _parse_outcome(_reference_parse, text), text
    return new[0] != "error"


def _sources():
    """The shipped demos and a small benchmark script, one list of
    ``(kind, text, line, col)`` tokens each."""
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demo").glob("*.ott"))]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    texts.append(workloads.script_text(1, items=100)[0])
    return [[(_KIND.get(word, "name"), word, line, col) for word, line, col in list(_scan(text))[:-1]]
            for text in texts]


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
