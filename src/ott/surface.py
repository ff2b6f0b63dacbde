"""Surface syntax: named variables, scripts, parsing and printing.

The concrete grammar (docs/grammar.ebnf) is keyword-first so parsing is
deterministic with one token of lookahead, and every annotation of the core
rules is syntactically present: an application spells out both the domain and
the codomain family, an eliminator its motive, and so on.

Core terms are nameless; this module is the only place names exist.  Parsing
resolves names innermost-first (binders, then script definitions, then the
signature), so alpha-equivalent inputs produce identical core terms.
Printing generates fresh binder names deterministically, avoiding everything
visible, so ``parse . print`` is the identity on well-scoped core terms.

Script definitions are transparent abbreviations: they are checked once and
spliced into later terms during name resolution, before the checker ever
runs, so the kernel only sees core rules and no new equalities appear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .kernel import (
    APP, BETA, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)
from .terms import Signature, Term

__all__ = [
    "ParseError", "SurfaceTerm", "Script",
    "Postulate", "Definition", "CheckItem", "InferItem", "ElabItem",
    "parse", "parse_term", "to_core", "print_term", "print_script",
]


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "Pi", "lam", "app", "Id", "refl", "idrec", "betaconv", "idconv",
    "Nat", "zero", "succ", "natrec", "natconv_zero", "natconv_succ",
    "postulate", "def", "check", "infer", "elab", "Type", "Ctxt",
}

# Token kinds: punctuation is its own kind, keywords are "kw", every other
# word is "name".  A token is the tuple (kind, text, line, col).
_KIND = {p: p for p in ("|-", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".")}
_KIND.update((word, "kw") for word in KEYWORDS)

# One alternative per lexeme, after any blanks on the same line.  A name
# starts with a character for which str.isalpha holds, or "_", and goes on
# with \w (str.isalnum or "_") or "'".  \w minus \d also admits non-letters
# such as "½" and "²", so a word starting outside ASCII takes group 4 and is
# tested with str.isalpha.  "\Z" ends the text after trailing blanks in one
# match instead of one failed attempt per blank.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(\|-|->|:=|[(){}\[\],;:.]|[A-Za-z_][\w']*)"  # 1: punctuation or ASCII word
    r"|(\n[ \t\r\n]*)"  # 2: line breaks
    r"|(--[^\n]*)"  # 3: comment
    r"|([^\W\d][\w']*)"  # 4: word starting outside ASCII
    r"|(.)"  # 5: anything else is an error
    r"|\Z)",
    re.DOTALL,
)


def _lex(text: str) -> list:
    tokens = []
    append = tokens.append
    kinds = _KIND
    line, line_start = 1, 0
    eof = len(text)
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            word = m.group(1)
            append((kinds.get(word, "name"), word, line, m.start(1) - line_start + 1))
        elif group == 2:
            breaks = m.group(2)
            line += breaks.count("\n")
            line_start = m.start(2) + breaks.rindex("\n") + 1
        elif group == 3:
            # a comment does not advance the column, which shows only when
            # it runs to the end of the text: eof sits where it started
            if m.end() == len(text):
                eof = m.start(3)
        elif group == 4 and m.group(4)[0].isalpha():
            word = m.group(4)
            append((kinds.get(word, "name"), word, line, m.start(4) - line_start + 1))
        elif group is not None:
            start = m.start(group)
            raise ParseError(
                f"unexpected character {text[start]!r}", line, start - line_start + 1
            )
    append(("eof", "", line, eof - line_start + 1))
    return tokens


# Surface terms: one generic node whose children carry their binder names,
# mirroring the core constructors' binder table, plus bare names.

@dataclass(frozen=True)
class SurfaceTerm:
    kind: str  # a core tag name, or "name"
    name: Optional[str] = None
    children: tuple = ()  # of (binder-name tuple, SurfaceTerm)
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Postulate:
    name: str
    ty: Optional[SurfaceTerm]  # None declares an atomic type
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Definition:
    name: str
    ty: SurfaceTerm
    body: SurfaceTerm
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CheckItem:
    bindings: tuple  # of (name, SurfaceTerm)
    form: str  # "term", "type", or "ctxt"
    term: Optional[SurfaceTerm] = None
    ty: Optional[SurfaceTerm] = None
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class InferItem:
    bindings: tuple
    term: SurfaceTerm
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ElabItem:
    bindings: tuple
    op: str
    payload: dict = field(default_factory=dict)
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Script:
    items: tuple


_ELAB_OPS = (
    "transport", "symmetry", "transitivity", "congr_app",
    "tele_pi", "tele_lam", "tele_app", "tele_beta", "tele_idrec", "tele_idconv",
)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def name(self) -> str:
        return self.expect("name")[1]

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok[0] == "kw" and tok[1] == word

    def eat_kw(self, word: str):
        if not self.at_kw(word):
            self.fail(f"expected {word!r}")
        return self.next()

    # terms ---------------------------------------------------------------

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

    # scripts --------------------------------------------------------------

    def bindings(self):
        """``[x : A, y : B]`` with distinct names."""
        self.expect("[")
        out = []
        seen = set()
        if self.peek()[0] != "]":
            while True:
                _, _, line, col = self.peek()
                name = self.name()
                if name in seen:
                    raise ParseError(
                        f"duplicate binder {name!r} in context", line, col
                    )
                seen.add(name)
                self.expect(":")
                out.append((name, self.term()))
                if self.peek()[0] != ",":
                    break
                self.next()
        self.expect("]")
        return tuple(out)

    def item(self):
        _, text, line, col = self.peek()
        span = (line, col)
        if self.at_kw("postulate"):
            self.next()
            name = self.name()
            self.expect(":")
            if self.at_kw("Type"):
                self.next()
                return Postulate(name, None, span)
            return Postulate(name, self.term(), span)
        if self.at_kw("def"):
            self.next()
            name = self.name()
            self.expect(":")
            ty = self.term()
            self.expect(":=")
            return Definition(name, ty, self.term(), span)
        if self.at_kw("check"):
            self.next()
            binds = self.bindings()
            if self.at_kw("Ctxt"):
                self.next()
                return CheckItem(binds, "ctxt", span=span)
            self.expect("|-")
            term = self.term()
            if self.at_kw("Type"):
                self.next()
                return CheckItem(binds, "type", ty=term, span=span)
            self.expect(":")
            return CheckItem(binds, "term", term=term, ty=self.term(), span=span)
        if self.at_kw("infer"):
            self.next()
            binds = self.bindings()
            self.expect("|-")
            return InferItem(binds, self.term(), span)
        if self.at_kw("elab"):
            self.next()
            binds = self.bindings()
            self.expect("|-")
            op_tok = self.peek()
            if op_tok[0] != "name" or op_tok[1] not in _ELAB_OPS:
                self.fail(f"expected an elaborator name (one of {', '.join(_ELAB_OPS)})")
            self.next()
            payload = self._elab_payload(op_tok[1])
            return ElabItem(binds, op_tok[1], payload, span)
        self.fail(f"expected an item, found {text!r}")

    def _elab_payload(self, op: str) -> dict:
        if op == "transport":
            dom, binder, fam = self._family1()
            terms = self._term_args(4)
            return {"over": dom, "binder": binder, "family": fam, "terms": terms}
        if op == "symmetry":
            return {"terms": self._term_args(4)}
        if op == "transitivity":
            return {"terms": self._term_args(6)}
        if op == "congr_app":
            dom, binder, fam = self._family1()
            terms = self._term_args(4)
            return {"over": dom, "binder": binder, "family": fam, "terms": terms}
        if op in ("tele_pi", "tele_lam", "tele_app", "tele_beta"):
            self.expect("{")
            tele = self.bindings()
            self.expect(".")
            body = self.term()
            self.expect("}")
            payload = {"tele": tele, "body": body}
            if op == "tele_pi":
                return payload
            self.expect("(")
            payload["head"] = self.term()
            if op in ("tele_app", "tele_beta") and len(tele) > 0:
                self.expect(";")
                payload["args"] = self._comma_terms()
            else:
                payload["args"] = ()
            self.expect(")")
            return payload
        # tele_idrec / tele_idconv:
        #   {A; x y u. [tele] . P}(a, b, p; q...; x zs. d)
        self.expect("{")
        over = self.term()
        self.expect(";")
        x = self.name()
        y = self.name()
        u = self.name()
        self.expect(".")
        tele = self.bindings()
        self.expect(".")
        motive = self.term()
        self.expect("}")
        self.expect("(")
        if op == "tele_idrec":
            lhs = self.term()
            self.expect(",")
            rhs = self.term()
            self.expect(",")
            pth = self.term()
            ends = (lhs, rhs, pth)
        else:
            ends = (self.term(),)
        self.expect(";")
        args = self._comma_terms() if self.peek()[0] != ";" else ()
        self.expect(";")
        names = [self.name()]
        while self.peek()[0] == "name":
            names.append(self.name())
        self.expect(".")
        base = self.term()
        self.expect(")")
        return {
            "over": over, "xyu": (x, y, u), "tele": tele, "motive": motive,
            "ends": ends, "args": args, "base_binders": tuple(names), "base": base,
        }

    def _term_args(self, count: int):
        self.expect("(")
        out = [self.term()]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.term())
        self.expect(")")
        return tuple(out)

    def _comma_terms(self):
        out = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            out.append(self.term())
        return tuple(out)

    def script(self) -> Script:
        items = []
        while self.peek()[0] != "eof":
            items.append(self.item())
        return Script(tuple(items))


def _decode(text: Union[str, bytes]) -> str:
    """UTF-8 source as text; a bad byte is a ParseError at its position."""
    if not isinstance(text, bytes):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = text[: exc.start].decode("utf-8")
        line = good.count("\n") + 1
        col = len(good) - good.rfind("\n")
        raise ParseError(
            f"invalid UTF-8 byte {text[exc.start]:#04x}", line, col
        ) from None


def parse(text: Union[str, bytes]) -> Script:
    """Parse a script; raises ParseError with the position of the first error."""
    return _Parser(_decode(text)).script()


def parse_term(text: Union[str, bytes]) -> SurfaceTerm:
    p = _Parser(_decode(text))
    out = p.term()
    p.expect("eof")
    return out


# name resolution ----------------------------------------------------------

_TAG_OF = {
    "pi": PI, "lam": LAM, "app": APP, "betaconv": BETA, "id": ID,
    "refl": REFL, "idrec": IDREC, "idconv": IDCONV, "nat": NAT,
    "zero": ZERO, "succ": SUCC, "natrec": NATREC,
    "natconv_zero": NATCONVZERO, "natconv_succ": NATCONVSUCC,
}


def to_core(s: SurfaceTerm, scope, sig: Signature, defs=None) -> Term:
    """Resolve names to de Bruijn indices; binders shadow definitions, which
    shadow signature constants.  Definitions splice in their (closed) bodies."""
    defs = defs or {}

    def go(node: SurfaceTerm, names: tuple) -> Term:
        if node.kind == "name":
            word = node.name
            for i, seen in enumerate(reversed(names)):
                if seen == word:
                    return (VAR, i)
            if word in defs:
                return defs[word]
            if word in sig:
                return (CONST, word)
            raise ParseError(f"unbound name {word!r}", *node.span)
        tag = _TAG_OF[node.kind]
        children = tuple(
            go(child, names + binders) for binders, child in node.children
        )
        return (tag,) + children

    return go(s, tuple(scope))


# printing -----------------------------------------------------------------

_FRESH_POOL = "xyzuvwpqrstkmn"


def _fresh(used, reserved) -> str:
    for c in _FRESH_POOL:
        if c not in used and c not in reserved:
            return c
    i = 1
    while f"x{i}" in used or f"x{i}" in reserved:
        i += 1
    return f"x{i}"


def print_term(t: Term, scope=(), reserved=()) -> str:
    """Deterministic, re-parseable rendering; fresh binder names avoid the
    scope, the reserved names (signature and definitions), and each other."""
    # the caller's reserved set is only read, never copied
    if not isinstance(reserved, (set, frozenset)):
        reserved = frozenset(reserved)
    used = set(scope)

    def go(t: Term, names: tuple) -> str:
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


def print_context(ctx, reserved=()) -> tuple[str, tuple]:
    """Render a core context as bindings; returns the text and chosen names."""
    used = set(reserved)
    names: tuple = ()
    parts = []
    for entry in ctx:
        text = print_term(entry, names, used)
        x = _fresh(names, used)
        names = names + (x,)
        parts.append(f"{x} : {text}")
    return "[" + ", ".join(parts) + "]", names


def print_script(script: Script) -> str:
    """Render a parsed script back to source (used by round-trip tests)."""
    out = []
    for item in script.items:
        out.append(_print_item(item))
    return "\n".join(out) + "\n"


def _print_surface(s: SurfaceTerm) -> str:
    if s.kind == "name":
        return s.name
    if s.kind == "nat":
        return "Nat"
    if s.kind == "zero":
        return "zero"
    if s.kind == "succ":
        return f"succ({_print_surface(s.children[0][1])})"
    if s.kind == "pi":
        (_, dom), (binder, cod) = s.children
        return f"Pi({binder[0]} : {_print_surface(dom)}) {_print_surface(cod)}"
    if s.kind == "lam":
        (_, dom), (binder, cod), (_, body) = s.children
        return (
            f"lam({binder[0]} : {_print_surface(dom)} -> {_print_surface(cod)}) "
            f"{_print_surface(body)}"
        )
    if s.kind == "app":
        (_, dom), (binder, cod), (_, fun), (_, arg) = s.children
        return (
            f"app{{{_print_surface(dom)}, {binder[0]}.{_print_surface(cod)}}}"
            f"({_print_surface(fun)}, {_print_surface(arg)})"
        )
    if s.kind == "betaconv":
        (_, dom), (binder, cod), (_, arg), (b2, body) = s.children
        return (
            f"betaconv{{{_print_surface(dom)}, {binder[0]}.{_print_surface(cod)}}}"
            f"({_print_surface(arg)}, {b2[0]}.{_print_surface(body)})"
        )
    if s.kind == "id":
        parts = ", ".join(_print_surface(c) for _, c in s.children)
        return f"Id({parts})"
    if s.kind == "refl":
        parts = ", ".join(_print_surface(c) for _, c in s.children)
        return f"refl({parts})"
    if s.kind == "idrec":
        (_, over), (xyu, motive), (_, lhs), (_, rhs), (_, pth), (bx, base) = s.children
        fam = f"{{{_print_surface(over)}, {' '.join(xyu)}.{_print_surface(motive)}}}"
        return (
            f"idrec{fam}({_print_surface(lhs)}, {_print_surface(rhs)}, "
            f"{_print_surface(pth)}, {bx[0]}.{_print_surface(base)})"
        )
    if s.kind == "idconv":
        (_, over), (xyu, motive), (_, point), (bx, base) = s.children
        fam = f"{{{_print_surface(over)}, {' '.join(xyu)}.{_print_surface(motive)}}}"
        return f"idconv{fam}({_print_surface(point)}, {bx[0]}.{_print_surface(base)})"
    if s.kind in ("natrec", "natconv_zero", "natconv_succ"):
        (nb, motive), (_, z), (nm, scase) = s.children[:3]
        out = (
            f"{s.kind}{{{nb[0]}.{_print_surface(motive)}}}"
            f"({_print_surface(z)}, {' '.join(nm)}.{_print_surface(scase)}"
        )
        if len(s.children) > 3:
            out += f", {_print_surface(s.children[3][1])}"
        return out + ")"
    raise ValueError(f"cannot print surface kind {s.kind}")


def _print_bindings(bindings) -> str:
    inner = ", ".join(f"{n} : {_print_surface(t)}" for n, t in bindings)
    return f"[{inner}]"


def _print_item(item) -> str:
    if isinstance(item, Postulate):
        if item.ty is None:
            return f"postulate {item.name} : Type"
        return f"postulate {item.name} : {_print_surface(item.ty)}"
    if isinstance(item, Definition):
        return (
            f"def {item.name} : {_print_surface(item.ty)} := "
            f"{_print_surface(item.body)}"
        )
    if isinstance(item, CheckItem):
        ctx = _print_bindings(item.bindings)
        if item.form == "ctxt":
            return f"check {ctx} Ctxt"
        if item.form == "type":
            return f"check {ctx} |- {_print_surface(item.ty)} Type"
        return f"check {ctx} |- {_print_surface(item.term)} : {_print_surface(item.ty)}"
    if isinstance(item, InferItem):
        return f"infer {_print_bindings(item.bindings)} |- {_print_surface(item.term)}"
    if isinstance(item, ElabItem):
        return f"elab {_print_bindings(item.bindings)} |- {_print_elab(item)}"
    raise ValueError(f"cannot print item {item!r}")


def _print_elab(item: ElabItem) -> str:
    p = item.payload
    if item.op in ("transport", "congr_app"):
        fam = f"{{{_print_surface(p['over'])}, {p['binder']}.{_print_surface(p['family'])}}}"
        args = ", ".join(_print_surface(t) for t in p["terms"])
        return f"{item.op}{fam}({args})"
    if item.op in ("symmetry", "transitivity"):
        args = ", ".join(_print_surface(t) for t in p["terms"])
        return f"{item.op}({args})"
    if item.op in ("tele_pi", "tele_lam", "tele_app", "tele_beta"):
        head = f"{{{_print_bindings(p['tele'])} . {_print_surface(p['body'])}}}"
        if item.op == "tele_pi":
            return f"tele_pi{head}"
        args = _print_surface(p["head"])
        if p["args"]:
            args += "; " + ", ".join(_print_surface(t) for t in p["args"])
        return f"{item.op}{head}({args})"
    fam = (
        f"{{{_print_surface(p['over'])}; {' '.join(p['xyu'])}. "
        f"{_print_bindings(p['tele'])} . {_print_surface(p['motive'])}}}"
    )
    ends = ", ".join(_print_surface(t) for t in p["ends"])
    args = ", ".join(_print_surface(t) for t in p["args"])
    binders = " ".join(p["base_binders"])
    return f"{item.op}{fam}({ends}; {args}; {binders}.{_print_surface(p['base'])})"
