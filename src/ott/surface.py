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
Each constructor's notation is written once, in the syntax table
``_SYNTAX``; the parser, name resolution and both printers are driven by it,
each on an explicit stack, so no term is too deep to read or write.

Script definitions are transparent abbreviations: they are checked once and
spliced into later terms during name resolution, before the checker ever
runs, so the kernel only sees core rules and no new equalities appear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .kernel import (
    APP, BETA, BINDERS, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
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


# The syntax table: the one place that knows how each term constructor is
# written.  The parser, name resolution and both printers are driven by it.
#
# A notation is a blank-separated sequence of punctuation, binder names (one
# lower-case letter) and children.  A child is its core slot (a digit)
# followed by the binders that scope over it.  Children appear in core slot
# order, and each child's binders are a prefix of the row's binder names in
# order of first appearance, as many as ``BINDERS`` gives its slot.  A binder
# written twice (betaconv's and idrec's second ``x``, natrec's second ``n``)
# reads a new name in the parser, which scopes over the children after it;
# the core printer writes the one fresh name it chose for that binder.  The
# surface kind of a constructor is its keyword in lower case.
_SYNTAX = (
    ("Pi", PI, "( x : 1 ) 2x"),
    ("lam", LAM, "( x : 1 -> 2x ) 3x"),
    ("app", APP, "{ 1 , x . 2x } ( 3 , 4 )"),
    ("betaconv", BETA, "{ 1 , x . 2x } ( 3 , x . 4x )"),
    ("Id", ID, "( 1 , 2 , 3 )"),
    ("refl", REFL, "( 1 , 2 )"),
    ("idrec", IDREC, "{ 1 , x y u . 2xyu } ( 3 , 4 , 5 , x . 6x )"),
    ("idconv", IDCONV, "{ 1 , x y u . 2xyu } ( 3 , x . 4x )"),
    ("Nat", NAT, ""),
    ("zero", ZERO, ""),
    ("succ", SUCC, "( 1 )"),
    ("natrec", NATREC, "{ n . 1n } ( 2 , n i . 3ni , 4 )"),
    ("natconv_zero", NATCONVZERO, "{ n . 1n } ( 2 , n i . 3ni )"),
    ("natconv_succ", NATCONVSUCC, "{ n . 1n } ( 2 , n i . 3ni , 4 )"),
)

# printed spacing around punctuation; a closing bracket before a child and a
# binder before another binder are followed by a blank
_SPACED = {":": " : ", "->": " -> ", ",": ", "}


class _Row:
    """One constructor of ``_SYNTAX``, compiled for its three readers.

    ``segments`` drives the parser: pairs ``(lead, k)``, where ``lead`` holds
    the punctuation kinds to expect and the binder positions (ints) to read
    before the next child, and ``k`` is that child's binder count, or None
    after the last child.  ``pieces`` drives both printers: triples of
    literal text and what follows it, which is a child ``(slot, k)`` with
    its binder count ``k``, a binder ``(-slot, position)`` whose surface name
    is the one the child at ``slot`` binds, or ``(0, 0)`` at the end.
    ``word`` is the whole text of a constructor with no children, such as
    ``Nat``, and None otherwise.
    """

    __slots__ = ("kind", "tag", "segments", "pieces", "binders", "word")

    def __init__(self, keyword: str, tag: int, notation: str):
        self.kind = keyword.lower()
        self.tag = tag
        scoping = (0,) + BINDERS[tag]
        words = notation.split()
        letters: list = []  # binder names in order of first appearance
        segments, lead = [], []
        pieces, text = [], keyword
        for at, word in enumerate(words):
            after = words[at + 1] if at + 1 < len(words) else ""
            if word[0].isdigit():
                slot, scope = int(word[0]), word[1:]
                if slot != len(segments) + 1 or scope != "".join(letters[: len(scope)]) \
                        or len(scope) != scoping[slot]:
                    raise ValueError(f"bad child {word!r} in notation of {keyword}")
                segments.append((tuple(lead), len(scope)))
                lead = []
                pieces.append((text, slot, len(scope)))
                text = ""
            elif word.isalpha():
                if word not in letters:
                    letters.append(word)
                p = letters.index(word)
                lead.append(p)
                # the name comes from the next child this binder scopes over
                slot = next(int(w[0]) for w in words[at + 1:]
                            if w[0].isdigit() and len(w) > p + 1)
                pieces.append((text, -slot, p))
                text = " " if after.isalpha() else ""
            else:
                lead.append(word)
                text += _SPACED.get(word, word)
                if word in ")}" and after[:1].isdigit():
                    text += " "
        if len(segments) != len(scoping) - 1:
            raise ValueError(f"notation of {keyword} misses a child")
        segments.append((tuple(lead), None))
        pieces.append((text, 0, 0))
        self.segments = tuple(segments)
        self.pieces = tuple(pieces)
        self.binders = len(letters)
        self.word = keyword if not words else None


_BY_KEYWORD = {entry[0]: _Row(*entry) for entry in _SYNTAX}
_BY_KIND = {row.kind: row for row in _BY_KEYWORD.values()}
_BY_TAG = {row.tag: row for row in _BY_KEYWORD.values()}


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
        """One term, read on an explicit stack of open constructors.

        A frame is ``[row, segment index, binder names, children, span,
        binders of the next child]``; an open parenthesis is None.
        """
        tokens = self.tokens
        pos = self.pos
        frames: list = []
        while True:
            kind, word, line, col = tokens[pos]
            if kind == "name":
                pos += 1
                done = SurfaceTerm("name", name=word, span=(line, col))
            elif kind == "(":
                pos += 1
                frames.append(None)
                continue
            else:
                row = _BY_KEYWORD.get(word) if kind == "kw" else None
                if row is None:
                    self.pos = pos
                    self.fail(f"expected a term, found {word!r}")
                pos += 1
                names = [None] * row.binders if row.binders else ()
                frames.append([row, 0, names, [], (line, col), None])
                done = None
            # hand the finished term to the innermost open constructor, and
            # close every constructor it completes
            while frames:
                frame = frames[-1]
                if frame is None:
                    tok = tokens[pos]
                    if tok[0] != ")":
                        self.pos = pos
                        self.fail(f"expected ')', found {tok[1]!r}")
                    pos += 1
                    frames.pop()
                    continue
                if done is not None:
                    frame[3].append((frame[5], done))
                row, at, names = frame[0], frame[1], frame[2]
                lead, k = row.segments[at]
                for step in lead:
                    tok = tokens[pos]
                    if type(step) is str:
                        if tok[0] != step:
                            self.pos = pos
                            self.fail(f"expected {step!r}, found {tok[1]!r}")
                    elif tok[0] != "name":
                        self.pos = pos
                        self.fail(f"expected 'name', found {tok[1]!r}")
                    else:
                        names[step] = tok[1]
                    pos += 1
                if k is not None:
                    frame[1] = at + 1
                    frame[5] = tuple(names[:k])
                    break
                frames.pop()
                done = SurfaceTerm(row.kind, children=tuple(frame[3]), span=frame[4])
            else:
                self.pos = pos
                return done

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

_TAG_OF = {kind: row.tag for kind, row in _BY_KIND.items()}


def to_core(s: SurfaceTerm, scope, sig: Signature, defs=None) -> Term:
    """Resolve names to de Bruijn indices; binders shadow definitions, which
    shadow signature constants.  Definitions splice in their (closed) bodies.
    Children are resolved left to right, so an error names the first unbound
    name in the text."""
    defs = defs or {}
    names = None  # the scope as a cons list, innermost name first
    for name in scope:
        names = (name, names)
    # the node being resolved: its tag and resolved children, its
    # (binders, child) pairs, the next pair, and the scope around it
    done, todo, at = [], (((), s),), 0
    stack = []
    while True:
        if at < len(todo):
            binders, child = todo[at]
            at += 1
            inner = names
            for binder in binders:
                inner = (binder, inner)
            if child.kind != "name":
                stack.append((done, todo, at, names))
                done, todo, at, names = [_TAG_OF[child.kind]], child.children, 0, inner
                continue
            word = child.name
            index = 0
            while inner is not None and inner[0] != word:
                inner = inner[1]
                index += 1
            if inner is not None:
                done.append((VAR, index))
            elif word in defs:
                done.append(defs[word])
            elif word in sig:
                done.append((CONST, word))
            else:
                raise ParseError(f"unbound name {word!r}", *child.span)
        elif stack:
            term = tuple(done)
            done, todo, at, names = stack.pop()
            done.append(term)
        else:
            return done[0]


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
    scope, the reserved names (signature and definitions), and each other.
    Raises ValueError on an unbound index or a tag with no notation."""
    # the caller's reserved set is only read, never copied
    if not isinstance(reserved, (set, frozenset)):
        reserved = frozenset(reserved)
    used = set(scope)
    names = None  # the scope as a cons list, innermost name first
    for name in scope:
        names = (name, names)
    out: list = []
    append = out.append
    # the innermost open node, its remaining pieces, the scopes under 0, 1,
    # ... of its binders and their names; the nodes around it are on the stack
    node = pieces = scopes = fresh = None
    stack = [(None, None, None, None)]
    child, inner = t, names  # the next term to write, and its scope
    while True:
        tag = child[0]
        if tag == VAR:
            hops = child[1]
            while hops > 0 and inner is not None:
                inner = inner[1]
                hops -= 1
            if inner is None or hops < 0:
                raise _print_error(t, names)
            append(inner[0])
        elif tag == CONST:
            append(child[1])
        else:
            row = _BY_TAG.get(tag)
            if row is None:
                raise _print_error(t, names)
            if row.word is not None:
                append(row.word)
            else:
                stack.append((node, pieces, scopes, fresh))
                node, pieces = child, iter(row.pieces)
                if row.binders:
                    fresh, scopes = [], [inner]
                    for _ in range(row.binders):
                        x = _fresh(used, reserved)
                        used.add(x)
                        fresh.append(x)
                        inner = (x, inner)
                        scopes.append(inner)
                else:
                    fresh, scopes = (), (inner,)
        # write up to the next child, closing each node that ends on the way
        while node is not None:
            for text, slot, k in pieces:
                append(text)
                if slot > 0:
                    child, inner = node[slot], scopes[k]
                    break
                if slot:
                    append(fresh[k])
            else:
                if fresh:
                    used.difference_update(fresh)
                node, pieces, scopes, fresh = stack.pop()
                continue
            break
        else:
            return "".join(out)


# Of two unprintable nodes, print_term's error names the first in this order
# of children, where it differs from slot order: a motive before the type it
# ranges over, and a case that binds before the arguments that do not.
_ERROR_ORDER = {
    IDREC: (2, 1, 6, 3, 4, 5), IDCONV: (2, 1, 4, 3),
    NATREC: (1, 3, 2, 4), NATCONVZERO: (1, 3, 2), NATCONVSUCC: (1, 3, 2, 4),
}


def _print_error(t: Term, names) -> ValueError:
    """The error for a term that print_term cannot print in the scope
    ``names``: its first unbound index or tag with no notation."""
    depth = 0
    while names is not None:
        names = names[1]
        depth += 1
    stack = [(t, depth)]
    while stack:
        t, depth = stack.pop()
        tag = t[0]
        if tag == VAR:
            if not 0 <= t[1] < depth:
                return ValueError(f"unbound index {t[1]} while printing")
        elif tag != CONST:
            row = _BY_TAG.get(tag)
            if row is None:
                return ValueError(f"cannot print tag {tag}")
            binders = BINDERS[tag]
            order = _ERROR_ORDER.get(tag, range(1, len(binders) + 1))
            stack.extend((t[k], depth + binders[k - 1]) for k in reversed(order))
    raise AssertionError("print_term reported an error in a printable term")


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
    out: list = []
    append = out.append
    # the children of the innermost open node and its remaining pieces; the
    # nodes around it are on the stack
    children = pieces = None
    stack = [(None, None)]
    child = s  # the next term to write
    while True:
        if child.kind == "name":
            append(child.name)
        else:
            row = _BY_KIND.get(child.kind)
            if row is None:
                raise ValueError(f"cannot print surface kind {child.kind}")
            stack.append((children, pieces))
            children, pieces = child.children, iter(row.pieces)
        while pieces is not None:
            for text, slot, k in pieces:
                append(text)
                if slot > 0:
                    child = children[slot - 1][1]
                    break
                if slot:
                    append(children[-slot - 1][0][k])
            else:
                children, pieces = stack.pop()
                continue
            break
        else:
            return "".join(out)


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
