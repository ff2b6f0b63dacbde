"""Surface syntax: named variables, scripts, parsing and printing.

The concrete grammar (docs/grammar.ebnf) is keyword-first so parsing is
deterministic with one token of lookahead, and every annotation of the core
rules is syntactically present: an application spells out both the domain and
the codomain family, an eliminator its motive, and so on.

Core terms are nameless; this module is the only place names exist.  The
parser scopes every item's terms: each is read with the binder names that
the item writes over it (an ``ElabItem`` lists its elaborator's arguments in
call order, each with its binders), so the runner only adds the item's
context.  Name resolution goes innermost-first (binders, then script
definitions, then the signature), so alpha-equivalent inputs produce
identical core terms.
Printing generates fresh binder names deterministically, avoiding everything
visible, so ``parse . print`` is the identity on well-scoped core terms.
Each constructor's notation is written once, in the syntax table
``_SYNTAX``; the parser, name resolution and the printer are driven by it,
each on an explicit stack, so no term is too deep to read or write.

A surface term is an exact tuple that starts with its head token
``(kind, text, line, col)``.  A name is its token alone, such as
``("name", "x", 1, 5)``.  A constructor is its keyword's token followed by
its children in core slot order, each written as the tuple of binder names
that scope over it and then the child itself: ``lam(x : A -> A) x`` at the
start of a line is ``("kw", "lam", 1, 1, (), A, ("x",), A, ("x",), x)``,
where each ``A`` and ``x`` is that name's token.  A parsed tree holds
nothing but tuples, strings and ints, so the cyclic garbage collector can
untrack it instead of rescanning it while a script is checked.

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
    "ParseError", "Script",
    "Postulate", "Definition", "CheckItem", "InferItem", "ElabItem",
    "is_pair", "parse", "parse_term", "to_core", "print_term",
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


# Script items.  Their terms are surface terms, laid out as the module
# docstring says.

@dataclass(frozen=True)
class Postulate:
    name: str
    ty: Optional[tuple]  # None declares an atomic type
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Definition:
    name: str
    ty: tuple
    body: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class CheckItem:
    bindings: tuple  # of (name, term)
    form: str  # "term", "type", or "ctxt"
    term: Optional[tuple] = None
    ty: Optional[tuple] = None
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class InferItem:
    bindings: tuple
    term: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ElabItem:
    bindings: tuple
    op: str
    # the elaborator's arguments after ``ctx``, in call order: each a
    # (binder-name tuple, term) pair whose binders are the names written in
    # the item that scope over the term, or a tuple of such pairs for a
    # telescope (each entry scoped by the entries before it) or an argument
    # list; ``is_pair`` tells the two apart
    args: tuple = ()
    span: tuple = field(default=(0, 0), compare=False)


def is_pair(arg: tuple) -> bool:
    """Whether an ``ElabItem`` argument is one ``(binders, term)`` pair, not
    a tuple of them: only a pair ends in a term, which starts with a string."""
    return bool(arg) and type(arg[-1][0]) is str


@dataclass(frozen=True)
class Script:
    items: tuple


_ELAB_OPS = (
    "transport", "symmetry", "transitivity", "congr_app",
    "tele_pi", "tele_lam", "tele_app", "tele_beta", "tele_idrec", "tele_idconv",
)


# The syntax table: the one place that knows how each term constructor is
# written.  The parser, name resolution and the printer are driven by it.
#
# A notation is a blank-separated sequence of punctuation, binder names (one
# lower-case letter) and children.  A child is its core slot (a digit)
# followed by the binders that scope over it.  Children appear in core slot
# order, and each child's binders are a prefix of the row's binder names in
# order of first appearance, as many as ``BINDERS`` gives its slot.  A binder
# written twice (betaconv's and idrec's second ``x``, natrec's second ``n``)
# reads a new name in the parser, which scopes over the children after it;
# the printer writes the one fresh name it chose for that binder.
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
    """One constructor of ``_SYNTAX``, compiled for the parser and the printer.

    ``segments`` drives the parser: pairs ``(lead, k)``, where ``lead`` holds
    the punctuation kinds to expect and the binder positions (ints) to read
    before the next child, and ``k`` is that child's binder count, or None
    after the last child.  ``pieces`` drives the printer: triples of
    literal text and what follows it, which is a child ``(slot, k)`` with
    its binder count ``k``, the binder ``(-1, position)``, or ``(0, 0)`` at
    the end.
    ``word`` is the whole text of a constructor with no children, such as
    ``Nat``, and None otherwise.
    """

    __slots__ = ("tag", "segments", "pieces", "binders", "word")

    def __init__(self, keyword: str, tag: int, notation: str):
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
                pieces.append((text, -1, p))
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

    # terms ---------------------------------------------------------------

    def term(self) -> tuple:
        """One term, read on an explicit stack of open constructors.

        A frame is ``[row, segment index, binder names, the term so far
        as a list, binders of the next child]``; an open parenthesis is None.
        """
        tokens = self.tokens
        pos = self.pos
        frames: list = []
        while True:
            tok = tokens[pos]
            kind = tok[0]
            if kind == "name":
                pos += 1
                done = tok
            elif kind == "(":
                pos += 1
                frames.append(None)
                continue
            else:
                row = _BY_KEYWORD.get(tok[1]) if kind == "kw" else None
                if row is None:
                    self.pos = pos
                    self.fail(f"expected a term, found {tok[1]!r}")
                pos += 1
                if row.word is not None:
                    done = tok
                else:
                    names = [None] * row.binders if row.binders else ()
                    frames.append([row, 0, names, list(tok), None])
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
                    frame[3].append(frame[4])
                    frame[3].append(done)
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
                    frame[4] = tuple(names[:k])
                    break
                frames.pop()
                done = tuple(frame[3])
            else:
                self.pos = pos
                return done

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

    def telescope(self, scope: list) -> tuple:
        """Bindings as ``(binders, type)`` pairs, each entry scoped by
        ``scope`` and the entries before it; their names join ``scope``."""
        out = []
        for name, ty in self.bindings():
            out.append((tuple(scope), ty))
            scope.append(name)
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
            return ElabItem(binds, op_tok[1], self._elab_args(op_tok[1]), span)
        self.fail(f"expected an item, found {text!r}")

    def _elab_args(self, op: str) -> tuple:
        """The arguments of ``op`` after ``ctx``, in call order, each term
        paired with the binders written in the item that scope over it."""
        if op in ("symmetry", "transitivity"):
            self.expect("(")
            args = self._terms(4 if op == "symmetry" else 6)
            self.expect(")")
            return args
        self.expect("{")
        if op in ("transport", "congr_app"):
            # {A, x.B}(four terms)
            over = ((), self.term())
            self.expect(",")
            binder = (self.name(),)
            self.expect(".")
            family = (binder, self.term())
            self.expect("}")
            self.expect("(")
            args = (over, family) + self._terms(4)
            self.expect(")")
            return args
        # {[tele] . B}(head; args) or {A; x y u. [tele] . P}(ends; args; x zs. d)
        lead, scope = (), []
        if op in ("tele_idrec", "tele_idconv"):
            lead = (((), self.term()),)
            self.expect(";")
            scope = [self.name(), self.name(), self.name()]
            self.expect(".")
        tele = self.telescope(scope)
        self.expect(".")
        args = lead + (tele, (tuple(scope), self.term()))
        self.expect("}")
        if op == "tele_pi":
            return args
        self.expect("(")
        if op in ("tele_lam", "tele_app", "tele_beta"):
            head = (() if op == "tele_app" else tuple(scope), self.term())
            if op == "tele_lam":
                args += (head,)
            elif tele:
                self.expect(";")
                args += (head, self._terms())
            else:
                args += (head, ())
        else:
            args += self._terms(3 if op == "tele_idrec" else 1)
            self.expect(";")
            args += (self._terms() if self.peek()[0] != ";" else (),)
            self.expect(";")
            names = [self.name()]
            while self.peek()[0] == "name":
                names.append(self.name())
            self.expect(".")
            args += ((tuple(names), self.term()),)
        self.expect(")")
        return args

    def _terms(self, count: int = 0) -> tuple:
        """Comma-separated terms as ``((), term)`` pairs: exactly ``count``
        of them, or as many as there are when ``count`` is 0."""
        out = [((), self.term())]
        while len(out) != count and (count or self.peek()[0] == ","):
            self.expect(",")
            out.append(((), self.term()))
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


def parse_term(text: Union[str, bytes]) -> tuple:
    p = _Parser(_decode(text))
    out = p.term()
    p.expect("eof")
    return out


# name resolution ----------------------------------------------------------

_TAG_OF = {keyword: row.tag for keyword, row in _BY_KEYWORD.items()}


def to_core(s: tuple, scope, sig: Signature, defs=None) -> Term:
    """Resolve names to de Bruijn indices; binders shadow definitions, which
    shadow signature constants.  Definitions splice in their (closed) bodies.
    Children are resolved left to right, so an error names the first unbound
    name in the text."""
    defs = defs or {}
    names = None  # the scope as a cons list, innermost name first
    for name in scope:
        names = (name, names)
    # the node being resolved: its tag and resolved children, the node
    # itself, the index of its next child's binders, and the scope around it
    done, todo, at = [], ((), s), 0
    stack = []
    while True:
        if at < len(todo):
            binders, child = todo[at], todo[at + 1]
            at += 2
            inner = names
            for binder in binders:
                inner = (binder, inner)
            if child[0] != "name":
                stack.append((done, todo, at, names))
                done, todo, at, names = [_TAG_OF[child[1]]], child, 4, inner
                continue
            word = child[1]
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
                raise ParseError(f"unbound name {word!r}", child[2], child[3])
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
