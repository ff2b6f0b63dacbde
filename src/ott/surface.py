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

A token is its lexeme, a plain string, and the lexer keeps no positions.
A surface term holds no positions either.  A name is its lexeme, such as
``"x"``.  A constructor is an exact tuple of its keyword followed by its
children in core slot order, each written as the tuple of binder names
that scope over it and then the child itself: ``lam(x : A -> A) x`` is
``("lam", (), "A", ("x",), "A", ("x",), "x")``, and ``Nat`` is
``("Nat",)``.  A parsed tree holds nothing but tuples and strings, so the
cyclic garbage collector can untrack it instead of rescanning it while a
script is checked.

Positions are found only when an error is reported.  The parser raises a
syntax error at a token's index, and ``parse`` then runs the positional
scan ``_scan`` from that token to place it: a token's line and column
follow from its offset in the text.  ``_lex`` raises a lexical error at the
first bad lexeme, placed the same way, so the parser never sees a text with
one.  ``to_core`` on a parsed tree reports an unbound name with line and
col 0; ``located_item`` reads one item again on tokens that carry their
line and column, and ``to_core`` on its terms places the name.

Script definitions are transparent abbreviations: they are checked once and
spliced into later terms during name resolution, before the checker ever
runs, so the kernel only sees core rules and no new equalities appear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Union

from .kernel import (
    APP, BETA, BINDERS, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO,
)
from .terms import Signature, Term

__all__ = [
    "ParseError", "Script",
    "Postulate", "Definition", "CheckItem", "InferItem", "ElabItem",
    "is_pair", "located_item", "parse", "parse_term", "to_core", "print_term",
]


class ParseError(Exception):
    """A syntax, lexical or name error at ``line`` and ``col``, which are 0
    where the error is not placed (see ``to_core``)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {
    "Pi", "lam", "app", "Id", "refl", "idrec", "betaconv", "idconv",
    "Nat", "zero", "succ", "natrec", "natconv_zero", "natconv_succ",
    "postulate", "def", "check", "infer", "elab", "Type", "Ctxt",
}

# A token is its lexeme, a plain string.  Its kind is ``_KIND.get(lexeme,
# "name")``: punctuation is its own kind, a keyword is "kw", the empty string
# that ends every token list is "eof", and every other word is a name.  The
# keys of ``_KIND`` are the canonical objects that ``_lex`` maps each
# keyword and each punctuation mark to.
_KIND = {p: p for p in ("|-", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".")}
_KIND.update((word, "kw") for word in KEYWORDS)
_KIND[""] = "eof"
_CANONICAL = {word: word for word in _KIND}

# One lexeme after any blanks and comments: punctuation, an ASCII word, a
# word starting outside ASCII, any other character (an error), or the end
# of the text, which reads as "".  A name starts with a character for which
# str.isalpha holds, or "_", and goes on with \w (str.isalnum or "_") or
# "'".  \w minus \d also admits non-letters such as "½" and "²", so
# ``_is_name`` tests the first character of a word that is not a keyword.
_LEXEME = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(\|-|->|:=|[(){}\[\],;:.]|[A-Za-z_][\w']*|[^\W\d][\w']*|.|\Z)",
    re.DOTALL,
)


def _lex(text: str) -> list:
    """The lexemes of ``text`` followed by "", with no positions: one
    ``findall``, every keyword and punctuation mark mapped to its canonical
    object and every name to one object per distinct name.  A lexical error
    is raised at the first bad lexeme, which ``_scan`` places."""
    words = _LEXEME.findall(text)
    if len(words) > 1 and words[-2] == "":
        words.pop()  # trailing blanks end in "" and leave one more empty match
    distinct = set(words)
    bad = [word for word in distinct.difference(_KIND) if not _is_name(word)]
    if bad:
        next(_scan(text, min(map(words.index, bad))))  # raises at that lexeme
    canonical = dict(zip(distinct, distinct))
    canonical.update(_CANONICAL)
    return list(map(canonical.__getitem__, words))


def _is_name(word: str) -> bool:
    """Whether a word that is not a keyword starts a name, not an error."""
    return word[0].isalpha() or word[0] == "_"


class _Token(str):
    """A lexeme with its line and column, made only to place an unbound
    name (see ``located_item``)."""

    def __new__(cls, text: str, line: int, col: int):
        tok = str.__new__(cls, text)
        tok.line, tok.col = line, col
        return tok


def _scan(text: str, at: int = 0):
    """The positional scan: each token of ``_lex`` from token ``at`` on as
    ``(lexeme, line, col)``, the end of the text "" last, or a ParseError at
    the first lexical error from there.  Run only when an error is reported,
    to place it.  The tokens before ``at`` are skipped over ``_LEXEME``
    matches, which ``islice`` consumes without running Python code for each,
    and are not checked."""
    matches = _LEXEME.finditer(text)
    end = next(islice(matches, at - 1, None)).end() if at else 0
    line = text.count("\n", 0, end) + 1
    last = text.rfind("\n", 0, end)  # the newline that starts the line, or -1
    for m in matches:
        where = m.start(1)
        breaks = text.count("\n", end, where)
        if breaks:
            line += breaks
            last = text.rfind("\n", end, where)
        word = m.group(1)
        if not word:
            # a comment does not advance the column, which shows only when
            # it ends the text: the end sits at its "--"
            comment = text.find("--", max(end, last + 1), where)
            yield "", line, (where if comment < 0 else comment) - last
            return
        if word not in _KIND and not _is_name(word):
            raise ParseError(f"unexpected character {word[0]!r}", line, where - last)
        yield word, line, where - last
        end = m.end()


# Script items.  Their terms are surface terms, laid out as the module
# docstring says.

@dataclass(frozen=True)
class Postulate:
    name: str
    ty: Optional[tuple]  # None declares an atomic type


@dataclass(frozen=True)
class Definition:
    name: str
    ty: tuple
    body: tuple


@dataclass(frozen=True)
class CheckItem:
    bindings: tuple  # of (name, term)
    form: str  # "term", "type", or "ctxt"
    term: Optional[tuple] = None
    ty: Optional[tuple] = None


@dataclass(frozen=True)
class InferItem:
    bindings: tuple
    term: tuple


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


def is_pair(arg: tuple) -> bool:
    """Whether an ``ElabItem`` argument is one ``(binders, term)`` pair, not
    a tuple of them: only a pair ends in a term, whose first item is a
    string (its keyword, or the first character of a name)."""
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
    ``leaf`` is the whole surface term of a constructor with no children,
    such as ``("Nat",)``, and None otherwise.
    """

    __slots__ = ("keyword", "tag", "segments", "pieces", "binders", "leaf")

    def __init__(self, keyword: str, tag: int, notation: str):
        self.keyword = keyword
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
        self.leaf = (keyword,) if not words else None


_BY_KEYWORD = {entry[0]: _Row(*entry) for entry in _SYNTAX}
_BY_TAG = {row.tag: row for row in _BY_KEYWORD.values()}


class _Unplaced(Exception):
    """A syntax error at token ``at``: the parser reads no positions, so
    ``_read`` finds the token's line and column once the error is raised."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.message = message
        self.at = at


class _Parser:
    """The parser, on a token list that ends in "": ``_lex``'s lexemes, or
    one item's ``_Token`` objects when it is read again to place an unbound
    name.  It compares lexemes, so it reads both alike."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, at: Optional[int] = None):
        raise _Unplaced(message, self.pos if at is None else at)

    def expect(self, kind: str) -> str:
        tok = self.tokens[self.pos]
        if _KIND.get(tok, "name") != kind:
            self.fail(f"expected {kind!r}, found {tok!r}")
        self.pos += 1
        return tok

    def name(self) -> str:
        return self.expect("name")

    # terms ---------------------------------------------------------------

    def term(self):
        """One term, read on an explicit stack of open constructors.

        A name is its lexeme.  A constructor is a tuple of its keyword and
        then its children in core slot order, each as the tuple of binder
        names over it and the child: ``lam(x : A -> A) x`` reads as
        ``("lam", (), "A", ("x",), "A", ("x",), "x")``.  A constructor with
        no children is its row's ``leaf``, such as ``("Nat",)``.

        A frame is ``[row, segment index, binder names, the term so far
        as a list, binders of the next child]``; an open parenthesis is None.
        """
        tokens = self.tokens
        rows = _BY_KEYWORD
        kinds = _KIND
        pos = self.pos
        frames: list = []
        while True:
            tok = tokens[pos]
            row = rows.get(tok)
            if row is not None:
                pos += 1
                done = row.leaf
                if done is None:
                    names = [None] * row.binders if row.binders else ()
                    frames.append([row, 0, names, [row.keyword], None])
            elif tok not in kinds:
                pos += 1
                done = tok
            elif tok == "(":
                pos += 1
                frames.append(None)
                continue
            else:
                self.fail(f"expected a term, found {tok!r}", pos)
            # hand the finished term to the innermost open constructor, and
            # close every constructor it completes
            while frames:
                frame = frames[-1]
                if frame is None:
                    tok = tokens[pos]
                    if tok != ")":
                        self.fail(f"expected ')', found {tok!r}", pos)
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
                        if tok != step:
                            self.fail(f"expected {step!r}, found {tok!r}", pos)
                    elif tok in kinds:
                        self.fail(f"expected 'name', found {tok!r}", pos)
                    else:
                        names[step] = tok
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

    def whole_term(self):
        """A term that is the whole text."""
        out = self.term()
        self.expect("eof")
        return out

    # scripts --------------------------------------------------------------

    def bindings(self):
        """``[x : A, y : B]`` with distinct names."""
        self.expect("[")
        out = []
        seen = set()
        if self.peek() != "]":
            while True:
                at = self.pos
                name = self.name()
                if name in seen:
                    self.fail(f"duplicate binder {name!r} in context", at)
                seen.add(name)
                self.expect(":")
                out.append((name, self.term()))
                if self.peek() != ",":
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
        word = self.next()
        if word == "postulate":
            name = self.name()
            self.expect(":")
            if self.peek() == "Type":
                self.next()
                return Postulate(name, None)
            return Postulate(name, self.term())
        if word == "def":
            name = self.name()
            self.expect(":")
            ty = self.term()
            self.expect(":=")
            return Definition(name, ty, self.term())
        if word == "check":
            binds = self.bindings()
            if self.peek() == "Ctxt":
                self.next()
                return CheckItem(binds, "ctxt")
            self.expect("|-")
            term = self.term()
            if self.peek() == "Type":
                self.next()
                return CheckItem(binds, "type", ty=term)
            self.expect(":")
            return CheckItem(binds, "term", term=term, ty=self.term())
        if word == "infer":
            binds = self.bindings()
            self.expect("|-")
            return InferItem(binds, self.term())
        if word == "elab":
            binds = self.bindings()
            self.expect("|-")
            op = self.peek()
            if op not in _ELAB_OPS:
                self.fail(f"expected an elaborator name (one of {', '.join(_ELAB_OPS)})")
            self.next()
            return ElabItem(binds, op, self._elab_args(op))
        self.fail(f"expected an item, found {word!r}", self.pos - 1)

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
            args += (self._terms() if self.peek() != ";" else (),)
            self.expect(";")
            names = [self.name()]
            while self.peek() not in _KIND:  # a name
                names.append(self.name())
            self.expect(".")
            args += ((tuple(names), self.term()),)
        self.expect(")")
        return args

    def _terms(self, count: int = 0) -> tuple:
        """Comma-separated terms as ``((), term)`` pairs: exactly ``count``
        of them, or as many as there are when ``count`` is 0."""
        out = [((), self.term())]
        while len(out) != count and (count or self.peek() == ","):
            self.expect(",")
            out.append(((), self.term()))
        return tuple(out)

    def script(self) -> Script:
        items = []
        while self.peek() != "":
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


def _read(text: Union[str, bytes], rule):
    """``rule`` of the parser on the lexemes of ``text``.  A syntax error is
    placed after it is raised: the positional scan gives its token's line
    and column."""
    text = _decode(text)
    try:
        return rule(_Parser(_lex(text)))
    except _Unplaced as exc:
        _, line, col = next(_scan(text, exc.at))
        raise ParseError(exc.message, line, col) from None


def parse(text: Union[str, bytes]) -> Script:
    """Parse a script; raises ParseError with the position of the first error."""
    return _read(text, _Parser.script)


def parse_term(text: Union[str, bytes]) -> tuple:
    return _read(text, _Parser.whole_term)


def located_item(text: Union[str, bytes], index: int):
    """Item ``index`` of a script that ``parse`` accepts, read again on
    tokens that carry their line and column, so that ``to_core`` on its
    terms reports an unbound name where it is written."""
    text = _decode(text)
    parser = _Parser(_lex(text))
    for _ in range(index):
        parser.item()
    start = parser.pos
    parser.item()
    tokens = [_Token(*tok) for tok in islice(_scan(text, start), parser.pos - start)]
    return _Parser(tokens + [""]).item()


# name resolution ----------------------------------------------------------

_TAG_OF = {keyword: row.tag for keyword, row in _BY_KEYWORD.items()}


def to_core(s: tuple, scope, sig: Signature, defs=None) -> Term:
    """Resolve names to de Bruijn indices; binders shadow definitions, which
    shadow signature constants.  Definitions splice in their (closed) bodies.
    Children are resolved left to right, so an error names the first unbound
    name in the text.  A name carries no position, so the ParseError has
    line and col 0, unless the term was read by ``located_item``."""
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
            if type(child) is tuple:
                stack.append((done, todo, at, names))
                done, todo, at, names = [_TAG_OF[child[0]]], child, 1, inner
                continue
            word = child
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
                raise ParseError(
                    f"unbound name {word!r}", getattr(word, "line", 0), getattr(word, "col", 0)
                )
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
            if row.leaf is not None:
                append(row.leaf[0])
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
