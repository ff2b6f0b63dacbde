"""The lexer and the positional scan against a character-by-character reference.

``reference_lex`` is the scanner the surface language was first defined by:
one character at a time, whitespace ``" \\t\\r"`` and ``"\\n"``, ``--``
comments that do not advance the column, punctuation tried longest first,
and names that start with ``str.isalpha`` or ``_``.  The positional scan
``ott.surface._scan`` must return exactly its tokens, with their
lines and columns, or raise the same ParseError.  ``ott.surface._lex``,
which keeps no positions, must return exactly their lexemes, or raise the
same ParseError.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ott.surface import KEYWORDS, ParseError, Script, _KIND, _lex, _scan, parse

_PUNCT = ("|-", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".")


def reference_lex(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append((p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                word = text[i:j]
                kind = "kw" if word in KEYWORDS else "name"
                tokens.append((kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _outcome(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.col)


def positioned_lex(text: str) -> list:
    """The positional scan's tokens as ``(kind, text, line, col)`` tuples."""
    return [(_KIND.get(word, "name"), word, line, col) for word, line, col in _scan(text)]


def lexemes(text: str) -> list:
    """The reference's lexemes, without the end of the text."""
    return [tok[1] for tok in reference_lex(text)[:-1]]


def lexeme_lex(text: str) -> list:
    """``_lex``'s lexemes, checked to end in the end of the text, ""."""
    out = _lex(text)
    assert out[-1] == "" and "" not in out[:-1]
    return out[:-1]


_PIECES = (
    sorted(KEYWORDS) + list(_PUNCT)
    + ["x", "y'", "_", "_0", "a_b", "x1", "αβ", "x²", "x½", "x٣", "Ⅳ"]
    + ["-", "|", "--", "-- note", "--->", "|--", "'", "=", ">"]
    + [" ", "  ", "\t", "\r", "\n", "\r\n", "\n\n"]
    + ["α", "½", "²", "٣", "0", "7", "\xa0", "\f", "?", "é", " "]
)

_SOURCE = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=30
).map("".join)


# token soups that end, now and then, in a comment with no newline after it
_SOUP = st.tuples(
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.sampled_from(("", "", "--", "-- end", "--- x", "\n-- last")),
).map("".join)

_CASES = [
    "", "   ", "a -- trailing", "a\n-- last line", "a  --", "\n\n  x",
    "½", "x ²", "y Ⅳ", "٣", "α'", "_'x", "|---x", "-->", "a--b",
    "postulate α : Type", "check [] |- x : A\r\n", "a\t\tb", "-", "|",
    "x \n \n", "7x", "x 7", "' x", "x\r\n-- end", "a := b -> c |- d", "x½ -",
    "x -- one\n-- two", "a -- c\n\n  --- end",
]


@settings(max_examples=400)
@given(_SOURCE)
def test_lex_matches_reference(text):
    """The positional scan gives the reference's tokens and positions."""
    assert _outcome(positioned_lex, text) == _outcome(reference_lex, text)


def test_lex_matches_reference_on_fixed_cases():
    for text in _CASES:
        assert _outcome(positioned_lex, text) == _outcome(reference_lex, text), text


@settings(max_examples=400)
@given(st.one_of(_SOURCE, _SOUP))
def test_lexemes_match_reference(text):
    """The lexemes are the reference's token texts, or both raise the same
    ParseError, at the same line and column."""
    assert _outcome(lexeme_lex, text) == _outcome(lexemes, text)


def test_lexemes_match_reference_on_fixed_cases():
    for text in _CASES:
        assert _outcome(lexeme_lex, text) == _outcome(lexemes, text), text


@settings(max_examples=200)
@given(st.one_of(_SOURCE, _SOUP))
def test_scan_from_a_token_is_the_rest_of_the_scan(text):
    """Where an error is placed, the positional scan starts at the failing
    token and gives the positions that a scan from the start gives."""
    try:
        tokens = list(_scan(text))
    except ParseError:
        return
    for at in range(len(tokens)):
        assert list(_scan(text, at)) == tokens[at:], at


def test_keywords_and_punctuation_are_canonical_objects():
    """Every keyword and punctuation mark is one object, however often it is
    written, and so is every name."""
    text = " ".join(sorted(_KIND) * 2) + " xy xy ab"
    words = _lex(text)
    assert words[-1] == ""
    by_text = {}
    for word in words:
        assert by_text.setdefault(word, word) is word
    assert all(by_text[word] is word for word in _KIND if word)


@given(st.one_of(
    _SOURCE, _SOURCE.map(str.encode), st.text(max_size=40), st.binary(max_size=40)
))
def test_parse_returns_script_or_parse_error(source):
    try:
        result = parse(source)
    except ParseError:
        return
    assert isinstance(result, Script)
