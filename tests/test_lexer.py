"""The compiled-regex lexer against a character-by-character reference.

``reference_lex`` is the scanner the surface language was first defined by:
one character at a time, whitespace ``" \\t\\r"`` and ``"\\n"``, ``--``
comments that do not advance the column, punctuation tried longest first,
and names that start with ``str.isalpha`` or ``_``.  ``ott.surface._lex``
must return exactly its tokens, or raise the same ParseError.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ott.surface import KEYWORDS, ParseError, Script, _lex, parse

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


@settings(max_examples=400)
@given(_SOURCE)
def test_lex_matches_reference(text):
    assert _outcome(_lex, text) == _outcome(reference_lex, text)


def test_lex_matches_reference_on_fixed_cases():
    cases = [
        "", "   ", "a -- trailing", "a\n-- last line", "a  --", "\n\n  x",
        "½", "x ²", "y Ⅳ", "٣", "α'", "_'x", "|---x", "-->", "a--b",
        "postulate α : Type", "check [] |- x : A\r\n", "a\t\tb", "-", "|",
    ]
    for text in cases:
        assert _outcome(_lex, text) == _outcome(reference_lex, text), text


@given(st.one_of(
    _SOURCE, _SOURCE.map(str.encode), st.text(max_size=40), st.binary(max_size=40)
))
def test_parse_returns_script_or_parse_error(source):
    try:
        result = parse(source)
    except ParseError:
        return
    assert isinstance(result, Script)
