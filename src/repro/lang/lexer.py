"""Lexer for the Revet language (paper Section IV, Figure 7 syntax).

The lexical grammar is ASCII and is stated once, as :data:`_TOKEN`: optional
trivia (spaces, tabs, CR, LF, ``// ...`` and ``/* ... */``), then a hex or
decimal literal over ``[0-9]``, an identifier ``[A-Za-z_][A-Za-z0-9_]*``, an
operator (longest first), a character or a string literal.  An integer
literal is a 64-bit word (see :func:`_word`).  Characters outside ASCII are
legal only inside comments and literals; anywhere else (``²``, ``٣``, ``é``)
they are an ``unexpected character``.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError

KEYWORDS = {
    "int",
    "int8",
    "int16",
    "uint",
    "char",
    "bool",
    "void",
    "if",
    "else",
    "while",
    "foreach",
    "replicate",
    "fork",
    "exit",
    "return",
    "by",
    "pragma",
    "DRAM",
    "SRAM",
    "ReadView",
    "WriteView",
    "ModifyView",
    "ReadIt",
    "PeekReadIt",
    "WriteIt",
    "ManualWriteIt",
    "true",
    "false",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_CHAR_OPS = [
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
]

SINGLE_CHAR_OPS = set("+-*/%<>=!&|^~(){}[],;:?.")

#: Escapes of both literal kinds; a literal's own quote is its third.
ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\"}

_MULTI = "|".join(map(re.escape, MULTI_CHAR_OPS))
_SINGLE = re.escape("".join(sorted(SINGLE_CHAR_OPS)))
#: One token with the trivia before it.  Every position matches: the last two
#: alternatives are end of input and "anything else", which is the error case.
#: ``open_comment`` sits before ``op`` so an unterminated ``/*`` (which the
#: trivia prefix cannot consume) is not read as ``/`` ``*``.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*(?:"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<open_comment>/\*)"
    rf"|(?P<op>{_MULTI}|[{_SINGLE}])"
    r"|(?P<char>'(?:[^\\]|\\.)')"
    r'|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    """One lexical token with its source position."""

    kind: str  # 'int', 'string', 'ident', 'keyword', 'op', 'eof'
    value: object
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    """Tokenize Revet source text; the last token is always ``eof``."""
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    # ``line_start`` is the offset of the current line's first character; it
    # moves only when a matched span (trivia or literal) holds a newline.
    pos, line, line_start = 0, 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start, end = match.span(kind)
        if start != pos and "\n" in (trivia := source[pos:start]):
            line += trivia.count("\n")
            line_start = pos + trivia.rindex("\n") + 1
        pos = end
        column = start - line_start + 1
        text = source[start:end]
        if kind == "op":
            append(Token("op", text, line, column))
        elif kind == "word":
            word_kind = "keyword" if text in keywords else "ident"
            append(Token(word_kind, text, line, column))
        elif kind == "int":
            append(Token("int", _word(text, 10, line, column), line, column))
        elif kind == "hex":
            if end - start == 2:
                raise LexError("malformed hex literal", line, column)
            append(Token("int", _word(text, 16, line, column), line, column))
        elif kind == "eof":
            append(Token("eof", None, line, column))
            break
        elif kind == "char" or kind == "string":
            body = _ESCAPE.sub(lambda m: _unescape(m, text, line, column), text[1:-1])
            if kind == "char":
                append(Token("int", ord(body), line, column))
            else:
                append(Token("string", body, line, column))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, column)
        elif text == '"':
            raise LexError("unterminated string literal", line, column)
        elif text == "'":
            raise LexError("unterminated character literal", line, column)
        else:
            raise LexError(f"unexpected character {text!r}", line, column)
    return tokens


def _word(text: str, base: int, line: int, column: int) -> int:
    """An integer literal's 64-bit word: a value in ``[2**63, 2**64)`` is its
    two's complement (``0xffffffffffffffff`` is -1); a larger one is an error."""
    digits = text[2:] if base == 16 else text
    # Twenty digits hold any 64-bit value; ``int`` refuses a very long string.
    value = int(digits, base) if len(digits.lstrip("0")) <= 20 else 1 << 64
    if value >> 64:
        raise LexError(f"integer literal {text} does not fit in 64 bits", line, column)
    return value - (value >> 63 << 64)


def _unescape(match: "re.Match[str]", literal: str, line: int, column: int) -> str:
    """The character one escape inside ``literal`` stands for."""
    char = match.group(1)
    if char == literal[0]:
        return char
    if char not in ESCAPES:
        raise LexError(f"unknown escape \\{char}", line, column)
    return ESCAPES[char]
