"""Nothing but a ``ReproError`` leaves the front end, whatever the text.

Regression cases for three exceptions that used to escape (``ValueError`` from
a digit-less hex prefix and from a non-ASCII digit, ``RecursionError`` from
deep nesting), the lexer's edge cases, and a fuzz over a token alphabet.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.core.memory import MemorySystem
from repro.errors import LexError, ParseError
from repro.lang import parse, tokenize
from repro.lang.lexer import KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS
from repro.lang.parser import MAX_NESTING
from repro.runtime.engine import Engine, Request


def nested_parens(depth):
    return "void main(int a) { int x = " + "(" * depth + "a" + ")" * depth + "; }"


class TestLexerEdges:
    @pytest.mark.parametrize("source, column", [("0x", 1), ("x = 0xZ1;", 5)])
    def test_hex_prefix_without_digits(self, source, column):
        with pytest.raises(LexError, match="malformed hex literal") as error:
            tokenize(source)
        assert (error.value.line, error.value.column) == (1, column)

    @pytest.mark.parametrize("char", ["²", "٣", "é", "\f", "`", "$"])
    def test_the_grammar_is_ascii(self, char):
        with pytest.raises(LexError, match="unexpected character") as error:
            tokenize(f"int x;\n  {char}")
        assert (error.value.line, error.value.column) == (2, 3)
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(f"x{char}")  # not the tail of an identifier either
        # Inside comments and literals anything goes.
        values = [t.value for t in tokenize(f"// {char}\n/* {char} */ '{char}' \"{char}\"")]
        assert values == [ord(char), char, None]

    def test_unterminated_comment_is_not_a_division(self):
        for source in ("/*", "/*/", "a /* b * /", "/* a */ /* b"):
            with pytest.raises(LexError, match="unterminated block comment"):
                tokenize(source)
        assert [t.value for t in tokenize("a /**/ / /* * */ * b")] == [
            "a", "/", "*", "b", None]

    def test_escapes_are_per_literal(self):
        assert [t.value for t in tokenize(r"""'\'' '"' "\"" "'" '\\' "\\" """)][:-1] == [
            ord("'"), ord('"'), '"', "'", ord("\\"), "\\"]
        for source, message in [(r"'\"'", "unknown escape"), (r'"\'"', "unknown escape"),
                                (r"'\q'", "unknown escape"), (r'"\q"', "unknown escape"),
                                ("''", "unterminated character"), ("'", "unterminated"),
                                ('"abc\\', "unterminated string")]:
            with pytest.raises(LexError, match=message):
                tokenize(source)

    def test_positions_after_multi_line_trivia_and_literals(self):
        tokens = tokenize('a /* 1\n2\n3 */ b "x\ny" c\n\n  // d\n e\'\n\'f')
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("b", 3, 6), ("x\ny", 3, 8), ("c", 4, 4), ("e", 7, 2),
            (10, 7, 3), ("f", 8, 2), (None, 8, 3)]
        assert tokenize("")[0] == ("eof", None, 1, 1)
        assert tokenize("a\n  ")[-1] == ("eof", None, 2, 3)

    def test_tokens_are_immutable_and_compare_by_value(self):
        token = tokenize("x")[0]
        assert token == tokenize("x")[0] and token != tokenize(" x")[0]
        with pytest.raises(AttributeError):
            token.line = 2


class TestNestingLimit:
    def test_a_hundred_nested_parentheses_still_compile(self):
        assert compile_source(nested_parens(100)).graph.nodes is not None

    @pytest.mark.parametrize("depth", [200, 400, 5000])
    def test_deeper_is_a_parse_error_not_a_recursion_error(self, depth):
        with pytest.raises(ParseError, match="nested too deeply") as error:
            parse(nested_parens(depth))
        assert error.value.line == 1 and error.value.column > MAX_NESTING

    @pytest.mark.parametrize("opener, closer", [
        ("1*(", ")"), ("- ", ""), ("a ? 1 : ", ""), ("min(1, ", ")"),
        ("b[", "]"), ("1+-(", ")")])
    def test_every_expression_form_is_counted(self, opener, closer):
        def source(depth):
            return ("void main(int a) { SRAM<4> b; int x = " + opener * depth + "a"
                    + closer * depth + "; }")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(source(400))
        # The deepest text the parser accepts gets through every later stage.
        depth = next(d for d in range(MAX_NESTING, 0, -1) if _parses(source(d)))
        assert depth >= MAX_NESTING // 2 - 2
        compile_source(source(depth))

    @pytest.mark.parametrize("opener, body, closer", [
        ("if (a) {", "a = 1;", "}"), ("while (a) {", "a = a - 1;", "}"),
        ("if (a) { a = 1; } else {", "a = 2;", "}"),
        ("foreach (a) { int i =>", "a = 1;", "};"),
        ("if (a) { a = 1; } else ", "if (a) { a = 2; }", "")])
    def test_every_statement_form_is_counted(self, opener, body, closer):
        def source(depth):
            return "void main(int a) { " + opener * depth + body + closer * depth + " }"
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(source(400))
        depth = next(d for d in range(MAX_NESTING, 0, -1) if _parses(source(d)))
        assert depth >= MAX_NESTING - 4
        compile_source(source(depth))


def _parses(source):
    try:
        parse(source)
    except ParseError:
        return False
    return True


@pytest.mark.parametrize("source", [
    "void main() { int x = 0x; }", "void main() { int x = ²; }",
    nested_parens(200), nested_parens(400)])
def test_the_engine_answers_compile_failed(source):
    [response] = Engine().process([Request(source=source, memory=MemorySystem())])
    assert not response.ok
    assert response.error.startswith("compile failed: 1:")


ALPHABET = (sorted(KEYWORDS) + MULTI_CHAR_OPS + sorted(SINGLE_CHAR_OPS)
            + ["x", "_y1", "main", "flush", "0", "42", "007", "0x1F", "0X", "0xg", "1e"]
            + ["'", '"', "\\", "\\n", "'a'", '"s"', "//", "/*", "*/", " ", " ", "\n",
               "\t", "\r\n", "é", "²", "٣", "\f", "`", "#"])
SPELLED = ("ident", "keyword", "op")


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=60).map("".join))
def test_fuzz_only_lex_and_parse_errors_and_true_positions(source):
    try:
        tokens = tokenize(source)
    except LexError:
        tokens = None
    try:
        parse(source)
        assert tokens is not None
    except LexError:
        assert tokens is None
    except ParseError:
        assert tokens is not None
    if tokens is not None:
        lines = source.split("\n")
        for token in tokens:
            if token.kind in SPELLED:
                assert lines[token.line - 1][token.column - 1:].startswith(token.value)
        assert tokens[-1].kind == "eof" and len(lines) >= tokens[-1].line
