"""Tests for the Revet lexer and parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.parser import parse


class TestLexer:
    def test_keywords_idents_and_ints(self):
        tokens = tokenize("int x = 42;")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert kinds == [
            ("keyword", "int"),
            ("ident", "x"),
            ("op", "="),
            ("int", 42),
            ("op", ";"),
        ]
        assert tokens[-1].kind == "eof"

    def test_hex_and_char_literals(self):
        tokens = tokenize("0xFF 'a' '\\n' '\\0'")
        values = [t.value for t in tokens[:-1]]
        assert values == [255, ord("a"), ord("\n"), 0]

    @pytest.mark.parametrize("text,value", [
        ("9223372036854775807", 2**63 - 1),
        ("9223372036854775808", -(2**63)),
        ("0xffffffffffffffff", -1),
        ("18446744073709551615", -1),
        ("0x8000000000000000", -(2**63)),
        ("000000000000000000000000042", 42),
    ])
    def test_an_integer_literal_is_a_64_bit_word(self, text, value):
        assert tokenize(text)[0].value == value

    @pytest.mark.parametrize("text", [
        "18446744073709551616", "0x10000000000000000", "9" * 5000,
    ], ids=["2**64", "hex-2**64", "5000-digits"])
    def test_an_integer_literal_beyond_64_bits_is_an_error(self, text):
        with pytest.raises(LexError, match="^1:3: integer literal .* does not fit"):
            tokenize(f"  {text};")

    def test_multichar_operators(self):
        tokens = tokenize("a => b == c != d <= e >= f && g || h << i >> j ++ --")
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--"]

    def test_comments_are_skipped(self):
        tokens = tokenize("int x; // trailing\n/* block\ncomment */ int y;")
        idents = [t.value for t in tokens if t.kind == "ident"]
        assert idents == ["x", "y"]

    def test_string_literal(self):
        tokens = tokenize('"hi\\n"')
        assert tokens[0].kind == "string" and tokens[0].value == "hi\n"

    def test_line_and_column_tracking(self):
        tokens = tokenize("int\n  x;")
        x = [t for t in tokens if t.value == "x"][0]
        assert x.line == 2 and x.column == 3

    def test_errors(self):
        with pytest.raises(LexError):
            tokenize("int x = `;")
        with pytest.raises(LexError):
            tokenize("/* unterminated")
        with pytest.raises(LexError):
            tokenize('"unterminated')
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestParserBasics:
    def test_dram_and_function(self):
        prog = parse(
            """
            DRAM<char> input;
            DRAM<int> lengths;
            void main(int count) {
              int x = count + 1;
            }
            """
        )
        assert [d.name for d in prog.drams] == ["input", "lengths"]
        assert prog.drams[0].element.name == "char"
        fn = prog.function("main")
        assert fn.params[0].name == "count"
        assert isinstance(fn.body.statements[0], ast.VarDecl)

    def test_expression_precedence(self):
        prog = parse("void f(int a) { int x = a + 2 * 3 == 7 && 1 < 2; }")
        init = prog.function("f").body.statements[0].init
        # top-level should be '&&'
        assert isinstance(init, ast.BinaryOp) and init.op == "&&"
        left = init.lhs
        assert left.op == "==" and left.lhs.op == "+"
        assert left.lhs.rhs.op == "*"

    def test_if_else_chain_and_while(self):
        prog = parse(
            """
            void f(int a) {
              int x = 0;
              if (a > 0) { x = 1; } else if (a < 0) { x = 2; } else { x = 3; }
              while (x) { x = x - 1; };
            }
            """
        )
        stmts = prog.function("f").body.statements
        assert isinstance(stmts[1], ast.IfStmt)
        assert isinstance(stmts[1].else_block.statements[0], ast.IfStmt)
        assert isinstance(stmts[2], ast.WhileStmt)

    def test_foreach_with_by_and_nested(self):
        prog = parse(
            """
            void f(int count) {
              foreach (count by 1024) { int outer =>
                foreach (1024) { int idx =>
                  int x = outer + idx;
                };
              };
            }
            """
        )
        outer = prog.function("f").body.statements[0]
        assert isinstance(outer, ast.ForeachStmt)
        assert outer.index_name == "outer"
        assert isinstance(outer.step, ast.IntLiteral) and outer.step.value == 1024
        inner = outer.body.statements[0]
        assert isinstance(inner, ast.ForeachStmt) and inner.step is None

    def test_replicate_views_iterators_pragma(self):
        prog = parse(
            """
            DRAM<char> input;
            DRAM<int> offsets;
            void main(int n) {
              foreach (n) { int idx =>
                pragma(eliminate_hierarchy);
                ReadView<1024> in_view(offsets, idx);
                int off = in_view[idx];
                replicate (4) {
                  ReadIt<64> it(input, off);
                  int len = 0;
                  while (*it) { len++; it++; };
                };
              };
            }
            """
        )
        body = prog.function("main").body.statements[0].body
        assert isinstance(body.statements[0], ast.PragmaStmt)
        assert isinstance(body.statements[1], ast.ViewDecl)
        rep = body.statements[3]
        assert isinstance(rep, ast.ReplicateStmt) and rep.factor == 4
        it_decl = rep.body.statements[0]
        assert isinstance(it_decl, ast.IteratorDecl) and it_decl.kind == "ReadIt"
        loop = rep.body.statements[2]
        assert isinstance(loop.cond, ast.UnaryOp) and loop.cond.op == "*"
        assert isinstance(loop.body.statements[0], ast.IncrDecr)

    def test_sram_fork_exit_flush(self):
        prog = parse(
            """
            DRAM<int> data;
            void main(int n) {
              SRAM<1024> loc;
              foreach (n) { int i =>
                int t = fork(loc[i]);
                if (t > 3) { exit(); }
                ManualWriteIt<16> out(data, i);
                *out = t;
                flush(out);
              };
            }
            """
        )
        stmts = prog.function("main").body.statements
        assert isinstance(stmts[0], ast.SramDecl) and stmts[0].size == 1024
        inner = stmts[1].body.statements
        assert isinstance(inner[0].init, ast.CallExpr) and inner[0].init.callee == "fork"
        assert isinstance(inner[1].then_block.statements[0], ast.ExitStmt)
        assert isinstance(inner[3], ast.Assign) and isinstance(inner[3].target, ast.UnaryOp)
        assert isinstance(inner[4], ast.FlushStmt)

    def test_compound_assign_and_ternary(self):
        prog = parse("void f(int a) { int x = 0; x += a; x = a > 0 ? a : 0 - a; }")
        stmts = prog.function("f").body.statements
        assert isinstance(stmts[1], ast.Assign) and stmts[1].op == "+="
        assert isinstance(stmts[2].value, ast.TernaryExpr)

    def test_index_and_calls(self):
        prog = parse("void f(int a) { int x = min(a, 3) + max(a, 4); }")
        init = prog.function("f").body.statements[0].init
        assert init.lhs.callee == "min" and init.rhs.callee == "max"


class TestParserErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void f(int a) { int x = 1 }")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f(int a) { int x = 1;")

    def test_bad_top_level(self):
        with pytest.raises(ParseError):
            parse("int x = 3;")  # no global scalars

    def test_foreach_requires_arrow(self):
        with pytest.raises(ParseError):
            parse("void f(int n) { foreach (n) { int i; }; }")

    def test_index_on_expression_rejected(self):
        with pytest.raises(ParseError):
            parse("void f(int n) { int x = (n + 1)[0]; }")

    def test_error_positions_reported(self):
        with pytest.raises(ParseError) as err:
            parse("void f(int a) {\n  int x = ;\n}")
        assert "2:" in str(err.value)
