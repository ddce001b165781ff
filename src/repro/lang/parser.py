"""Recursive-descent parser for the Revet language."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import ITERATOR_KINDS, SCALAR_TYPES, VIEW_KINDS
from repro.lang.lexer import Token, tokenize

#: Binary operator precedence levels (higher binds tighter).
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}

#: Deepest nesting of blocks, ``else if`` links, sub-expressions and unary
#: operators the parser accepts.  Text at the limit takes the recursive stages
#: (this parser, the checker, the lowerings) about 730 Python frames at most,
#: inside the interpreter's default limit of 1000, so deeper input is a
#: ``ParseError`` and never a ``RecursionError``.
MAX_NESTING = 120


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> Token:
        # Never past the end: the stream ends with ``eof``, which ``_advance``
        # does not step over.
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def _check(self, kind: str, value=None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value=None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value=None) -> Token:
        if not self._check(kind, value):
            token = self._peek()
            expected = value if value is not None else kind
            raise ParseError(
                f"expected {expected!r}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    def _nest(self) -> None:
        """Enter one nesting level; the caller leaves it with ``depth -= 1``
        (not on an error: a parser that raised is not used again)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error("statement or expression nested too deeply")

    # -- top level ---------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._check("eof"):
            if self._check("keyword", "DRAM"):
                program.drams.append(self._parse_dram_decl())
            elif self._check("keyword") and self._peek().value in SCALAR_TYPES:
                program.functions.append(self._parse_function())
            else:
                raise self._error(
                    f"expected a DRAM declaration or function, found {self._peek().value!r}"
                )
        return program

    def _parse_dram_decl(self) -> ast.DramDecl:
        start = self._expect("keyword", "DRAM")
        self._expect("op", "<")
        element = self._parse_type()
        self._expect("op", ">")
        name = self._expect("ident").value
        decl = ast.DramDecl(element=element, name=name, line=start.line)
        self._expect("op", ";")
        # Allow several declarations on one line: DRAM<int> a; DRAM<int> b;
        return decl

    def _parse_type(self) -> ast.TypeName:
        token = self._expect("keyword")
        if token.value not in SCALAR_TYPES:
            raise ParseError(f"unknown type '{token.value}'", token.line, token.column)
        return ast.TypeName(token.value)

    def _parse_function(self) -> ast.Function:
        return_type = self._parse_type()
        name_tok = self._expect("ident")
        self._expect("op", "(")
        params: List[ast.Param] = []
        while not self._check("op", ")"):
            ptype = self._parse_type()
            pname = self._expect("ident").value
            params.append(ast.Param(type=ptype, name=pname))
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        body = self._parse_block()
        return ast.Function(
            return_type=return_type,
            name=name_tok.value,
            params=params,
            body=body,
            line=name_tok.line,
        )

    # -- statements ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect("op", "{")
        self._nest()
        statements: List[ast.Stmt] = []
        while not self._check("op", "}"):
            if self._check("eof"):
                raise self._error("unterminated block")
            statements.append(self._parse_statement())
        self._expect("op", "}")
        self.depth -= 1
        return ast.Block(line=start.line, statements=statements)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind == "keyword":
            kw = token.value
            if kw in SCALAR_TYPES:
                return self._parse_var_decl()
            if kw == "SRAM":
                return self._parse_sram_decl()
            if kw in VIEW_KINDS:
                return self._parse_view_decl()
            if kw in ITERATOR_KINDS:
                return self._parse_iterator_decl()
            if kw == "if":
                return self._parse_if()
            if kw == "while":
                return self._parse_while()
            if kw == "foreach":
                return self._parse_foreach()
            if kw == "replicate":
                return self._parse_replicate()
            if kw == "pragma":
                return self._parse_pragma()
            if kw == "exit":
                return self._parse_exit()
            if kw == "return":
                return self._parse_return()
        if token.kind == "ident" and token.value == "flush":
            return self._parse_flush()
        return self._parse_expression_statement()

    def _parse_var_decl(self) -> ast.VarDecl:
        type_name = self._parse_type()
        name_tok = self._expect("ident")
        init = None
        if self._accept("op", "="):
            init = self._parse_expression()
        self._expect("op", ";")
        return ast.VarDecl(line=name_tok.line, type=type_name, name=name_tok.value, init=init)

    def _parse_sram_decl(self) -> ast.SramDecl:
        start = self._expect("keyword", "SRAM")
        self._expect("op", "<")
        size = self._expect("int").value
        self._expect("op", ">")
        name = self._expect("ident").value
        self._expect("op", ";")
        return ast.SramDecl(line=start.line, size=size, name=name)

    def _parse_view_decl(self) -> ast.ViewDecl:
        kind_tok = self._advance()
        self._expect("op", "<")
        size = self._expect("int").value
        self._expect("op", ">")
        name = self._expect("ident").value
        self._expect("op", "(")
        dram = self._expect("ident").value
        self._expect("op", ",")
        base = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.ViewDecl(
            line=kind_tok.line, kind=kind_tok.value, size=size, name=name,
            dram=dram, base=base,
        )

    def _parse_iterator_decl(self) -> ast.IteratorDecl:
        kind_tok = self._advance()
        self._expect("op", "<")
        tile = self._expect("int").value
        self._expect("op", ">")
        name = self._expect("ident").value
        self._expect("op", "(")
        dram = self._expect("ident").value
        self._expect("op", ",")
        seek = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.IteratorDecl(
            line=kind_tok.line, kind=kind_tok.value, tile=tile, name=name,
            dram=dram, seek=seek,
        )

    def _parse_if(self) -> ast.IfStmt:
        start = self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        then_block = self._parse_block()
        else_block = None
        if self._accept("keyword", "else"):
            if self._check("keyword", "if"):
                self._nest()
                nested = self._parse_if()
                self.depth -= 1
                else_block = ast.Block(line=nested.line, statements=[nested])
            else:
                else_block = self._parse_block()
        self._accept("op", ";")
        return ast.IfStmt(line=start.line, cond=cond, then_block=then_block,
                          else_block=else_block)

    def _parse_while(self) -> ast.WhileStmt:
        start = self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        body = self._parse_block()
        self._accept("op", ";")
        return ast.WhileStmt(line=start.line, cond=cond, body=body)

    def _parse_foreach(self) -> ast.ForeachStmt:
        start = self._expect("keyword", "foreach")
        self._expect("op", "(")
        count = self._parse_expression()
        step: Optional[ast.Expr] = None
        if self._accept("keyword", "by"):
            step = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", "{")
        index_type = self._parse_type()
        index_name = self._expect("ident").value
        self._expect("op", "=>")
        self._nest()
        statements: List[ast.Stmt] = []
        while not self._check("op", "}"):
            if self._check("eof"):
                raise self._error("unterminated foreach body")
            statements.append(self._parse_statement())
        self._expect("op", "}")
        self.depth -= 1
        self._accept("op", ";")
        body = ast.Block(line=start.line, statements=statements)
        return ast.ForeachStmt(
            line=start.line, count=count, step=step, index_type=index_type,
            index_name=index_name, body=body,
        )

    def _parse_replicate(self) -> ast.ReplicateStmt:
        start = self._expect("keyword", "replicate")
        self._expect("op", "(")
        factor = self._expect("int").value
        self._expect("op", ")")
        body = self._parse_block()
        self._accept("op", ";")
        return ast.ReplicateStmt(line=start.line, factor=factor, body=body)

    def _parse_pragma(self) -> ast.PragmaStmt:
        start = self._expect("keyword", "pragma")
        self._expect("op", "(")
        name = self._expect("ident").value
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.PragmaStmt(line=start.line, name=name)

    def _parse_exit(self) -> ast.ExitStmt:
        start = self._expect("keyword", "exit")
        self._expect("op", "(")
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.ExitStmt(line=start.line)

    def _parse_return(self) -> ast.ReturnStmt:
        start = self._expect("keyword", "return")
        value = None
        if not self._check("op", ";"):
            value = self._parse_expression()
        self._expect("op", ";")
        return ast.ReturnStmt(line=start.line, value=value)

    def _parse_flush(self) -> ast.FlushStmt:
        start = self._expect("ident")  # 'flush'
        self._expect("op", "(")
        iterator = self._expect("ident").value
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.FlushStmt(line=start.line, iterator=iterator)

    def _parse_expression_statement(self) -> ast.Stmt:
        start = self._peek()
        target = self._parse_expression()
        if self._check("op") and self._peek().value in ASSIGN_OPS:
            op = self._advance().value
            value = self._parse_expression()
            self._expect("op", ";")
            return ast.Assign(line=start.line, target=target, value=value, op=op)
        if self._check("op", "++") or self._check("op", "--"):
            delta = 1 if self._advance().value == "++" else -1
            self._expect("op", ";")
            return ast.IncrDecr(line=start.line, target=target, delta=delta)
        self._expect("op", ";")
        return ast.ExprStmt(line=start.line, expr=target)

    # -- expressions -------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        self._nest()
        expr = self._parse_binary(0)
        if self._accept("op", "?"):
            then_value = self._parse_expression()
            self._expect("op", ":")
            else_value = self._parse_expression()
            expr = ast.TernaryExpr(line=expr.line, cond=expr, then_value=then_value,
                                   else_value=else_value)
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind != "op" or token.value not in PRECEDENCE:
                return lhs
            prec = PRECEDENCE[token.value]
            if prec < min_prec:
                return lhs
            op = self._advance().value
            rhs = self._parse_binary(prec + 1)
            lhs = ast.BinaryOp(line=token.line, op=op, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "op" and token.value in ("-", "!", "~", "*"):
            self._advance()
            self._nest()
            operand = self._parse_unary()
            self.depth -= 1
            return ast.UnaryOp(line=token.line, op=token.value, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._check("op", "["):
                if not isinstance(expr, ast.VarRef):
                    raise self._error("indexing is only supported on named buffers")
                self._advance()
                index = self._parse_expression()
                self._expect("op", "]")
                expr = ast.IndexExpr(line=expr.line, base=expr.name, index=index)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return ast.IntLiteral(line=token.line, value=token.value)
        if token.kind == "string":
            self._advance()
            return ast.StringLiteral(line=token.line, value=token.value)
        if token.kind == "keyword" and token.value in ("true", "false"):
            self._advance()
            return ast.BoolLiteral(line=token.line, value=token.value == "true")
        if token.kind == "keyword" and token.value == "fork":
            self._advance()
            self._expect("op", "(")
            arg = self._parse_expression()
            self._expect("op", ")")
            return ast.CallExpr(line=token.line, callee="fork", args=[arg])
        if token.kind == "ident":
            self._advance()
            if self._check("op", "("):
                self._advance()
                args: List[ast.Expr] = []
                while not self._check("op", ")"):
                    args.append(self._parse_expression())
                    if not self._accept("op", ","):
                        break
                self._expect("op", ")")
                return ast.CallExpr(line=token.line, callee=token.value, args=args)
            return ast.VarRef(line=token.line, name=token.value)
        if self._accept("op", "("):
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise self._error(f"unexpected token {token.value!r} in expression")


def parse(source: str) -> ast.Program:
    """Parse Revet source text into an AST."""
    return Parser(tokenize(source)).parse_program()
