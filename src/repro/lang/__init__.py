"""The Revet language front end: lexer, parser, AST, semantic analysis."""

from repro.lang.ast_nodes import Program
from repro.lang.lexer import Token, tokenize
from repro.lang.parser import Parser, parse
from repro.lang.semantics import AnalysisResult, SemanticChecker, check

__all__ = [
    "Program",
    "Token",
    "tokenize",
    "Parser",
    "parse",
    "AnalysisResult",
    "SemanticChecker",
    "check",
]
