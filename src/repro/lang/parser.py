"""MinC recursive-descent parser with precedence climbing.

Grammar sketch::

    program     := (global_var | function)*
    global_var  := 'int' ident ('[' int_lit ']')? ('=' const_init)? ';'
    const_init  := ('-')? int_lit | '{' int_lit (',' int_lit)* '}'
    function    := ('int'|'void') ident '(' params? ')' block
    params      := param (',' param)*
    param       := 'int' ident ('[' ']')?
    block       := '{' statement* '}'
    statement   := decl | assign_or_expr ';' | if | while | for
                 | 'return' expr? ';' | 'break' ';' | 'continue' ';'
                 | block
    decl        := 'int' ident ('[' int_lit ']')? ('=' expr)? ';'
    for         := 'for' '(' simple? ';' expr? ';' simple? ')' statement
    simple      := assignment | expression           (no declarations)

Binary operator precedence (low to high)::

    || && | ^ & (== !=) (< <= > >=) (<< >>) (+ -) (* / %)
"""

from __future__ import annotations

from typing import List

from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token

__all__ = ["parse"]

# Precedence table: operator -> binding level (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing --

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def check_symbol(self, spelling: str) -> bool:
        return self.current.is_symbol(spelling)

    def accept_symbol(self, spelling: str) -> bool:
        if self.check_symbol(spelling):
            self.advance()
            return True
        return False

    def expect_symbol(self, spelling: str) -> Token:
        if not self.check_symbol(spelling):
            raise CompileError(
                f"expected {spelling!r}, got {self.current}",
                self.current.line)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise CompileError(
                f"expected {word!r}, got {self.current}", self.current.line)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise CompileError(
                f"expected an identifier, got {self.current}",
                self.current.line)
        return self.advance()

    def expect_int(self) -> Token:
        if self.current.kind != "int_lit":
            raise CompileError(
                f"expected an integer literal, got {self.current}",
                self.current.line)
        return self.advance()

    # -- top level --

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self.current.kind != "eof":
            if not (self.current.is_keyword("int")
                    or self.current.is_keyword("void")):
                raise CompileError(
                    f"expected a declaration, got {self.current}",
                    self.current.line)
            returns_void = self.current.value == "void"
            self.advance()
            name = self.expect_ident()
            if self.check_symbol("("):
                program.functions.append(self._function(name))
            elif returns_void:
                raise CompileError("global variables must be int",
                                   name.line)
            else:
                program.globals.append(self._global_var(name))
        return program

    def _global_var(self, name: Token) -> ast.GlobalVar:
        array_size = None
        initializer = None
        array_init = None
        if self.accept_symbol("["):
            array_size = self.expect_int().value
            self.expect_symbol("]")
            if array_size <= 0:
                raise CompileError(
                    f"array {name.value!r} must have positive size",
                    name.line)
        if self.accept_symbol("="):
            if array_size is None:
                initializer = self._const_int()
            else:
                self.expect_symbol("{")
                array_init = [self._const_int()]
                while self.accept_symbol(","):
                    array_init.append(self._const_int())
                self.expect_symbol("}")
                if len(array_init) > array_size:
                    raise CompileError(
                        f"too many initialisers for {name.value!r}",
                        name.line)
        self.expect_symbol(";")
        return ast.GlobalVar(name.value, array_size, initializer,
                             array_init, name.line)

    def _const_int(self) -> int:
        negative = self.accept_symbol("-")
        value = self.expect_int().value
        return -value if negative else value

    def _function(self, name: Token) -> ast.Function:
        self.expect_symbol("(")
        params: List[ast.Param] = []
        if not self.check_symbol(")"):
            while True:
                if self.current.is_keyword("void") and not params:
                    # int f(void)
                    self.advance()
                    break
                self.expect_keyword("int")
                pname = self.expect_ident()
                is_array = False
                if self.accept_symbol("["):
                    self.expect_symbol("]")
                    is_array = True
                params.append(ast.Param(pname.value, is_array, pname.line))
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        body = self._block()
        return ast.Function(name.value, params, body, name.line)

    # -- statements --

    def _block(self) -> ast.Block:
        start = self.expect_symbol("{")
        statements: List[ast.Stmt] = []
        while not self.check_symbol("}"):
            if self.current.kind == "eof":
                raise CompileError("unterminated block", start.line)
            statements.append(self._statement())
        self.expect_symbol("}")
        return ast.Block(statements, start.line)

    def _statement(self) -> ast.Stmt:
        token = self.current
        if token.is_keyword("int"):
            return self._declaration()
        if token.is_keyword("if"):
            return self._if()
        if token.is_keyword("while"):
            return self._while()
        if token.is_keyword("for"):
            return self._for()
        if token.is_keyword("return"):
            self.advance()
            value = None if self.check_symbol(";") else self._expression()
            self.expect_symbol(";")
            return ast.ReturnStmt(value, token.line)
        if token.is_keyword("break"):
            self.advance()
            self.expect_symbol(";")
            return ast.BreakStmt(token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_symbol(";")
            return ast.ContinueStmt(token.line)
        if token.is_symbol("{"):
            return self._block()
        statement = self._simple_statement()
        self.expect_symbol(";")
        return statement

    def _declaration(self) -> ast.DeclStmt:
        self.expect_keyword("int")
        name = self.expect_ident()
        array_size = None
        initializer = None
        if self.accept_symbol("["):
            array_size = self.expect_int().value
            self.expect_symbol("]")
            if array_size <= 0:
                raise CompileError(
                    f"array {name.value!r} must have positive size",
                    name.line)
        if self.accept_symbol("="):
            if array_size is not None:
                raise CompileError(
                    "local array initialisers are not supported", name.line)
            initializer = self._expression()
        self.expect_symbol(";")
        return ast.DeclStmt(name.value, array_size, initializer, name.line)

    def _simple_statement(self) -> ast.Stmt:
        """Assignment or bare expression (used in for-headers too)."""
        expr = self._expression()
        if self.accept_symbol("="):
            if not isinstance(expr, (ast.VarRef, ast.Index)):
                raise CompileError("target of assignment is not an lvalue",
                                   expr.line)
            value = self._expression()
            return ast.AssignStmt(expr, value, expr.line)
        return ast.ExprStmt(expr, expr.line)

    def _if(self) -> ast.IfStmt:
        token = self.expect_keyword("if")
        self.expect_symbol("(")
        condition = self._expression()
        self.expect_symbol(")")
        then_body = self._statement()
        else_body = None
        if self.current.is_keyword("else"):
            self.advance()
            else_body = self._statement()
        return ast.IfStmt(condition, then_body, else_body, token.line)

    def _while(self) -> ast.WhileStmt:
        token = self.expect_keyword("while")
        self.expect_symbol("(")
        condition = self._expression()
        self.expect_symbol(")")
        body = self._statement()
        return ast.WhileStmt(condition, body, token.line)

    def _for(self) -> ast.ForStmt:
        token = self.expect_keyword("for")
        self.expect_symbol("(")
        init = None if self.check_symbol(";") else self._simple_statement()
        self.expect_symbol(";")
        condition = None if self.check_symbol(";") else self._expression()
        self.expect_symbol(";")
        step = None if self.check_symbol(")") else self._simple_statement()
        self.expect_symbol(")")
        body = self._statement()
        return ast.ForStmt(init, condition, step, body, token.line)

    # -- expressions --

    def _expression(self, min_precedence: int = 1):
        left = self._unary()
        while True:
            token = self.current
            if token.kind != "symbol":
                break
            precedence = _PRECEDENCE.get(token.value, 0)
            if precedence < min_precedence:
                break
            self.advance()
            right = self._expression(precedence + 1)
            left = ast.Binary(token.value, left, right, token.line)
        return left

    def _unary(self):
        token = self.current
        if token.kind == "symbol" and token.value in ("-", "!", "~", "+"):
            self.advance()
            operand = self._unary()
            if token.value == "+":
                return operand
            # Constant-fold literal negation so `-5` is a literal.
            if token.value == "-" and isinstance(operand, ast.IntLit):
                return ast.IntLit(-operand.value, token.line)
            return ast.Unary(token.value, operand, token.line)
        return self._postfix()

    def _postfix(self):
        expr = self._primary()
        while True:
            if self.check_symbol("["):
                bracket = self.advance()
                index = self._expression()
                self.expect_symbol("]")
                expr = ast.Index(expr, index, bracket.line)
            else:
                break
        return expr

    def _primary(self):
        token = self.current
        if token.kind == "int_lit":
            self.advance()
            return ast.IntLit(token.value, token.line)
        if token.kind == "string_lit":
            self.advance()
            return ast.StrLit(token.value, token.line)
        if token.kind == "ident":
            self.advance()
            if self.accept_symbol("("):
                args = []
                if not self.check_symbol(")"):
                    args.append(self._expression())
                    while self.accept_symbol(","):
                        args.append(self._expression())
                self.expect_symbol(")")
                return ast.Call(token.value, args, token.line)
            return ast.VarRef(token.value, token.line)
        if token.is_symbol("("):
            self.advance()
            expr = self._expression()
            self.expect_symbol(")")
            return expr
        raise CompileError(f"expected an expression, got {token}", token.line)


def parse(source: str) -> ast.Program:
    """Parse MinC source into an AST."""
    parser = _Parser(tokenize(source))
    return parser.parse_program()
