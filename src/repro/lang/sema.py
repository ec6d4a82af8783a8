"""MinC semantic analysis.

Resolves every name, checks arities and array/scalar usage, lays out
function frames, and hands the code generator a :class:`Analysis`
object mapping AST nodes to storage.

Symbols
-------
- globals: scalars and arrays in the ``.data`` segment, addressed by
  label;
- params: one word each (arrays are passed as addresses), addressed
  relative to the frame pointer above the frame;
- locals: scalars and arrays inside the frame, addressed at
  non-negative frame-pointer offsets.  Block scoping is honoured; each
  declaration gets its own slot (no slot reuse between sibling scopes
  -- frames in these workloads are small).

MinC builtins: ``print_int(e)``, ``print_char(e)``, ``print_str("...")``
and ``exit(e)``.  String literals are only legal as the argument of
``print_str``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.lang import ast
from repro.lang.errors import CompileError

__all__ = ["Analysis", "FunctionLayout", "Symbol", "analyze", "BUILTINS"]

BUILTINS = {"print_int": 1, "print_char": 1, "print_str": 1, "exit": 1}

_RESERVED = {"__start"} | set(BUILTINS)


@dataclass(frozen=True)
class Symbol:
    """Resolved storage for one name."""

    name: str
    kind: str               # 'global' | 'param' | 'local'
    is_array: bool
    offset: int = 0         # local: fp offset; param: argument index
    size: int = 1           # array element count (1 for scalars)

    @property
    def label(self) -> str:
        """Data-segment label (globals only)."""
        return f"g_{self.name}"


@dataclass
class FunctionLayout:
    """Frame and signature facts for one function."""

    name: str
    params: List[Symbol]
    locals_size: int = 0    # bytes of locals inside the frame

    @property
    def frame_size(self) -> int:
        """Locals plus the saved $ra / $fp pair."""
        return self.locals_size + 8

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class Analysis:
    """Everything the code generator needs beyond the AST itself."""

    globals: Dict[str, Symbol] = field(default_factory=dict)
    functions: Dict[str, FunctionLayout] = field(default_factory=dict)
    # id(VarRef | Index-base VarRef) -> Symbol
    resolutions: Dict[int, Symbol] = field(default_factory=dict)
    # id(DeclStmt) -> Symbol
    declarations: Dict[int, Symbol] = field(default_factory=dict)

    def resolve(self, node) -> Symbol:
        return self.resolutions[id(node)]


class _FunctionChecker:
    def __init__(self, analysis: Analysis, layout: FunctionLayout):
        self.analysis = analysis
        self.layout = layout
        self.scopes: List[Dict[str, Symbol]] = [
            {p.name: p for p in layout.params}]
        self.loop_depth = 0

    # -- scope helpers --

    def lookup(self, name: str, line: int) -> Symbol:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        symbol = self.analysis.globals.get(name)
        if symbol is None:
            raise CompileError(f"undeclared variable {name!r}", line)
        return symbol

    def declare_local(self, decl: ast.DeclStmt) -> Symbol:
        if decl.name in self.scopes[-1]:
            raise CompileError(
                f"duplicate declaration of {decl.name!r}", decl.line)
        size = decl.array_size or 1
        symbol = Symbol(decl.name, "local", decl.array_size is not None,
                        offset=self.layout.locals_size, size=size)
        self.layout.locals_size += 4 * size
        self.scopes[-1][decl.name] = symbol
        self.analysis.declarations[id(decl)] = symbol
        return symbol

    # -- statements --

    def check_block(self, block: ast.Block) -> None:
        self.scopes.append({})
        for statement in block.statements:
            self.check_statement(statement)
        self.scopes.pop()

    def check_statement(self, statement) -> None:
        if isinstance(statement, ast.Block):
            self.check_block(statement)
        elif isinstance(statement, ast.DeclStmt):
            self.declare_local(statement)
            if statement.initializer is not None:
                self.check_value(statement.initializer)
        elif isinstance(statement, ast.AssignStmt):
            self.check_lvalue(statement.target)
            self.check_value(statement.value)
        elif isinstance(statement, ast.ExprStmt):
            self.check_expr(statement.expr, as_value=False)
        elif isinstance(statement, ast.IfStmt):
            self.check_value(statement.condition)
            self.check_statement(statement.then_body)
            if statement.else_body is not None:
                self.check_statement(statement.else_body)
        elif isinstance(statement, ast.WhileStmt):
            self.check_value(statement.condition)
            self.loop_depth += 1
            self.check_statement(statement.body)
            self.loop_depth -= 1
        elif isinstance(statement, ast.ForStmt):
            if statement.init is not None:
                self.check_statement(statement.init)
            if statement.condition is not None:
                self.check_value(statement.condition)
            if statement.step is not None:
                self.check_statement(statement.step)
            self.loop_depth += 1
            self.check_statement(statement.body)
            self.loop_depth -= 1
        elif isinstance(statement, ast.ReturnStmt):
            if statement.value is not None:
                self.check_value(statement.value)
        elif isinstance(statement, ast.BreakStmt):
            if self.loop_depth == 0:
                raise CompileError("break outside a loop", statement.line)
        elif isinstance(statement, ast.ContinueStmt):
            if self.loop_depth == 0:
                raise CompileError("continue outside a loop", statement.line)
        else:  # pragma: no cover - parser produces no other nodes
            raise CompileError(
                f"unknown statement {type(statement).__name__}", 0)

    # -- expressions --

    def check_lvalue(self, node) -> None:
        if isinstance(node, ast.VarRef):
            symbol = self.lookup(node.name, node.line)
            if symbol.is_array:
                raise CompileError(
                    f"cannot assign to array {node.name!r}", node.line)
            self.analysis.resolutions[id(node)] = symbol
        elif isinstance(node, ast.Index):
            self._check_index(node)
        else:  # pragma: no cover - parser enforces lvalue shape
            raise CompileError("not an lvalue", node.line)

    def check_value(self, node) -> None:
        self.check_expr(node, as_value=True)

    def _check_index(self, node: ast.Index) -> None:
        if not isinstance(node.base, ast.VarRef):
            raise CompileError("only named arrays can be indexed",
                               node.line)
        symbol = self.lookup(node.base.name, node.base.line)
        if not symbol.is_array:
            raise CompileError(
                f"{node.base.name!r} is not an array", node.line)
        self.analysis.resolutions[id(node.base)] = symbol
        self.check_value(node.index)

    def check_expr(self, node, as_value: bool) -> None:
        if isinstance(node, ast.IntLit):
            return
        if isinstance(node, ast.StrLit):
            raise CompileError(
                "string literals are only valid in print_str(...)",
                node.line)
        if isinstance(node, ast.VarRef):
            symbol = self.lookup(node.name, node.line)
            if symbol.is_array:
                raise CompileError(
                    f"array {node.name!r} used as a value "
                    "(arrays may only be indexed or passed to functions)",
                    node.line)
            self.analysis.resolutions[id(node)] = symbol
            return
        if isinstance(node, ast.Index):
            self._check_index(node)
            return
        if isinstance(node, ast.Unary):
            self.check_value(node.operand)
            return
        if isinstance(node, ast.Binary):
            self.check_value(node.left)
            self.check_value(node.right)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, as_value)
            return
        raise CompileError(  # pragma: no cover
            f"unknown expression {type(node).__name__}", 0)

    def _check_call(self, node: ast.Call, as_value: bool) -> None:
        if node.name in BUILTINS:
            self._check_builtin(node, as_value)
            return
        layout = self.analysis.functions.get(node.name)
        if layout is None:
            raise CompileError(f"call to undeclared function {node.name!r}",
                               node.line)
        if len(node.args) != layout.arity:
            raise CompileError(
                f"{node.name!r} expects {layout.arity} argument(s), "
                f"got {len(node.args)}", node.line)
        for arg, param in zip(node.args, layout.params):
            if param.is_array:
                if not isinstance(arg, ast.VarRef):
                    raise CompileError(
                        f"argument {param.name!r} of {node.name!r} must be "
                        "an array name", arg.line)
                symbol = self.lookup(arg.name, arg.line)
                if not symbol.is_array:
                    raise CompileError(
                        f"{arg.name!r} is not an array", arg.line)
                self.analysis.resolutions[id(arg)] = symbol
            else:
                self.check_value(arg)

    def _check_builtin(self, node: ast.Call, as_value: bool) -> None:
        if as_value:
            raise CompileError(
                f"builtin {node.name!r} returns no value", node.line)
        if len(node.args) != BUILTINS[node.name]:
            raise CompileError(
                f"{node.name!r} expects {BUILTINS[node.name]} argument(s)",
                node.line)
        argument = node.args[0]
        if node.name == "print_str":
            if not isinstance(argument, ast.StrLit):
                raise CompileError(
                    "print_str takes a string literal", node.line)
        else:
            self.check_value(argument)


def analyze(program: ast.Program) -> Analysis:
    """Run all semantic checks; returns the resolved analysis."""
    analysis = Analysis()

    for global_var in program.globals:
        _check_fresh_name(global_var.name, analysis, global_var.line)
        analysis.globals[global_var.name] = Symbol(
            global_var.name, "global",
            global_var.array_size is not None,
            size=global_var.array_size or 1)

    # Collect signatures first so calls can be forward and recursive.
    for function in program.functions:
        _check_fresh_name(function.name, analysis, function.line)
        params = []
        seen = set()
        for index, param in enumerate(function.params):
            if param.name in seen:
                raise CompileError(
                    f"duplicate parameter {param.name!r}", param.line)
            seen.add(param.name)
            params.append(Symbol(param.name, "param", param.is_array,
                                 offset=index))
        analysis.functions[function.name] = FunctionLayout(
            function.name, params)

    if "main" not in analysis.functions:
        raise CompileError("no main() function defined", 0)
    if analysis.functions["main"].arity != 0:
        main_fn = next(f for f in program.functions if f.name == "main")
        raise CompileError("main() must take no parameters", main_fn.line)

    for function in program.functions:
        checker = _FunctionChecker(analysis,
                                   analysis.functions[function.name])
        checker.check_block(function.body)

    return analysis


def _check_fresh_name(name: str, analysis: Analysis, line: int) -> None:
    if name in _RESERVED:
        raise CompileError(f"{name!r} is a reserved name", line)
    if name in analysis.globals or name in analysis.functions:
        raise CompileError(f"duplicate definition of {name!r}", line)
