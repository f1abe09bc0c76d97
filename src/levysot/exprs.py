"""Tiny arithmetic expression grammar used in JSON inputs.

Densities, family coefficients and cost functions arrive as strings.  Only a
small whitelist is evaluated: +, -, *, /, pow, exp, abs, numeric constants and
named variables.  Everything else is rejected at compile time, as is a
variable named twice or named like a function.

A compiled expression evaluates two ways.  Called with keyword arguments, or
through ``positional`` with the variables in order, it broadcasts like numpy
(costs and densities on grids).  ``evaluate_rows``
evaluates expressions on columns of values, one row per entry, with the
arithmetic a call on Python floats would do: powers go through Python's
float power, element by element, because numpy's array power rounds
differently from libm's ``pow`` in the last bit.
"""

from __future__ import annotations

import ast
import math
from typing import Mapping, Sequence

import numpy as np

_ALLOWED_FUNCS = ("exp", "abs", "pow")
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)

# ``a ** b`` is compiled as a call to this name, so each evaluation mode
# can supply its own power
_POW = "__pow"


class ExpressionError(ValueError):
    """Raised when an expression string falls outside the grammar or does not
    evaluate to a finite real number."""


def _check(node: ast.AST, variables: Sequence[str], reads: set) -> None:
    """Reject what falls outside the grammar; add each variable read to ``reads``."""
    if isinstance(node, ast.Expression):
        _check(node.body, variables, reads)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator {ast.dump(node.op)} not allowed")
        _check(node.left, variables, reads)
        _check(node.right, variables, reads)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary operator {ast.dump(node.op)} not allowed")
        _check(node.operand, variables, reads)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ExpressionError("only exp, abs, pow calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        for arg in node.args:
            _check(arg, variables, reads)
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ExpressionError(
                f"unknown variable {node.id!r}; allowed: {sorted(variables)}"
            )
        reads.add(node.id)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {node.value!r} is not numeric")
    else:
        raise ExpressionError(f"node {type(node).__name__} not allowed")


class _PowAsCall(ast.NodeTransformer):
    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name(_POW, ast.Load()), [node.left, node.right], [])
        return node


def _as_lambda(tree: ast.Expression, variables: Sequence[str]) -> ast.Expression:
    """``lambda _0, _1, ...: body``, where _i is the i-th variable; any
    string can name a variable, since the lambda never names it."""
    index = {v: f"_{i}" for i, v in enumerate(variables)}

    class Rename(ast.NodeTransformer):
        def visit_Name(self, node: ast.Name) -> ast.AST:
            return ast.Name(index.get(node.id, node.id), ast.Load())

    args = ast.arguments(posonlyargs=[], args=[ast.arg(a) for a in index.values()],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    body = Rename().visit(tree).body
    return ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))


def _real_pow(a, b):
    """``a ** b``; a fractional power of a negative float, which Python
    makes complex, is an error."""
    out = a ** b
    if isinstance(out, complex):
        raise ArithmeticError("power of a negative number is not real")
    return out


def _python_pow(a, b):
    """Python's float power on each element: libm ``pow``, as for scalars."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return _real_pow(a, b)
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    out = [_real_pow(x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    return np.array(out, dtype=float).reshape(a.shape)


_CALL_ENV = {"exp": np.exp, "abs": np.abs, "pow": _real_pow, _POW: _real_pow}
_ROWS_ENV = {"exp": np.exp, "abs": np.abs, "pow": _python_pow, _POW: _python_pow}
_GLOBALS = {"__builtins__": {}}


class Expression:
    """A compiled expression over named variables.

    ``reads`` holds the variables the source names outside call targets: the
    value can change only with these.
    """

    def __init__(self, source: str, variables: Sequence[str]):
        clash = sorted(set(variables) & set(_CALL_ENV))
        if clash:
            raise ExpressionError(f"variable {clash[0]!r} has a function's name")
        if len(set(variables)) < len(variables):
            raise ExpressionError(f"variable names repeat: {list(variables)}")
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {source!r}: {exc}") from exc
        reads: set = set()
        _check(tree, variables, reads)
        code = compile(_as_lambda(_PowAsCall().visit(tree), variables), "<expr>", "eval")
        self.source = source
        self.variables = tuple(variables)
        self.reads = frozenset(reads)
        # one function of the variables in order per evaluation mode
        self._call, self._rows = (eval(code, {**_GLOBALS, **env}) for env in (_CALL_ENV, _ROWS_ENV))

    def _apply(self, fn, values):
        """``fn`` on the variables' values in order; an arithmetic error names the source."""
        try:
            return fn(*values)
        except (NameError, ArithmeticError) as exc:
            raise ExpressionError(f"expression {self.source!r}: {exc}") from exc

    def __call__(self, **kwargs):
        """Evaluate with numpy broadcasting; a scalar result must be finite."""
        missing = set(self.variables) - set(kwargs)
        if missing:
            raise ExpressionError(f"missing variables {sorted(missing)}")
        return self.positional(*(kwargs[v] for v in self.variables))

    def positional(self, *values):
        """``__call__`` on the variables' values in the order of ``variables``."""
        out = self._apply(self._call, values)
        if isinstance(out, (int, float)) and not math.isfinite(out):
            raise ExpressionError(f"expression {self.source!r} evaluated to {out}")
        return out


def evaluate_rows(
    exprs: Sequence[Expression], columns: Mapping[str, np.ndarray], size: int
) -> np.ndarray:
    """The (len(exprs), size) values of expressions on rows of variables.

    ``columns`` maps each variable to its (size,) float column.  Each row is
    evaluated as a call on Python floats would evaluate it; an integer-valued
    variable, such as a sequence index, is a float here too.  A division by
    zero along the way, or a non-finite result in any row, raises
    ExpressionError with the expression's source.
    """
    out = np.empty((len(exprs), size))
    with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
        for i, e in enumerate(exprs):
            out[i] = e._apply(e._rows, [columns[v] for v in e.variables])
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        e = exprs[i]
        at = ", ".join(f"{k}={float(columns[k][j])!r}" for k in e.variables)
        raise ExpressionError(
            f"expression {e.source!r} evaluated to {out[i, j]}" + (f" at {at}" if at else "")
        )
    return out


def compile_expr(source: str, variables: Sequence[str]) -> Expression:
    """Compile ``source`` into a function of the named ``variables``.

    The returned callable accepts the variables as keyword arguments (scalars
    or numpy arrays) and broadcasts like numpy.
    """
    return Expression(source, variables)
