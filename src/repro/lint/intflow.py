"""Integer-flow checker for the int backend (QL044).

The integer backend's correctness claim is that, between input
quantization and the final label argmax, floats exist only inside the
audited carrier helper — float GEMMs that are exact by the bound the
lowering plan records — and every op result is integer.  The dtype
tracer checks the results at runtime; this analyzer checks the code at
review time.  Scoped to files named ``int_kernels.py`` or
``int_backend.py`` (the shipped kernels, the plan walk that runs every
model family on them, and fixtures), it flags:

* any mention of a float dtype — every load of ``np.float16/32/64``,
  ``np.double``, ``np.half`` and friends (so ``dt = np.float32`` and a
  default argument ``dt=np.float64`` are caught where the dtype is
  named, not only where it is used), ``.astype`` with a float target,
  array constructors passing a float ``dtype=``;
* float-only numpy routines — ``np.exp``, ``np.log``, ``np.sqrt``,
  ``np.mean``, ``np.true_divide``, ``np.linspace`` and friends, whose
  results are float regardless of input dtype;
* true division — ``/`` and ``/=`` return float even on integers (use
  ``//`` or a shift).

The legitimate float lines — the stochastic-rounding residue, which
certified plans define as a real-valued threshold, the carrier
helper's dtype table, and the input quantizer's cast of the float
pixels — carry an explicit ``# qlint: disable=QL044``.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import (
    Finding,
    filter_suppressed,
    parse_suppressions,
)

#: numpy attributes that construct float dtypes/scalars.
_FLOAT_DTYPES = frozenset({
    "float16", "float32", "float64", "float128",
    "half", "single", "double", "longdouble", "float_",
})

#: numpy routines whose result dtype is float for any integer input.
_FLOAT_ROUTINES = frozenset({
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "sqrt", "cbrt", "sin", "cos", "tan", "tanh", "sigmoid",
    "mean", "average", "std", "var", "median",
    "true_divide", "divide", "reciprocal",
    "linspace", "logspace", "geomspace",
    "softmax", "interp",
})

#: Only files with these basenames are in scope for QL044.
_TARGET_BASENAMES = ("int_kernels.py", "int_backend.py")


def _numpy_aliases(tree: ast.AST) -> set:
    """Module aliases bound to numpy (``import numpy as np`` etc.)."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "numpy":
                    aliases.add(name.asname or "numpy")
    return aliases


class _IntFlowVisitor(ast.NodeVisitor):
    def __init__(self, path: str, aliases: set):
        self.path = path
        self.aliases = aliases
        self.findings: List[Finding] = []
        #: Call nodes already flagged, so a float dtype *argument* of a
        #: flagged call does not produce a second finding on the line.
        self._claimed_lines: set = set()

    def _flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self._claimed_lines:
            return
        self._claimed_lines.add(line)
        self.findings.append(Finding("QL044", self.path, line, message))

    def _is_numpy_attr(self, node: ast.AST, names: frozenset) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in self.aliases
        )

    def _mentions_float_dtype(self, node: ast.AST) -> bool:
        """Does an expression name a float dtype (np.float32/'float32')?"""
        if self._is_numpy_attr(node, _FLOAT_DTYPES):
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in _FLOAT_DTYPES or node.value in (
                "f2", "f4", "f8", "float",
            )
        if isinstance(node, ast.Name):
            return node.id == "float"
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # np.float32 anywhere: bound to a name, a default argument, a
        # dict value — wherever a float dtype enters the module.
        if self._is_numpy_attr(node, _FLOAT_DTYPES):
            self._flag(node, (
                f"float dtype np.{node.attr} in the integer backend"
            ))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self._flag(node, (
                "true division '/' (float result) in the integer backend"
            ))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self._flag(node, (
                "true division '/=' (float result) in the integer backend"
            ))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # np.exp(...), np.mean(...) — float-only routines.
        if self._is_numpy_attr(func, _FLOAT_ROUTINES):
            self._flag(node, (
                f"float-only numpy routine np.{func.attr} in the "
                f"integer backend"
            ))
        # codes.astype(np.float64) / codes.astype("float32").
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and self._mentions_float_dtype(node.args[0])
        ):
            self._flag(node, (
                "astype to a float dtype in the integer backend"
            ))
        else:
            # np.zeros(..., dtype=np.float32) and friends.
            for keyword in node.keywords:
                if keyword.arg == "dtype" and self._mentions_float_dtype(
                    keyword.value
                ):
                    self._flag(node, (
                        "array constructed with a float dtype in the "
                        "integer backend"
                    ))
                    break
        self.generic_visit(node)


def check_source(source: str, path: str) -> List[Finding]:
    """QL044 findings for one int-backend file's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding(
            "QL044", path, error.lineno or 0, f"cannot parse file: {error}"
        )]
    visitor = _IntFlowVisitor(path, _numpy_aliases(tree))
    visitor.visit(tree)
    return filter_suppressed(visitor.findings, parse_suppressions(source))


def check_file(path: str) -> List[Finding]:
    if not path.replace("\\", "/").split("/")[-1].endswith(
        _TARGET_BASENAMES
    ):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return check_source(handle.read(), path)
