"""Integer-flow checker for the int backend (QL044).

The integer backend's correctness claim is that, between input
quantization and the final label argmax, floats exist only inside the
audited carrier helper — float GEMMs that are exact by the bound the
lowering plan records — and every op result is integer.  The dtype
tracer checks the results at runtime; this analyzer checks the code at
review time.  Scoped to files named ``int_kernels.py`` or
``int_backend.py`` (the shipped kernels, the plan walk that runs every
model family on them, and fixtures) and to the in-repo functions those
files import by name (``from repro.hw.fixed_ref import exp_lut`` checks
the body of ``exp_lut`` and reports at its own lines) and to the in-repo
functions those reach in turn, it flags:

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
helpers' dtype table and squash divisions and square root, the input
quantizer's cast of the float pixels, and the exponential ROM built at
bind time — carry an explicit ``# qlint: disable=QL044``.

An import resolves in-repo when its module file sits under the same
source root as the importing file (the first ancestor directory that is
not a package), or relative to the importing package.  Only functions
are followed, transitively: every in-repo function an imported function
names (a helper in its own module, or one its module imports) is
checked too, each once.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Tuple

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
    def __init__(self, path: str, aliases: set, where: str):
        self.path = path
        self.aliases = aliases
        #: Where the checked code runs, as the messages name it.
        self.where = where
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
                f"float dtype np.{node.attr} in {self.where}"
            ))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self._flag(node, (
                f"true division '/' (float result) in {self.where}"
            ))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self._flag(node, (
                f"true division '/=' (float result) in {self.where}"
            ))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # np.exp(...), np.mean(...) — float-only routines.
        if self._is_numpy_attr(func, _FLOAT_ROUTINES):
            self._flag(node, (
                f"float-only numpy routine np.{func.attr} in {self.where}"
            ))
        # codes.astype(np.float64) / codes.astype("float32").
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and self._mentions_float_dtype(node.args[0])
        ):
            self._flag(node, f"astype to a float dtype in {self.where}")
        else:
            # np.zeros(..., dtype=np.float32) and friends.
            for keyword in node.keywords:
                if keyword.arg == "dtype" and self._mentions_float_dtype(
                    keyword.value
                ):
                    self._flag(node, (
                        f"array constructed with a float dtype in "
                        f"{self.where}"
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
    visitor = _IntFlowVisitor(
        path, _numpy_aliases(tree), "the integer backend"
    )
    visitor.visit(tree)
    return filter_suppressed(visitor.findings, parse_suppressions(source))


def _in_scope(path: str) -> bool:
    return path.replace("\\", "/").split("/")[-1].endswith(
        _TARGET_BASENAMES
    )


def _source_root(path: str) -> str:
    """The first ancestor directory of ``path`` that is not a package:
    absolute imports in ``path`` resolve against it."""
    directory = os.path.dirname(path) or os.curdir
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parent = os.path.dirname(directory) or os.curdir
        if parent == directory:
            break
        directory = parent
    return directory


def _module_file(path: str, node: ast.ImportFrom) -> Optional[str]:
    """The in-repo source file an ``import from`` in ``path`` names, or
    None (third-party and standard-library modules)."""
    if node.level:
        base = os.path.dirname(path) or os.curdir
        for _ in range(node.level - 1):
            base = os.path.dirname(base) or os.curdir
    else:
        base = _source_root(path)
    stem = os.path.join(base, *(node.module or "").split("."))
    for candidate in (stem + ".py", os.path.join(stem, "__init__.py")):
        if os.path.isfile(candidate):
            return os.path.normpath(candidate)
    return None


def _import_map(tree: ast.AST, path: str) -> Dict[str, Tuple[str, str]]:
    """Local name -> (in-repo module file, name there) for every
    ``from X import f [as g]`` in ``path`` that resolves in-repo and out
    of QL044 scope (in-scope files are checked as files of their own)."""
    imports: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _module_file(path, node)
        if module is None or _in_scope(module):
            continue
        for alias in node.names:
            imports[alias.asname or alias.name] = (module, alias.name)
    return imports


def _imported_names(tree: ast.AST, path: str) -> Dict[str, List[str]]:
    """In-repo module file -> the names ``path`` imports from it."""
    imports: Dict[str, List[str]] = {}
    for module, name in _import_map(tree, path).values():
        imports.setdefault(module, []).append(name)
    return imports


class _Module:
    """One parsed in-repo module: its functions and its imports."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "r", encoding="utf-8") as handle:
            self.source = handle.read()
        tree = ast.parse(self.source)
        self.aliases = _numpy_aliases(tree)
        self.functions = {
            node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        self.imports = _import_map(tree, path)

    def resolve(self, name: str) -> Optional[Tuple[str, str]]:
        """Where ``name``, as this module sees it, comes from: (module
        file, name there); None when it is not an in-repo name."""
        if name in self.functions:
            return self.path, name
        return self.imports.get(name)


def check_imports(source: str, path: str) -> List[Finding]:
    """QL044 findings in the in-repo functions ``path`` reaches through
    its imports, reported at the functions' own lines and honouring
    their files' suppressions.

    The walk is transitive: from each imported function it follows every
    name the body uses that resolves to an in-repo function — a helper
    of the same module or one that module imports — with a visited set,
    so each function is checked once and import cycles terminate.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # check_source reports the parse error
    modules: Dict[str, _Module] = {}
    raw: Dict[str, List[Finding]] = {}
    pending = [
        (module, name, f"{name}(), which the integer backend imports")
        for module, name in sorted(_import_map(tree, path).values())
    ]
    visited = set()
    while pending:
        module_path, name, where = pending.pop()
        if (module_path, name) in visited:
            continue
        visited.add((module_path, name))
        module = modules.get(module_path)
        if module is None:
            module = modules[module_path] = _Module(module_path)
        target = module.resolve(name)
        if target is None:
            continue
        if target != (module_path, name):
            pending.append((*target, where))  # a re-export
            continue
        node = module.functions[name]
        visitor = _IntFlowVisitor(module_path, module.aliases, where)
        visitor.visit(node)
        raw.setdefault(module_path, []).extend(visitor.findings)
        for used in ast.walk(node):
            if isinstance(used, ast.Name) and isinstance(used.ctx, ast.Load):
                callee = module.resolve(used.id)
                if callee is not None:
                    pending.append((*callee, (
                        f"{callee[1]}(), which the integer backend reaches "
                        f"through {name}()"
                    )))
    findings: List[Finding] = []
    for module_path in sorted(raw):
        findings.extend(filter_suppressed(
            sorted(raw[module_path], key=lambda finding: finding.line),
            parse_suppressions(modules[module_path].source),
        ))
    return findings


def check_file(path: str) -> List[Finding]:
    if not _in_scope(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return check_source(source, path) + check_imports(source, path)
