"""Serve concurrency audit (rules QL020/QL022).

The serving daemon shares state across threads: HTTP handler threads
(the ``ThreadingHTTPServer`` pool) submit requests and read ``/healthz``
counters while the micro-batcher's dispatcher thread executes models
and updates telemetry.  Every class that owns a lock declares, implicitly,
which attributes that lock protects; this analyzer makes the contract
checkable:

* A class is *in scope* when its ``__init__`` binds an attribute to
  ``threading.Lock()`` / ``RLock()`` / ``Condition()``.
* An attribute is *shared* when some method outside ``__init__``
  rebinds it (``self.requests += 1``, ``self._thread = ...``) — state
  that only ``__init__`` writes is configuration and is exempt.
* Every access (read or write) to a shared attribute outside
  ``__init__`` must be lexically inside ``with self.<lock>:`` for one
  of the class's locks, or be covered by a
  ``# qlint: guarded-by(<lock>)`` annotation — on the access line, or
  on the method's ``def`` line (or a decorator line of a decorated
  ``def``) to assert the whole method is only called with the lock
  held.

Lock ownership is collected **across the whole lint run**
(:func:`lock_owner_attrs`), so holding *another* object's lock counts:
``with queue.lock:`` is recognized whenever ``lock`` is a lock
attribute of some lock-owning class anywhere in the analyzed tree.  A
method that acquires ``<name>.<lock>`` takes responsibility for
``<name>``: every *rebind* of that receiver's attributes in the same
method must also be under the lock (or carry a ``guarded-by`` naming a
known lock, own or cross-class).

Rule QL022 audits lock *ordering* across the whole run: every nested
``with a: with b:`` contributes an acquisition-order edge ``a -> b``
(:func:`lock_order_edges`), edges are unioned over all analyzed files,
and any cycle in the resulting graph — ``submit`` taking the scheduler
lock then a queue's, ``steal`` taking them inverted — is a deadlock
hazard the moment both paths run concurrently
(:func:`check_lock_order`).  Nodes are named ``Class.attr``: the
enclosing class for ``with self.<lock>:``, the owning class from the
run-wide registry for ``with queue.<lock>:`` when exactly one class
owns that attribute name, and ``?.attr`` when ownership is ambiguous.

Known limitation (documented, deliberate): mutating a container bound
once in ``__init__`` (``self._queues.setdefault(...)``) is a *read* of
the attribute binding and is not tracked; the rule targets the counter/
handle rebinding pattern that actually raced in the serving daemon
(`MicroBatcher` stats read by ``/healthz`` mid-update).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import (
    Finding,
    filter_suppressed,
    parse_guards,
    parse_suppressions,
)

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


def _is_lock_construction(node: ast.AST, threading_names: Set[str]) -> bool:
    """True for ``threading.Lock()`` / ``Condition()`` style calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
        return (
            isinstance(func.value, ast.Name)
            and func.value.id in threading_names
        )
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _threading_aliases(tree: ast.Module) -> Set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    names.add(alias.asname or "threading")
    return names


def _class_methods(classdef: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        node for node in classdef.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _class_lock_attrs(
    classdef: ast.ClassDef, threading_names: Set[str]
) -> Set[str]:
    """Lock attributes bound in the class's ``__init__``."""
    init = next(
        (m for m in _class_methods(classdef) if m.name == "__init__"), None
    )
    if init is None:
        return set()
    init_self = _self_name(init)
    if init_self is None:
        return set()
    lock_attrs: Set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == init_self
                    and _is_lock_construction(node.value, threading_names)
                ):
                    lock_attrs.add(target.attr)
    return lock_attrs


def lock_owner_attrs(source: str) -> Dict[str, Set[str]]:
    """``{class name: lock attributes}`` for every lock-owning class.

    The lint runner unions these over *all* analyzed files before
    checking any of them, so cross-class lock acquisition
    (``with queue.lock:``) resolves across module boundaries.
    Unparseable sources contribute nothing (the parse error itself is
    reported by :func:`check_source`).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    threading_names = _threading_aliases(tree)
    owners: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            attrs = _class_lock_attrs(node, threading_names)
            if attrs:
                owners[node.name] = attrs
    return owners


class _Access:
    __slots__ = ("attr", "line", "store", "method", "held", "receiver")

    def __init__(self, attr: str, line: int, store: bool, method: str,
                 held: Tuple[str, ...], receiver: Optional[str] = None):
        self.attr = attr
        self.line = line
        self.store = store
        self.method = method
        self.held = held
        #: None for ``self.<attr>``; the variable name for accesses
        #: through another lock-owning object (``queue.<attr>``).
        self.receiver = receiver


class _MethodWalker:
    """Collects attribute accesses with the lock set held at each.

    ``held`` entries are the bare attribute name for the class's own
    locks (``with self._lock:``) and ``"<receiver>.<attr>"`` for
    cross-class locks (``with queue.lock:``).  Receivers whose lock
    the method acquires anywhere are recorded in ``assoc`` — only those
    receivers' rebinds are audited (a method that never takes
    ``entry``'s lock makes no claim about ``entry``).
    """

    def __init__(self, self_name: str, lock_attrs: Set[str],
                 cross_locks: Set[str], method: str):
        self.self_name = self_name
        self.lock_attrs = lock_attrs
        self.cross_locks = cross_locks
        self.method = method
        self.accesses: List[_Access] = []
        self.assoc: Set[str] = set()

    def walk(self, stmts: List[ast.stmt], held: Tuple[str, ...]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, ast.With):
            acquired = list(held)
            for item in stmt.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    acquired.append(lock)
                else:
                    self._collect(item.context_expr, held)
                if item.optional_vars is not None:
                    self._collect(item.optional_vars, held)
            self.walk(stmt.body, tuple(acquired))
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions may outlive the lock scope; analyze
            # their bodies as unguarded.
            self.walk(stmt.body, ())
            return
        # Generic: visit child expressions here, recurse into child
        # statement lists with the same held set.
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    self.walk(value, held)
                else:
                    for entry in value:
                        if isinstance(entry, ast.AST):
                            self._collect(entry, held)
            elif isinstance(value, ast.AST):
                self._collect(value, held)

    def _lock_of(self, expr: ast.AST) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
        ):
            if (
                expr.value.id == self.self_name
                and expr.attr in self.lock_attrs
            ):
                return expr.attr
            if (
                expr.value.id != self.self_name
                and expr.attr in self.cross_locks
            ):
                self.assoc.add(expr.value.id)
                return f"{expr.value.id}.{expr.attr}"
        return None

    def _collect(self, expr: ast.AST, held: Tuple[str, ...]) -> None:
        for node in ast.walk(expr):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
            ):
                continue
            receiver = node.value.id
            if receiver == self.self_name:
                if node.attr in self.lock_attrs:
                    continue
                self.accesses.append(_Access(
                    node.attr,
                    node.lineno,
                    isinstance(node.ctx, (ast.Store, ast.Del)),
                    self.method,
                    held,
                ))
            elif node.attr not in self.cross_locks:
                self.accesses.append(_Access(
                    node.attr,
                    node.lineno,
                    isinstance(node.ctx, (ast.Store, ast.Del)),
                    self.method,
                    held,
                    receiver=receiver,
                ))


def _self_name(fdef: ast.FunctionDef) -> Optional[str]:
    if fdef.args.args:
        return fdef.args.args[0].arg
    return None


def _method_guard(
    method: ast.FunctionDef, guards: Dict[int, str]
) -> Optional[str]:
    """A ``guarded-by`` annotation covering the whole method body.

    Recognized on the ``def`` line itself and — for decorated functions,
    where the visual anchor is ambiguous — on any decorator line.
    """
    guard = guards.get(method.lineno)
    if guard is not None:
        return guard
    for decorator in method.decorator_list:
        guard = guards.get(decorator.lineno)
        if guard is not None:
            return guard
    return None


def _check_class(
    classdef: ast.ClassDef,
    threading_names: Set[str],
    guards: Dict[int, str],
    path: str,
    cross_locks: Set[str],
) -> List[Finding]:
    lock_attrs = _class_lock_attrs(classdef, threading_names)
    if not lock_attrs and not cross_locks:
        return []
    known_locks = lock_attrs | cross_locks

    walkers: List[_MethodWalker] = []
    method_guards: Dict[str, str] = {}
    for method in _class_methods(classdef):
        if method.name == "__init__":
            continue
        self_name = _self_name(method)
        if self_name is None:
            continue
        guard = _method_guard(method, guards)
        if guard is not None:
            method_guards[method.name] = guard
        walker = _MethodWalker(self_name, lock_attrs, cross_locks, method.name)
        walker.walk(method.body, ())
        walkers.append(walker)

    def guarded(access: _Access) -> bool:
        method_guard = method_guards.get(access.method)
        if method_guard is not None and method_guard in known_locks:
            return True
        line_guard = guards.get(access.line)
        return line_guard is not None and line_guard in known_locks

    findings: List[Finding] = []

    # Own-lock rule: shared self attributes of a lock-owning class.
    if lock_attrs:
        self_accesses = [
            a for w in walkers for a in w.accesses if a.receiver is None
        ]
        shared = {a.attr for a in self_accesses if a.store}
        for access in self_accesses:
            if access.attr not in shared:
                continue
            if access.held:
                continue
            if guarded(access):
                continue
            locks = "/".join(sorted(lock_attrs))
            kind = "write to" if access.store else "read of"
            findings.append(Finding(
                "QL020", path, access.line,
                f"unguarded {kind} shared attribute "
                f"'self.{access.attr}' in {classdef.name}.{access.method}: "
                f"hold 'with self.{locks}:' or annotate the line/method "
                f"with # qlint: guarded-by(<lock>)",
            ))

    # Cross-class rule: a method that takes some receiver's lock must
    # keep that receiver's rebinds under it.
    for walker in walkers:
        for access in walker.accesses:
            if access.receiver is None or not access.store:
                continue
            if access.receiver not in walker.assoc:
                continue
            if any(
                h.startswith(access.receiver + ".") for h in access.held
            ):
                continue
            if guarded(access):
                continue
            findings.append(Finding(
                "QL020", path, access.line,
                f"unguarded write to '{access.receiver}.{access.attr}' in "
                f"{classdef.name}.{access.method}: the method acquires "
                f"'{access.receiver}'s lock elsewhere, so every rebind of "
                f"its attributes must hold it (or carry "
                f"# qlint: guarded-by(<lock>))",
            ))
    return findings


# ----------------------------------------------------------------------
# QL022: lock-order cycles across the analyzed run
# ----------------------------------------------------------------------
class LockOrderEdge:
    """One acquisition-order fact: ``dst`` acquired while ``src`` held.

    ``line`` is the ``dst`` acquisition site; ``site`` names the method
    (``Class.method``) so the cycle report reads as two code paths.
    """

    __slots__ = ("src", "dst", "path", "line", "site")

    def __init__(self, src: str, dst: str, path: str, line: int,
                 site: str):
        self.src = src
        self.dst = dst
        self.path = path
        self.line = line
        self.site = site

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LockOrderEdge({self.src!r} -> {self.dst!r} at "
            f"{self.path}:{self.line} in {self.site})"
        )


class _EdgeCollector:
    """Collects acquisition-order edges from one method's ``with`` tree.

    Mirrors :class:`_MethodWalker`'s held-set threading but records the
    *canonical* lock node acquired at each ``with`` item together with
    every node already held, which is exactly the edge set QL022 needs.
    """

    def __init__(self, class_name: str, self_name: str,
                 lock_attrs: Set[str], cross_locks: Set[str],
                 owner_of: Dict[str, Optional[str]], method: str,
                 path: str):
        self.class_name = class_name
        self.self_name = self_name
        self.lock_attrs = lock_attrs
        self.cross_locks = cross_locks
        self.owner_of = owner_of
        self.method = method
        self.path = path
        self.edges: List[LockOrderEdge] = []

    def _lock_node(self, expr: ast.AST) -> Optional[str]:
        """Canonical ``Class.attr`` node for a lock acquisition, or None."""
        if not (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
        ):
            return None
        if (
            expr.value.id == self.self_name
            and expr.attr in self.lock_attrs
        ):
            return f"{self.class_name}.{expr.attr}"
        if (
            expr.value.id != self.self_name
            and expr.attr in self.cross_locks
        ):
            owner = self.owner_of.get(expr.attr)
            return f"{owner or '?'}.{expr.attr}"
        return None

    def walk(self, stmts: List[ast.stmt],
             held: Tuple[str, ...]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = list(held)
            for item in stmt.items:
                node = self._lock_node(item.context_expr)
                if node is None:
                    continue
                for prior in acquired:
                    if prior != node:  # RLock re-entry is not an edge
                        self.edges.append(LockOrderEdge(
                            prior, node, self.path,
                            item.context_expr.lineno,
                            f"{self.class_name}.{self.method}",
                        ))
                acquired.append(node)
            self.walk(stmt.body, tuple(acquired))
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions may run outside the lock scope; their
            # own nesting still counts, inherited locks do not.
            self.walk(stmt.body, ())
            return
        for _field, value in ast.iter_fields(stmt):
            if (
                isinstance(value, list)
                and value
                and isinstance(value[0], ast.stmt)
            ):
                self.walk(value, held)


def lock_order_edges(
    source: str, path: str,
    owners: Optional[Dict[str, Set[str]]] = None,
) -> List[LockOrderEdge]:
    """Acquisition-order edges from every nested ``with`` in one file.

    ``owners`` is the run-wide ``{class: lock attrs}`` registry (the
    union of :func:`lock_owner_attrs` over every analyzed file); this
    file's own classes are always merged in, so single-file analysis
    works without a registry.  Unparseable sources contribute no edges
    (the parse error is reported by :func:`check_source`).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    threading_names = _threading_aliases(tree)
    merged: Dict[str, Set[str]] = {
        cls: set(attrs) for cls, attrs in (owners or {}).items()
    }
    for cls, attrs in lock_owner_attrs(source).items():
        merged.setdefault(cls, set()).update(attrs)
    cross_locks: Set[str] = set()
    owner_of: Dict[str, Optional[str]] = {}
    for cls, attrs in merged.items():
        cross_locks |= attrs
        for attr in attrs:
            # Unique owner resolves the node name; collisions stay '?'.
            owner_of[attr] = cls if attr not in owner_of else None

    edges: List[LockOrderEdge] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lock_attrs = _class_lock_attrs(node, threading_names)
        for method in _class_methods(node):
            if method.name == "__init__":
                continue
            self_name = _self_name(method)
            if self_name is None:
                continue
            collector = _EdgeCollector(
                node.name, self_name, lock_attrs, cross_locks,
                owner_of, method.name, path,
            )
            collector.walk(method.body, ())
            edges.extend(collector.edges)
    return edges


def check_lock_order(
    edges: List[LockOrderEdge],
    sources: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """QL022 findings: one per distinct lock-order cycle in ``edges``.

    Parallel edges collapse to the lexicographically-first acquisition
    site; each elementary cycle is reported exactly once (anchored at
    its first edge's site) with every acquisition site named, so the
    report reads as the two (or more) code paths that interleave into
    a deadlock.  ``sources`` (``{path: text}``) enables ``# qlint:
    disable=QL022`` suppression at any acquisition site on the cycle.
    """
    adjacency: Dict[str, Dict[str, LockOrderEdge]] = {}
    for edge in edges:
        slot = adjacency.setdefault(edge.src, {})
        current = slot.get(edge.dst)
        if current is None or (
            (edge.path, edge.line) < (current.path, current.line)
        ):
            slot[edge.dst] = edge

    # Enumerate elementary cycles once each: depth-first search started
    # from every node, only visiting nodes that sort after the start so
    # each cycle is found solely from its smallest node.
    cycles: List[List[str]] = []
    for start in sorted(adjacency):
        stack = [start]
        onstack = {start}

        def dfs(node: str) -> None:
            for succ in sorted(adjacency.get(node, {})):
                if succ == start:
                    cycles.append(list(stack))
                elif succ > start and succ not in onstack:
                    onstack.add(succ)
                    stack.append(succ)
                    dfs(succ)
                    stack.pop()
                    onstack.discard(succ)

        dfs(start)

    suppressions = {
        path: parse_suppressions(text)
        for path, text in (sources or {}).items()
    }
    findings: List[Finding] = []
    for cycle in cycles:
        hops = [
            adjacency[cycle[i]][cycle[(i + 1) % len(cycle)]]
            for i in range(len(cycle))
        ]
        if any(
            "QL022" in suppressions.get(h.path, {}).get(h.line, ())
            for h in hops
        ):
            continue
        trail = " -> ".join(
            f"'{hop.dst}' ({hop.path}:{hop.line} in {hop.site})"
            for hop in hops
        )
        findings.append(Finding(
            "QL022", hops[0].path, hops[0].line,
            f"lock-order cycle: '{hops[0].src}' -> {trail}; these "
            f"paths deadlock when they interleave — acquire locks in "
            f"one global order",
        ))
    return findings


def check_source(
    source: str, path: str, cross_locks: Optional[Set[str]] = None
) -> List[Finding]:
    """QL020 findings for one file's source text.

    ``cross_locks`` is the run-wide union of lock attribute names from
    every lock-owning class (:func:`lock_owner_attrs`); this file's own
    classes are always included, so single-file checks see their local
    cross-class locks without a registry.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding(
            "QL020", path, error.lineno or 0, f"cannot parse file: {error}"
        )]
    threading_names = _threading_aliases(tree)
    guards = parse_guards(source)
    all_cross: Set[str] = set(cross_locks) if cross_locks else set()
    for attrs in lock_owner_attrs(source).values():
        all_cross |= attrs
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(
                _check_class(node, threading_names, guards, path, all_cross)
            )
    return filter_suppressed(findings, parse_suppressions(source))


def check_file(
    path: str, cross_locks: Optional[Set[str]] = None
) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        return check_source(handle.read(), path, cross_locks=cross_locks)
