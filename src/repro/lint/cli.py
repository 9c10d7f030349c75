"""Lint runner backing ``qcapsnets lint``.

Expands the requested paths to Python files, runs the static analyzers
(determinism, integer flow, concurrency) over each, and optionally
executes ``--runtime`` modules under a strict-origin
:class:`~repro.lint.sanitizer.FixedPointSanitizer` to convert runtime
overflow/NaN events into findings.

Exit codes (the CI gate contract, also documented under ``qcapsnets
lint --help``):

* ``0`` — no findings survived suppression and rule filters;
* ``1`` — at least one finding;
* ``2`` — usage error (bad path, unknown rule id in
  ``--select``/``--ignore``).

``--select``/``--ignore`` restrict which rule ids can produce
findings; ``--json`` replaces the text output with one machine-
readable JSON document so CI can gate on exact rule sets.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.lint import concurrency, determinism, intflow
from repro.lint.findings import RULES, Finding
from repro.lint.sanitizer import FixedPointSanitizer


def _iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories to a sorted, deduplicated .py list."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [
                    d for d in dirnames if d != "__pycache__"
                ]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif path.endswith(".py") and os.path.isfile(path):
            files.append(path)
        else:
            raise FileNotFoundError(
                f"lint target {path!r} is neither a directory nor a "
                f".py file"
            )
    seen = set()
    unique = []
    for name in files:
        normalized = os.path.normpath(name)
        if normalized not in seen:
            seen.add(normalized)
            unique.append(normalized)
    return sorted(unique)


def _import_module_from_path(path: str) -> object:
    """Import an arbitrary .py file under a private module name."""
    name = "_qlint_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot import {path!r}")
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclasses/pickling inside the module resolve.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


def _runtime_findings(runtime: Sequence[str]) -> List[Finding]:
    """Run each ``--runtime`` module's ``main()`` under a sanitizer."""
    findings: List[Finding] = []
    for path in runtime:
        sanitizer = FixedPointSanitizer(capture_origin=True)
        try:
            module = _import_module_from_path(path)
            entry = getattr(module, "main", None)
            if not callable(entry):
                raise AttributeError(
                    f"runtime target {path!r} defines no main() function"
                )
            with sanitizer:
                entry()
        except BaseException as error:
            findings.append(Finding(
                "QL031", path, 0, f"runtime target failed: {error}",
            ))
            continue
        findings.extend(sanitizer.findings(default_path=path))
    return findings


def _validate_rules(
    rules: Optional[Sequence[str]], flag: str,
    emit: Callable[[str], None],
) -> Optional[Set[str]]:
    """Normalized rule-id set for a filter flag; None on bad input."""
    if rules is None:
        return set()
    selected = {rule.strip().upper() for rule in rules if rule.strip()}
    unknown = sorted(selected - set(RULES))
    if unknown:
        emit(
            f"error: unknown rule id(s) for {flag}: {', '.join(unknown)} "
            f"(see 'qcapsnets lint --rules')"
        )
        return None
    return selected


def run_lint(
    paths: Sequence[str],
    runtime: Sequence[str] = (),
    emit: Optional[Callable[[str], None]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    json_output: bool = False,
) -> int:
    """Run every analyzer; print findings; return the exit status.

    ``select`` keeps only the named rule ids, ``ignore`` drops them
    (ignore wins on overlap); unknown ids exit 2.  ``json_output``
    emits one JSON document instead of the line-per-finding text.
    """
    emit = emit if emit is not None else lambda line: print(line)
    selected = _validate_rules(select, "--select", emit)
    ignored = _validate_rules(ignore, "--ignore", emit)
    if selected is None or ignored is None:
        return 2
    try:
        files = _iter_python_files(paths)
    except FileNotFoundError as error:
        emit(f"error: {error}")
        return 2

    # Lock ownership is a run-level property: collect every lock-owning
    # class first so cross-class acquisition (``with worker.lock:``)
    # resolves across module boundaries.
    sources = {}
    owners: Dict[str, Set[str]] = {}
    cross_locks: Set[str] = set()
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            sources[path] = handle.read()
        for cls, attrs in concurrency.lock_owner_attrs(
            sources[path]
        ).items():
            owners.setdefault(cls, set()).update(attrs)
            cross_locks |= attrs

    findings: List[Finding] = []
    edges: List[concurrency.LockOrderEdge] = []
    for path in files:
        findings.extend(determinism.check_file(path))
        findings.extend(intflow.check_file(path))
        findings.extend(concurrency.check_source(
            sources[path], path, cross_locks=cross_locks
        ))
        edges.extend(concurrency.lock_order_edges(
            sources[path], path, owners=owners
        ))
    # Lock ordering is likewise run-level: a cycle needs two files'
    # acquisition paths unioned before it becomes visible.
    findings.extend(concurrency.check_lock_order(edges, sources=sources))
    findings.extend(_runtime_findings(runtime))

    if selected:
        findings = [f for f in findings if f.rule in selected]
    if ignored:
        findings = [f for f in findings if f.rule not in ignored]

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    rules = sorted({f.rule for f in findings})
    if json_output:
        emit(json.dumps({
            "files": len(files),
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                }
                for f in findings
            ],
            "rules": rules,
        }, indent=2))
    else:
        for finding in findings:
            emit(finding.format())
        emit(
            f"qlint: {len(files)} file(s), {len(findings)} finding(s)"
            + (f" [{', '.join(rules)}]" if rules else "")
        )
    return 1 if findings else 0


def list_rules(emit: Optional[Callable[[str], None]] = None) -> int:
    """Print the rule table (``qcapsnets lint --rules``)."""
    emit = emit if emit is not None else lambda line: print(line)
    for rule, meaning in sorted(RULES.items()):
        emit(f"{rule}  {meaning}")
    return 0
