"""Tests for the qlint static analyzers (repro.lint).

The analyzer acceptance criteria:

* every known-bad fixture yields exactly one finding naming its rule,
  file and a non-zero line; every known-good fixture yields zero;
* the shipped tree is clean: ``qcapsnets lint src`` exits 0;
* ``# qlint: disable=`` and ``# qlint: guarded-by()`` annotations are
  honored;
* the analyzers catch the repo's actual historical bug classes
  (unseeded RNGs, unguarded counters, floats in the int path) when
  they are reintroduced.
"""

import ast
import json
import os

import pytest

from repro.lint import RULES, concurrency, determinism, intflow
from repro.lint.cli import run_lint
from repro.lint.findings import (
    Finding,
    filter_suppressed,
    parse_guards,
    parse_suppressions,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def lint(paths, runtime=(), **kwargs):
    """run_lint with captured output: ``(exit_code, lines)``."""
    lines = []
    code = run_lint(paths, runtime=runtime, emit=lines.append, **kwargs)
    return code, lines


def fixture(name):
    return os.path.join(FIXTURES, name)


# ----------------------------------------------------------------------
# Fixture matrix: each bad fixture -> exactly one finding of its rule
# ----------------------------------------------------------------------
class TestFixtureMatrix:
    @pytest.mark.parametrize("name, rule", [
        ("bad_unseeded.py", "QL010"),
        ("bad_sr_escape.py", "QL012"),
        ("bad_unguarded.py", "QL020"),
        ("bad_cross_lock.py", "QL020"),
        ("bad_lock_order.py", "QL022"),
        ("bad_float_in_int_kernels.py", "QL044"),
        ("bad_float_in_int_backend.py", "QL044"),
    ])
    def test_bad_fixture_yields_exactly_one_finding(self, name, rule):
        code, lines = lint([fixture(name)])
        assert code == 1
        findings = [line for line in lines if f" {rule} " in line]
        assert len(findings) == 1, lines
        # The finding names the file and a real line number.
        path_part, line_part, _ = findings[0].split(":", 2)
        assert name in path_part
        assert int(line_part) > 0

    @pytest.mark.parametrize("name", [
        "good_guarded.py",
        "good_lock_order.py",
    ])
    def test_good_fixture_is_clean(self, name):
        code, lines = lint([fixture(name)])
        assert code == 0
        assert lines[-1].endswith("0 finding(s)")

    def test_runtime_overflow_fixture_yields_ql030(self):
        code, lines = lint(
            [fixture("good_guarded.py")],
            runtime=[fixture("bad_overflow.py")],
        )
        assert code == 1
        findings = [line for line in lines if " QL030 " in line]
        assert len(findings) == 1, lines
        assert "overflow" in findings[0]

    def test_missing_target_is_a_usage_error(self):
        code, lines = lint([fixture("no_such_file.py")])
        assert code == 2
        assert "error" in lines[0]


# ----------------------------------------------------------------------
# Rule filters and machine-readable output (--select/--ignore/--json)
# ----------------------------------------------------------------------
class TestRuleFilters:
    def test_select_keeps_only_named_rules(self):
        # bad_unseeded.py emits QL010; selecting QL020 filters it out.
        code, lines = lint([fixture("bad_unseeded.py")], select=["QL020"])
        assert code == 0
        assert lines[-1].endswith("0 finding(s)")
        code, lines = lint([fixture("bad_unseeded.py")], select=["QL010"])
        assert code == 1

    def test_ignore_drops_named_rules(self):
        code, lines = lint([fixture("bad_unseeded.py")], ignore=["QL010"])
        assert code == 0

    def test_ignore_wins_over_select(self):
        code, lines = lint(
            [fixture("bad_unseeded.py")],
            select=["QL010"], ignore=["QL010"],
        )
        assert code == 0

    def test_rule_ids_are_case_insensitive(self):
        code, _ = lint([fixture("bad_unseeded.py")], ignore=["ql010"])
        assert code == 0

    def test_unknown_rule_id_is_a_usage_error(self):
        code, lines = lint([fixture("bad_unseeded.py")], select=["QL999"])
        assert code == 2
        assert "QL999" in lines[0]

    def test_json_output_is_one_parseable_document(self):
        code, lines = lint([fixture("bad_unseeded.py")], json_output=True)
        assert code == 1
        doc = json.loads("\n".join(lines))
        assert doc["files"] == 1
        assert doc["rules"] == ["QL010"]
        (finding,) = doc["findings"]
        assert finding["rule"] == "QL010"
        assert finding["path"].endswith("bad_unseeded.py")
        assert finding["line"] > 0
        assert finding["message"]

    def test_json_output_clean_run(self):
        code, lines = lint([fixture("good_guarded.py")], json_output=True)
        assert code == 0
        doc = json.loads("\n".join(lines))
        assert doc["findings"] == [] and doc["rules"] == []


# ----------------------------------------------------------------------
# Shipped tree is clean (the CI gate invariant)
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_serve_layer_is_lock_clean(self):
        serve_dir = os.path.join("src", "repro", "serve")
        findings = []
        for name in sorted(os.listdir(serve_dir)):
            if name.endswith(".py"):
                findings.extend(
                    concurrency.check_file(os.path.join(serve_dir, name))
                )
        assert findings == [], [f.format() for f in findings]

    def test_full_src_lint_exits_zero(self):
        code, lines = lint(["src"])
        assert code == 0, lines


# ----------------------------------------------------------------------
# Integer-flow checker (QL044)
# ----------------------------------------------------------------------
class TestIntFlow:
    KERNELS = os.path.join("src", "repro", "backend", "int_kernels.py")
    BACKEND = os.path.join("src", "repro", "backend", "int_backend.py")

    def test_float_dtypes_by_name_and_true_division_are_flagged(self):
        path = fixture("bad_float_alias_int_kernels.py")
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        flagged = sorted(f.line for f in intflow.check_file(path))
        escapes = (
            "CARRIER = ", "def widen(", "    return codes.astype(CARRIER)"
        )
        expected = sorted(
            number for number, line in enumerate(source, start=1)
            if line.startswith(escapes)
        )
        assert len(expected) == 3
        assert flagged == expected

    def test_shipped_suppressions_are_exactly_the_audited_float_lines(self):
        """The only QL044 suppressions in the shipped kernels are the
        stochastic-rounding residue, the carrier helper's dtype table
        and the float64 return line of each squash carrier helper, and
        each of them is needed."""
        with open(self.KERNELS, encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines()
        tree = ast.parse(source)
        squash_carrier_lines = {
            "_floor_div": "return np.floor(numerator / denominator)",
            "_trunc_div": "return np.divide(numerator, denominator, out=",
            "_isqrt": "return np.floor(np.sqrt(values))",
        }
        audited = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.targets[0], ast.Name
            ):
                name = node.targets[0].id
                if name == "residue" or name == "_CARRIER_DTYPES":
                    audited.update(
                        value.lineno for value in ast.walk(node.value)
                        if isinstance(value, ast.Attribute)
                        and value.attr.startswith("float")
                    )
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in squash_carrier_lines
            ):
                (number,) = [
                    number
                    for number in range(node.lineno, node.end_lineno + 1)
                    if lines[number - 1].strip().startswith(
                        squash_carrier_lines[node.name]
                    )
                ]
                audited.add(number)
        suppressed = {
            number
            for number, line in enumerate(lines, start=1)
            if "qlint: disable=QL044" in line
        }
        # The residue + float32 + float64 + the three squash helpers.
        assert len(audited) == 6
        assert suppressed == audited
        unsuppressed = source.replace("qlint: disable=QL044", "")
        raw = {
            f.line for f in intflow.check_source(unsuppressed, self.KERNELS)
        }
        assert raw == audited

    def test_imported_functions_suppress_only_the_exponential_rom(
        self, tmp_path
    ):
        """Of every in-repo function the kernels and the plan walk
        import, only ``exp_lut`` (built once at bind time) computes in
        floats; its line is the one suppression, and it is needed."""
        suppressed = set()
        for path in (self.KERNELS, self.BACKEND):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for module in intflow._imported_names(tree, path):
                with open(module, encoding="utf-8") as handle:
                    suppressed.update(
                        (module, number, line)
                        for number, line in enumerate(handle, start=1)
                        if "qlint: disable=QL044" in line
                    )
        fixed_ref = os.path.join("src", "repro", "hw", "fixed_ref.py")
        ((module, number, line),) = suppressed
        assert module == fixed_ref
        assert "np.exp(" in line and "(bind-time ROM build)" in line
        # Without the comment the import check reports that line.
        package = tmp_path / "src" / "repro"
        for sub in ("", "hw", "backend"):
            (package / sub).mkdir(parents=True, exist_ok=True)
            (package / sub / "__init__.py").write_text("")
        with open(fixed_ref, encoding="utf-8") as handle:
            (package / "hw" / "fixed_ref.py").write_text(
                handle.read().replace("qlint: disable=QL044", "")
            )
        kernels = package / "backend" / "int_kernels.py"
        with open(self.KERNELS, encoding="utf-8") as handle:
            kernels.write_text(handle.read())
        findings = intflow.check_file(str(kernels))
        assert [(f.path, f.line) for f in findings] == [
            (str(package / "hw" / "fixed_ref.py"), number)
        ]
        assert "exp_lut(), which the integer backend imports" in (
            findings[0].message
        )

    def test_float_routine_reached_through_an_import_is_flagged(self):
        code, lines = lint([fixture("bad_float_via_import_int_kernels.py")])
        assert code == 1
        (finding,) = [line for line in lines if " QL044 " in line]
        path_part, line_part, message = finding.split(":", 2)
        helpers = fixture("float_helpers.py")
        assert path_part == os.path.normpath(helpers)
        with open(helpers, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        assert "np.sqrt(" in source[int(line_part) - 1]
        assert "capsule_norm(), which the integer backend imports" in message
        # Out of scope on its own: only imported functions are checked.
        assert lint([helpers]) == (0, ["qlint: 1 file(s), 0 finding(s)"])

    def test_float_routine_two_calls_away_is_flagged(self):
        """The import walk is transitive: a clean imported function's
        helper is checked too, and reported at its own line."""
        code, lines = lint([fixture("bad_float_two_calls_int_kernels.py")])
        assert code == 1
        (finding,) = [line for line in lines if " QL044 " in line]
        path_part, line_part, message = finding.split(":", 2)
        chain = fixture("float_chain.py")
        assert path_part == os.path.normpath(chain)
        with open(chain, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        assert "np.sqrt(" in source[int(line_part) - 1]
        assert (
            "_root(), which the integer backend reaches through "
            "capsule_lengths()"
        ) in message

    def test_import_walk_terminates_on_cycles(self, tmp_path):
        """Mutually recursive helpers are each checked once."""
        (tmp_path / "ping.py").write_text(
            "import numpy as np\n"
            "from pong import pong\n\n\n"
            "def ping(codes):\n"
            "    return pong(codes) + np.log(codes)\n"
        )
        (tmp_path / "pong.py").write_text(
            "from ping import ping\n\n\n"
            "def pong(codes):\n"
            "    return ping(codes)\n"
        )
        kernels = tmp_path / "cycle_int_kernels.py"
        kernels.write_text("from ping import ping\n")
        findings = intflow.check_file(str(kernels))
        assert [(os.path.basename(f.path), f.line) for f in findings] == [
            ("ping.py", 6)
        ]

    def test_int_backend_suppresses_only_the_input_quantizer(self):
        """The plan walk runs every model family on codes; its only
        float line is the input quantizer's cast of the float pixels,
        and that suppression is needed."""
        with open(self.BACKEND, encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines()
        suppressed = {
            number for number, line in enumerate(lines, start=1)
            if "qlint: disable=QL044" in line
        }
        assert len(suppressed) == 1
        (number,) = suppressed
        assert "np.asarray(images, np.float64)" in lines[number - 1]
        unsuppressed = source.replace("qlint: disable=QL044", "")
        raw = {
            f.line for f in intflow.check_source(unsuppressed, self.BACKEND)
        }
        assert raw == suppressed


# ----------------------------------------------------------------------
# Determinism lint
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_global_numpy_draw_is_flagged(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        findings = determinism.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL011"]
        assert findings[0].line == 2

    def test_global_stdlib_draw_is_flagged(self):
        source = "import random\nx = random.random()\n"
        findings = determinism.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL011"]

    def test_seeded_constructions_pass(self):
        source = (
            "import numpy as np\nimport random\n"
            "a = np.random.default_rng(7)\n"
            "b = random.Random(7)\n"
        )
        assert determinism.check_source(source, "f.py") == []

    def test_shadowed_name_is_not_flagged(self):
        # A local variable named ``random`` is not the stdlib module.
        source = "def f(random):\n    return random.random()\n"
        assert determinism.check_source(source, "f.py") == []

    def test_own_seeded_generator_draw_is_allowed(self):
        # Trainer-style self.rng draws are not SR stream escapes.
        source = (
            "class Trainer:\n"
            "    def shuffle(self, n):\n"
            "        return self.rng.permutation(n)\n"
        )
        assert determinism.check_source(source, "f.py") == []

    def test_scheme_self_draw_outside_round_codes_is_flagged(self):
        source = (
            "from repro.quant.rounding import StochasticRounding\n"
            "class Leaky(StochasticRounding):\n"
            "    def warmup(self):\n"
            "        self.rng.random(8)\n"
        )
        findings = determinism.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL012"]

    def test_scheme_draw_inside_round_codes_is_allowed(self):
        source = (
            "from repro.quant.rounding import RoundingScheme\n"
            "class SR(RoundingScheme):\n"
            "    def _round_codes(self, scaled):\n"
            "        return scaled + self.rng.random(scaled.shape)\n"
        )
        assert determinism.check_source(source, "f.py") == []

    def test_disable_comment_suppresses(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # qlint: disable=QL011\n"
        )
        assert determinism.check_source(source, "f.py") == []

    def test_disable_comment_is_rule_specific(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # qlint: disable=QL010\n"
        )
        findings = determinism.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL011"]


# ----------------------------------------------------------------------
# Concurrency audit
# ----------------------------------------------------------------------
class TestConcurrency:
    LOCKED = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
    )

    def test_unguarded_write_is_flagged(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        self.n += 1\n"
        )
        findings = concurrency.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL020"]
        assert "self.n" in findings[0].message

    def test_guarded_access_passes(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_init_only_attributes_are_exempt(self):
        source = self.LOCKED + (
            "    def read_config(self):\n"
            "        return self.n\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.m = 1\n"
        )
        # ``n`` is never stored outside __init__, so its bare read in
        # read_config is configuration access, not a race.
        assert concurrency.check_source(source, "f.py") == []

    def test_method_level_guard_annotation(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "    def _bump_locked(self):  # qlint: guarded-by(_lock)\n"
            "        self.n += 1\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_guard_annotation_must_name_a_real_lock(self):
        source = self.LOCKED + (
            "    def bump(self):  # qlint: guarded-by(_other)\n"
            "        self.n += 1\n"
        )
        findings = concurrency.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL020"]

    def test_lockless_classes_are_out_of_scope(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_nested_function_does_not_inherit_the_lock(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self.n += 1\n"
            "            return later\n"
        )
        findings = concurrency.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL020"]

    def test_guard_annotation_on_decorator_line(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    @property  # qlint: guarded-by(_lock)\n"
            "    def snapshot(self):\n"
            "        return self.n\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_guard_annotation_on_decorated_def_line(self):
        source = self.LOCKED + (
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    @property\n"
            "    def snapshot(self):  # qlint: guarded-by(_lock)\n"
            "        return self.n\n"
        )
        assert concurrency.check_source(source, "f.py") == []


# ----------------------------------------------------------------------
# Cross-class / cross-module lock acquisition
# ----------------------------------------------------------------------
class TestCrossClassLocks:
    SLOTTED = (
        "import threading\n"
        "class Slot:\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "        self.calls = 0\n"
    )

    def test_store_outside_the_acquired_lock_is_flagged(self):
        source = self.SLOTTED + (
            "class Pool:\n"
            "    def tick(self, slot):\n"
            "        with slot.lock:\n"
            "            slot.calls += 1\n"
            "        slot.calls += 1\n"
        )
        findings = concurrency.check_source(source, "f.py")
        assert [f.rule for f in findings] == ["QL020"]
        assert "slot.calls" in findings[0].message

    def test_store_under_the_lock_passes(self):
        source = self.SLOTTED + (
            "class Pool:\n"
            "    def tick(self, slot):\n"
            "        with slot.lock:\n"
            "            slot.calls += 1\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_unassociated_receiver_is_out_of_scope(self):
        # A method that never acquires the receiver's lock makes no
        # claim about it; flagging every duck-typed store would drown
        # the signal.
        source = self.SLOTTED + (
            "class Pool:\n"
            "    def tick(self, slot):\n"
            "        slot.calls += 1\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_guard_annotation_may_name_a_cross_class_lock(self):
        source = self.SLOTTED + (
            "class Pool:\n"
            "    def tick(self, slot):\n"
            "        with slot.lock:\n"
            "            slot.calls += 1\n"
            "        slot.calls += 1  # qlint: guarded-by(lock)\n"
        )
        assert concurrency.check_source(source, "f.py") == []

    def test_lock_owner_attrs_registry(self):
        owners = concurrency.lock_owner_attrs(self.SLOTTED)
        assert owners == {"Slot": {"lock"}}
        assert concurrency.lock_owner_attrs("def f(:\n") == {}

    def test_lock_registry_spans_modules(self, tmp_path):
        owner = tmp_path / "slotmod.py"
        owner.write_text(self.SLOTTED, encoding="utf-8")
        user = tmp_path / "poolmod.py"
        user.write_text(
            "class Pool:\n"
            "    def tick(self, slot):\n"
            "        with slot.lock:\n"
            "            slot.calls += 1\n"
            "        slot.calls += 1\n",
            encoding="utf-8",
        )
        code, lines = lint([str(owner), str(user)])
        assert code == 1
        findings = [line for line in lines if " QL020 " in line]
        assert len(findings) == 1, lines
        assert "poolmod.py" in findings[0]


# ----------------------------------------------------------------------
# QL022: lock-order cycles
# ----------------------------------------------------------------------
class TestLockOrderCycles:
    def _fixture_source(self, name):
        with open(fixture(name), "r", encoding="utf-8") as handle:
            return handle.read()

    def test_edges_are_canonically_named(self):
        source = self._fixture_source("bad_lock_order.py")
        edges = concurrency.lock_order_edges(source, "bad.py")
        pairs = {(edge.src, edge.dst) for edge in edges}
        assert pairs == {
            ("Scheduler._sched_lock", "WorkQueue.lock"),
            ("WorkQueue.lock", "Scheduler._sched_lock"),
        }

    def test_consistent_ordering_is_clean(self):
        source = self._fixture_source("good_lock_order.py")
        edges = concurrency.lock_order_edges(source, "good.py")
        assert edges  # ordering facts exist, just no inversion
        assert concurrency.check_lock_order(edges) == []

    def test_cycle_names_both_acquisition_sites(self):
        source = self._fixture_source("bad_lock_order.py")
        edges = concurrency.lock_order_edges(source, "bad.py")
        findings = concurrency.check_lock_order(edges)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "QL022"
        assert "Scheduler.submit" in finding.message
        assert "Scheduler.steal" in finding.message
        assert "Scheduler._sched_lock" in finding.message
        assert "WorkQueue.lock" in finding.message

    def test_cycle_across_two_files(self):
        # The inversion only appears once both files' edges are
        # unioned — exactly the run-level property QL022 checks.
        first = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self.la = threading.Lock()\n"
            "    def fwd(self, b):\n"
            "        with self.la:\n"
            "            with b.lb:\n"
            "                pass\n"
        )
        second = (
            "import threading\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self.lb = threading.Lock()\n"
            "    def rev(self, a):\n"
            "        with self.lb:\n"
            "            with a.la:\n"
            "                pass\n"
        )
        owners = {}
        for text in (first, second):
            for cls, attrs in concurrency.lock_owner_attrs(text).items():
                owners.setdefault(cls, set()).update(attrs)
        edges = (
            concurrency.lock_order_edges(first, "a.py", owners=owners)
            + concurrency.lock_order_edges(second, "b.py", owners=owners)
        )
        assert concurrency.check_lock_order(edges[:1]) == []
        findings = concurrency.check_lock_order(edges)
        assert len(findings) == 1
        assert "a.py" in findings[0].message
        assert "b.py" in findings[0].message

    def test_three_lock_cycle_is_reported_once(self):
        source = (
            "import threading\n"
            "class T:\n"
            "    def __init__(self):\n"
            "        self.a = threading.Lock()\n"
            "        self.b = threading.Lock()\n"
            "        self.c = threading.Lock()\n"
            "    def ab(self):\n"
            "        with self.a:\n"
            "            with self.b:\n"
            "                pass\n"
            "    def bc(self):\n"
            "        with self.b:\n"
            "            with self.c:\n"
            "                pass\n"
            "    def ca(self):\n"
            "        with self.c:\n"
            "            with self.a:\n"
            "                pass\n"
        )
        edges = concurrency.lock_order_edges(source, "t.py")
        findings = concurrency.check_lock_order(edges)
        assert len(findings) == 1
        assert findings[0].message.count("in T.") == 3

    def test_rlock_reentry_is_not_an_edge(self):
        source = (
            "import threading\n"
            "class R:\n"
            "    def __init__(self):\n"
            "        self.lk = threading.RLock()\n"
            "    def twice(self):\n"
            "        with self.lk:\n"
            "            with self.lk:\n"
            "                pass\n"
        )
        assert concurrency.lock_order_edges(source, "r.py") == []

    def test_disable_comment_suppresses_the_cycle(self):
        source = self._fixture_source("bad_lock_order.py").replace(
            "with self._sched_lock:\n                self.pending -= 1",
            "with self._sched_lock:  # qlint: disable=QL022\n"
            "                self.pending -= 1",
        )
        edges = concurrency.lock_order_edges(source, "bad.py")
        findings = concurrency.check_lock_order(
            edges, sources={"bad.py": source}
        )
        assert findings == []

    def test_run_lint_reports_the_cycle_once(self):
        code, lines = lint([
            fixture("good_lock_order.py"),
            fixture("bad_lock_order.py"),
        ])
        assert code == 1
        findings = [line for line in lines if " QL022 " in line]
        assert len(findings) == 1
        assert "bad_lock_order.py" in findings[0]
        assert "good_lock_order.py" not in findings[0]


# ----------------------------------------------------------------------
# Findings / annotations plumbing
# ----------------------------------------------------------------------
class TestFindings:
    def test_format_names_path_line_rule(self):
        finding = Finding("QL010", "a/b.py", 12, "boom")
        assert finding.format() == "a/b.py:12: QL010 boom"

    def test_rule_table_covers_every_emitted_rule(self):
        for rule in ("QL010", "QL011", "QL012",
                     "QL020", "QL022", "QL030", "QL031",
                     "QL040", "QL041", "QL042", "QL043"):
            assert rule in RULES

    def test_bare_disable_suppresses_everything(self):
        suppressions = parse_suppressions("x = 1  # qlint: disable\n")
        findings = [Finding("QL011", "f.py", 1, "m")]
        assert filter_suppressed(findings, suppressions) == []

    def test_guard_parsing(self):
        guards = parse_guards(
            "def f():  # qlint: guarded-by(_cond)\n    pass\n"
        )
        assert guards == {1: "_cond"}

    def test_cli_rules_listing(self):
        from repro.lint.cli import list_rules

        lines = []
        assert list_rules(emit=lines.append) == 0
        assert len(lines) == len(RULES)
