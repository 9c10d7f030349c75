"""Command-line interface — a thin shell over :mod:`repro.api`.

Installed as the ``qcapsnets`` console script::

    qcapsnets train    --model shallow-small --dataset digits --epochs 6 \
                       --out model.npz
    qcapsnets quantize --model shallow-small --dataset digits \
                       --weights model.npz --tolerance 0.015 \
                       --budget-divisor 5 --scheme RTN --out model.qcn.npz
    qcapsnets select   --model shallow-small --dataset digits \
                       --weights model.npz --schemes TRN RTN SR --workers 3
    qcapsnets evaluate --model shallow-small --dataset digits \
                       --artifact model.qcn.npz
    qcapsnets predict  --artifact model.qcn.npz --num 8
    qcapsnets serve    --artifact model.qcn.npz --artifact alt=other.npz \
                       --port 8080 --max-batch 64 --max-wait-ms 2
    qcapsnets hw-report --model shallow-paper --qw 7 --qa 5 --qdr 3

Every search subcommand accepts ``--spec spec.json`` — a JSON
:class:`~repro.api.QuantSpec` document; explicitly-passed flags override
the spec's fields, which override the built-in defaults.  Each command
builds one :class:`~repro.api.Session` from the resolved spec and calls
the matching session verb; all policy (model/dataset resolution, budget
derivation, cache sharing, worker fan-out) lives in the API layer.

``predict`` runs batched quantized inference straight from a saved
:class:`~repro.api.ModelArtifact` — by default it rebuilds the model
and test split from the artifact's embedded spec provenance, so the
artifact file (plus the trained-weights file it names) is all you need.

Every subcommand is deterministic given ``--seed`` — including under
``--workers``: parallel branches/batches merge in a fixed order, so the
reported models are bit-identical to a sequential run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis import deepcaps_stats, shallowcaps_stats
from repro.analysis.qprove import (
    DEFAULT_ACCUMULATOR_BITS,
    CertificationError,
    certify_artifact,
)
from repro.api import (
    DATASET_CHOICES,
    MODEL_CHOICES,
    ArtifactError,
    ModelArtifact,
    QuantSpec,
    Session,
    SpecError,
)
from repro.api import build_dataset as _api_build_dataset
from repro.api import build_model as _api_build_model
from repro.hw import CapsAccModel, InferenceEnergyModel, MacUnit, UMC65
from repro.quant import QuantizationConfig, QuantizedCapsNet
from repro.quant.rounding import ROUNDING_SCHEMES

SCHEME_CHOICES = tuple(sorted(ROUNDING_SCHEMES))


def build_model(name: str, dataset: str, seed: int = 0):
    """Instantiate a model preset (CLI wrapper: errors exit cleanly)."""
    try:
        return _api_build_model(name, dataset, seed=seed)
    except SpecError as error:
        raise SystemExit(str(error)) from error


def build_dataset(name: str, train_size: int, test_size: int, seed: int,
                  image_size: Optional[int] = None):
    """Generate a synthetic split pair (CLI wrapper: errors exit cleanly)."""
    try:
        return _api_build_dataset(name, train_size, test_size, seed, image_size)
    except SpecError as error:
        raise SystemExit(str(error)) from error


# ----------------------------------------------------------------------
# Spec resolution: built-in defaults < --spec file < explicit flags
# ----------------------------------------------------------------------

#: args attribute -> QuantSpec field for every shared option.
_SPEC_ARG_FIELDS = {
    "model": "model",
    "dataset": "dataset",
    "seed": "seed",
    "test_size": "test_size",
    "train_size": "train_size",
    "weights": "weights",
    "tolerance": "tolerance",
    "budget_mbit": "budget_mbit",
    "budget_divisor": "budget_divisor",
    "workers": "workers",
    "cache_bytes": "cache_bytes",
    "sanitize": "sanitize",
}


def resolve_spec(args, base: Optional[QuantSpec] = None) -> QuantSpec:
    """Fold parsed CLI arguments into a validated :class:`QuantSpec`.

    ``base`` seeds the resolution (e.g. an artifact's provenance spec);
    a ``--spec`` file overrides it, and explicitly-passed flags (parser
    defaults are ``None``) override both.
    """
    spec = base if base is not None else QuantSpec()
    spec_path = getattr(args, "spec", None)
    if spec_path is not None:
        spec = QuantSpec.load(spec_path)
    overrides = {}
    for attr, field in _SPEC_ARG_FIELDS.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field] = value
    scheme = getattr(args, "scheme", None)
    if scheme is not None:
        overrides["schemes"] = (scheme,)
    schemes = getattr(args, "schemes", None)
    if schemes is not None:
        overrides["schemes"] = tuple(schemes)
    return spec.with_overrides(**overrides)


def _require_weights(spec: QuantSpec, command: str) -> None:
    if spec.weights is None:
        raise SystemExit(
            f"{command} needs trained weights: pass --weights or set "
            "\"weights\" in the --spec file (train first with "
            "'qcapsnets train --out model.npz')"
        )


def _report_sidecar(out: str) -> str:
    return os.path.splitext(out)[0] + ".json"


# ----------------------------------------------------------------------
# Subcommands (thin shells over repro.api.Session)
# ----------------------------------------------------------------------
def cmd_train(args) -> int:
    spec = resolve_spec(args)
    session = Session(spec)
    model = session.model
    print(f"training {spec.model} on {spec.dataset} "
          f"({model.num_parameters():,} params, {args.epochs} epochs)")
    history = session.train(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        out=args.out, verbose=True,
    )
    print(f"saved weights to {args.out} "
          f"(test accuracy {history.final_test_accuracy:.2f}%)")
    return 0


def cmd_quantize(args) -> int:
    spec = resolve_spec(args)
    _require_weights(spec, "quantize")
    session = Session(spec)
    fp32_mbit = sum(session.model.layer_param_counts().values()) * 32 / 1e6
    print(f"FP32 accuracy {session.accuracy_fp32():.2f}%, "
          f"weights {fp32_mbit:.3f} Mbit, "
          f"budget {session.budget_mbit():.3f} Mbit, accTOL {spec.tolerance}")

    result = session.quantize()
    print(result.summary())
    print(result.best_model().config.describe())

    if args.out:
        artifact = session.export(result, path=args.out)
        report_path = _report_sidecar(args.out)
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(artifact.meta_dict(), handle, indent=2)
        print(f"saved model artifact to {args.out} "
              f"({artifact.weight_storage_bits() / 1e6:.3f} Mbit of codes; "
              f"report {report_path})")
    return 0


def cmd_select(args) -> int:
    """Sec. III-B rounding-scheme library search (parallel branches)."""
    spec = resolve_spec(args)
    _require_weights(spec, "select")
    session = Session(spec)
    print(f"scheme library {list(spec.schemes)}, "
          f"budget {session.budget_mbit():.3f} Mbit, "
          f"accTOL {spec.tolerance}, workers {spec.workers}")
    outcome = session.select()
    print(outcome.summary())
    for result in outcome.per_scheme.values():
        print()
        print(result.summary())
    return 0


def cmd_evaluate(args) -> int:
    try:
        artifact = ModelArtifact.load(args.artifact)
    except ArtifactError:
        # Legacy bare QuantizedCapsNet archive (pre-artifact format,
        # no provenance): model/dataset come from the flags alone.
        spec = resolve_spec(args)
        session = Session(spec)
        legacy = QuantizedCapsNet.load(args.artifact, session.model)
        images, labels = session.test_data
        accuracy = legacy.accuracy(images, labels, batch_size=spec.batch_size)
        print(f"quantized accuracy on {spec.dataset}: {accuracy:.2f}% "
              f"({legacy.weight_storage_bits() / 1e6:.3f} Mbit of weights)")
        print(legacy.config.describe())
        return 0
    # Like predict: the artifact's spec provenance rebuilds the session
    # (model, dataset, trained weights for any non-frozen parameters —
    # e.g. DeepCaps batch-norm); explicit flags override it.
    base = QuantSpec.from_dict(artifact.spec) if artifact.spec else None
    spec = resolve_spec(args, base=base)
    session = Session(spec)
    accuracy = session.evaluate(artifact)
    print(f"quantized accuracy on {spec.dataset}: {accuracy:.2f}% "
          f"({artifact.weight_storage_bits() / 1e6:.3f} Mbit of weights)")
    print(artifact.summary())
    return 0


def cmd_predict(args) -> int:
    """Batched quantized inference from a saved artifact (no search)."""
    artifact = ModelArtifact.load(args.artifact)
    base = QuantSpec.from_dict(artifact.spec) if artifact.spec else None
    spec = resolve_spec(args, base=base)
    session = Session(spec)
    served = session.serve(artifact, backend=args.backend)
    images, labels = session.test_data
    predictions = served.predict(images)
    shown = min(args.num, len(predictions))
    pairs = " ".join(
        f"{int(pred)}/{int(label)}"
        for pred, label in zip(predictions[:shown], labels[:shown])
    )
    print(f"predictions (pred/label, first {shown}): {pairs}")
    accuracy = 100.0 * float((predictions == labels).mean())
    print(f"served accuracy on {spec.dataset}: {accuracy:.2f}% "
          f"({len(predictions)} samples, batch size {spec.batch_size}, "
          f"backend {served.backend_name})")
    if served.sanitizing:
        report = served.sanitizer_report()
        totals = report["totals"]
        print(f"sanitizer: {totals.get('overflow', 0)} overflow, "
              f"{totals.get('saturated', 0)} saturated, "
              f"{totals.get('nan', 0)} nan "
              f"across {totals.get('elements', 0)} quantized elements")
        if args.sanitizer_report:
            with open(args.sanitizer_report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
            print(f"wrote sanitizer report to {args.sanitizer_report}")
    elif args.sanitizer_report:
        raise SystemExit(
            "error: --sanitizer-report needs --sanitize (or "
            "\"sanitize\": true in the spec/artifact provenance)"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "predictions": [int(p) for p in predictions],
                    "labels": [int(label) for label in labels],
                    "accuracy": accuracy,
                    "artifact": os.fspath(args.artifact),
                },
                handle,
            )
        print(f"wrote predictions to {args.out}")
    return 0


def cmd_certify(args) -> int:
    """Static range certification of a saved artifact (qprove).

    Exit status: 0 when every layer's pre-clip code range fits the
    accumulator width, 1 on a FAIL verdict.
    """
    artifact = ModelArtifact.load(args.artifact)
    base = QuantSpec.from_dict(artifact.spec) if artifact.spec else None
    spec = resolve_spec(args, base=base)
    session = Session(spec)
    try:
        certificate = certify_artifact(
            artifact,
            model=session.model,
            accumulator_bits=args.accumulator_bits,
        )
    except CertificationError as error:
        raise SystemExit(f"error: {error}") from error
    if args.json:
        json.dump(certificate.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(certificate.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(certificate.to_dict(), handle, indent=2)
        if not args.json:
            print(f"wrote certificate to {args.out}")
    if args.update:
        artifact.certificate = certificate.to_dict()
        artifact.save(args.artifact)
        if not args.json:
            print(f"embedded certificate in {args.artifact}")
    return 0 if certificate.passed else 1


def cmd_lower(args) -> int:
    """Static integer lowering of a saved artifact (qlower).

    Exit status: 0 when the plan is lowerable (every op integer-exact,
    shift-rescaled, or approximated with a proven bound), 1 when a
    QL040-series finding blocks lowering.
    """
    from repro.analysis.qlower import LoweringError, lower_artifact

    artifact = ModelArtifact.load(args.artifact)
    base = QuantSpec.from_dict(artifact.spec) if artifact.spec else None
    spec = resolve_spec(args, base=base)
    session = Session(spec)
    try:
        plan = lower_artifact(
            artifact,
            model=session.model,
            accumulator_bits=args.accumulator_bits,
            input_bits=args.input_bits,
        )
    except LoweringError as error:
        raise SystemExit(f"error: {error}") from error
    if args.json:
        json.dump(plan.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(plan.report())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(plan.to_dict(), handle, indent=2)
        if not args.json:
            print(f"wrote lowering plan to {args.out}")
    if args.update:
        artifact.lowering_plan = plan.to_dict()
        artifact.save(args.artifact)
        if not args.json:
            print(f"embedded lowering plan in {args.artifact}")
    return 0 if plan.lowerable else 1


def parse_tenant(spec: str) -> tuple:
    """``[NAME=]PATH`` -> ``(name, path)``; the default name is the file
    stem with the ``.npz`` / ``.qcn`` suffixes stripped."""
    name, _, path = spec.rpartition("=")
    if not name:
        path = spec
        name = os.path.basename(path)
        for suffix in (".npz", ".qcn"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
    return name, path


def parse_tenant_spec(spec: str) -> tuple:
    """``[NAME=]PATH[@BACKEND]`` -> ``(name, path, backend-or-None)``.

    A ``@float`` / ``@int`` suffix pins this tenant's execution backend
    (overriding the daemon-wide ``--backend``); a trailing ``@token``
    that is neither is a usage error unless it looks like part of the
    path (contains ``/`` or ``.``).
    """
    from repro.backend import BACKENDS

    backend = None
    base, sep, suffix = spec.rpartition("@")
    if sep and "/" not in suffix and "." not in suffix:
        if suffix not in BACKENDS:
            raise SystemExit(
                f"error: unknown backend {suffix!r} in --artifact "
                f"{spec!r}; expected one of {', '.join(BACKENDS)}"
            )
        backend = suffix
        spec = base
    name, path = parse_tenant(spec)
    return name, path, backend


def cmd_serve(args) -> int:
    """Long-lived multi-tenant serving daemon over saved artifacts."""
    from repro.serve import ModelRegistry, RegistryError, ServingDaemon

    registry = ModelRegistry(
        max_warm=args.max_warm,
        batch_size=args.batch_size,
        sanitize=args.sanitize,
        require_certified=args.require_certified,
        backend=args.backend,
    )
    for spec in args.artifact:
        name, path, backend = parse_tenant_spec(spec)
        try:
            entry = registry.register(name, path=path, backend=backend)
        except RegistryError as error:
            raise SystemExit(f"error: {error}") from error
        print(f"registered {name!r} from {path} "
              f"(format v{entry.artifact.version}, {entry.artifact.scheme}, "
              f"{entry.artifact.weight_storage_bits() / 1e6:.3f} Mbit, "
              f"backend {entry.backend})")
    try:
        daemon = ServingDaemon(
            registry,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            workers=args.workers,
        )
    except OSError as error:  # e.g. port already in use
        raise SystemExit(
            f"error: cannot bind {args.host}:{args.port}: {error}"
        ) from error
    print(f"serving {len(registry)} model(s) on {daemon.url} "
          f"(workers {daemon.workers}, max-warm {args.max_warm}, "
          f"max-batch {args.max_batch}, max-wait {args.max_wait_ms}ms); "
          f"Ctrl-C to stop")
    daemon.serve_forever()
    return 0


def cmd_lint(args) -> int:
    """qlint: quantization-aware static analysis (the CI gate)."""
    from repro.lint.cli import list_rules, run_lint

    if args.rules:
        return list_rules()
    return run_lint(
        args.paths,
        runtime=args.runtime or (),
        select=args.select,
        ignore=args.ignore,
        json_output=args.json,
    )


def cmd_hw_report(args) -> int:
    stats = (
        deepcaps_stats() if args.model.startswith("deep") else shallowcaps_stats()
    )
    layers = [layer.name for layer in stats.layers]
    config = None
    if args.qw is not None:
        config = QuantizationConfig.uniform(
            layers, qw=args.qw, qa=args.qa, qdr=args.qdr
        )
    print(stats.describe())

    print("\nMAC unit sweep (Fig. 2):")
    for bits in (4, 8, 16, 32):
        mac = MacUnit(bits)
        print(f"  {bits:>2}b: {mac.energy_per_op_pj(UMC65):.3f} pJ, "
              f"{mac.area_um2(UMC65):.0f} um2")

    energy = InferenceEnergyModel(stats.op_counts())
    fp32 = energy.estimate(None)
    print(f"\nFP32 inference energy: {fp32.describe()}")
    if config is not None:
        quant = energy.estimate(config)
        print(f"quantized inference energy: {quant.describe()}")
        print(f"energy reduction: {fp32.total_nj / quant.total_nj:.1f}x")

    timing = CapsAccModel(stats)
    print(f"\nCapsAcc-style timing (FP32):\n{timing.estimate(None).describe()}")
    if config is not None:
        print(f"\nCapsAcc-style timing (quantized):\n"
              f"{timing.estimate(config).describe()}")
        print(f"speedup: {timing.speedup(config):.2f}x")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_common_options(p, with_model: bool = True) -> None:
    """Options shared by every session-backed subcommand.

    Defaults are ``None`` so :func:`resolve_spec` can tell "explicitly
    passed" from "use the spec file / built-in default".
    """
    if with_model:
        p.add_argument("--model", choices=MODEL_CHOICES, default=None,
                       help="model preset (default: shallow-small)")
        p.add_argument("--dataset", choices=DATASET_CHOICES, default=None,
                       help="synthetic dataset (default: digits)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--spec", default=None, metavar="SPEC.JSON",
                   help="JSON QuantSpec file; explicit flags override "
                        "its fields")


def _add_search_options(p) -> None:
    """The search knobs shared verbatim by ``quantize`` and ``select``."""
    group = p.add_argument_group("search options")
    group.add_argument("--weights", default=None,
                       help="trained weights .npz (or set in --spec)")
    group.add_argument("--tolerance", type=float, default=None,
                       help="accTOL, relative accuracy loss "
                            "(default: 0.015)")
    group.add_argument("--budget-mbit", type=float, default=None,
                       help="absolute weight-memory budget in Mbit")
    group.add_argument("--budget-divisor", type=float, default=None,
                       help="derive the budget as FP32 size / divisor "
                            "(default: 5)")
    group.add_argument("--workers", type=int, default=None,
                       help="forked workers for parallel branches/batches "
                            "(bit-identical results; default: 1)")
    group.add_argument("--cache-bytes", type=int, default=None,
                       help="prefix-cache byte budget per search "
                            "process (default: 256 MiB)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcapsnets",
        description="Q-CapsNets: quantize capsule networks (DAC 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an FP32 CapsNet")
    _add_common_options(p_train)
    p_train.add_argument("--train-size", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=6)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--lr", type=float, default=0.005)
    p_train.add_argument("--out", required=True, help="weights .npz path")
    p_train.set_defaults(fn=cmd_train)

    p_quant = sub.add_parser("quantize", help="run the Q-CapsNets framework")
    _add_common_options(p_quant)
    _add_search_options(p_quant)
    p_quant.add_argument("--scheme", default=None, choices=SCHEME_CHOICES,
                         help="rounding scheme (default: RTN)")
    p_quant.add_argument("--out", default=None,
                         help="save the winning model as a versioned "
                              "artifact .npz (+ sidecar .json report)")
    p_quant.set_defaults(fn=cmd_quantize)

    p_select = sub.add_parser(
        "select",
        help="run the Sec. III-B rounding-scheme library search",
    )
    _add_common_options(p_select)
    _add_search_options(p_select)
    p_select.add_argument("--schemes", nargs="+", default=None,
                          choices=SCHEME_CHOICES,
                          help="rounding-scheme library "
                               "(default: RTN TRN SR; paper: TRN RTN SR)")
    p_select.set_defaults(fn=cmd_select)

    p_eval = sub.add_parser(
        "evaluate",
        help="evaluate a saved artifact "
             "(model/dataset default to the artifact's spec provenance)",
    )
    _add_common_options(p_eval)
    p_eval.add_argument("--artifact", required=True)
    p_eval.add_argument("--weights", default=None,
                        help="override the provenance weights path")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_pred = sub.add_parser(
        "predict",
        help="batched quantized inference from a saved artifact "
             "(model/dataset default to the artifact's spec provenance)",
    )
    _add_common_options(p_pred)
    p_pred.add_argument("--artifact", required=True)
    p_pred.add_argument("--weights", default=None,
                        help="override the provenance weights path")
    p_pred.add_argument("--num", type=int, default=8,
                        help="predictions to print (default: 8)")
    p_pred.add_argument("--backend", default=None,
                        choices=["float", "int"],
                        help="execution backend (default: float; 'int' "
                             "runs the certified integer lowering plan "
                             "and requires a certified PASS + lowerable "
                             "artifact)")
    p_pred.add_argument("--out", default=None,
                        help="write predictions as JSON")
    p_pred.add_argument("--sanitize", action="store_true", default=None,
                        help="count per-layer overflow/saturation/NaN "
                             "events (outputs stay bit-identical)")
    p_pred.add_argument("--sanitizer-report", default=None, metavar="PATH",
                        help="write the sanitizer counters as JSON "
                             "(needs --sanitize)")
    p_pred.set_defaults(fn=cmd_predict)

    p_cert = sub.add_parser(
        "certify",
        help="qprove: statically certify an artifact's pre-clip code "
             "ranges and accumulator widths (exit 1 on FAIL)",
    )
    _add_common_options(p_cert)
    p_cert.add_argument("--artifact", required=True)
    p_cert.add_argument("--weights", default=None,
                        help="override the provenance weights path")
    p_cert.add_argument("--accumulator-bits", type=int,
                        default=DEFAULT_ACCUMULATOR_BITS,
                        help="accumulator width the verdict is issued "
                             f"against (default: {DEFAULT_ACCUMULATOR_BITS})")
    p_cert.add_argument("--out", default=None, metavar="PATH",
                        help="write the certificate as JSON")
    p_cert.add_argument("--update", action="store_true",
                        help="embed the certificate back into the "
                             "artifact file")
    p_cert.add_argument("--json", action="store_true",
                        help="print the certificate as JSON instead of "
                             "the report")
    p_cert.set_defaults(fn=cmd_certify)

    p_lower = sub.add_parser(
        "lower",
        help="qlower: prove an artifact's forward pass integer-lowerable "
             "and emit the certified shift/LUT execution plan "
             "(exit 1 when blocked)",
    )
    _add_common_options(p_lower)
    p_lower.add_argument("--artifact", required=True)
    p_lower.add_argument("--weights", default=None,
                         help="override the provenance weights path")
    p_lower.add_argument("--accumulator-bits", type=int,
                         default=DEFAULT_ACCUMULATOR_BITS,
                         help="accumulator width the imported range "
                              "certificate is issued against "
                              f"(default: {DEFAULT_ACCUMULATOR_BITS})")
    p_lower.add_argument("--input-bits", type=int, default=8,
                         help="input pixel grid fed to the integer "
                              "datapath (default: 8)")
    p_lower.add_argument("--out", default=None, metavar="PATH",
                         help="write the lowering plan as JSON")
    p_lower.add_argument("--update", action="store_true",
                         help="embed the plan back into the artifact file")
    p_lower.add_argument("--json", action="store_true",
                         help="print the plan as JSON instead of the "
                              "report")
    p_lower.set_defaults(fn=cmd_lower)

    p_serve = sub.add_parser(
        "serve",
        help="serve saved artifacts over HTTP (warm sessions, "
             "micro-batched requests, LRU eviction of cold tenants)",
    )
    p_serve.add_argument(
        "--artifact", action="append", required=True,
        metavar="[NAME=]PATH[@BACKEND]",
        help="artifact to serve; repeat for multiple tenants "
             "(name defaults to the file stem; a @float/@int suffix "
             "pins this tenant's execution backend)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="0 picks an ephemeral port")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="sample cap per coalesced forward "
                              "(default: 64)")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="micro-batch gathering window (default: 2)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="long-lived executor processes to fan "
                              "batches across (1 = in-process; >1 "
                              "requires fork and degrades to 1 without "
                              "it; results are bit-identical either way)")
    p_serve.add_argument("--max-warm", type=int, default=4,
                         help="tenants kept warm at once; colder ones "
                              "re-bind on demand (default: 4)")
    p_serve.add_argument("--batch-size", type=int, default=None,
                         help="inference batch size override "
                              "(default: each artifact's spec)")
    p_serve.add_argument("--sanitize", action="store_true", default=None,
                         help="run every tenant under the fixed-point "
                              "sanitizer; counters appear in /healthz")
    p_serve.add_argument("--require-certified", action="store_true",
                         help="refuse artifacts without a passing qprove "
                              "range certificate (see 'qcapsnets certify')")
    p_serve.add_argument("--backend", default=None,
                         choices=["float", "int"],
                         help="default execution backend for every tenant "
                              "(default: float; int tenants must be "
                              "certified PASS and lowerable)")
    p_serve.set_defaults(fn=cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="quantization-aware static analysis "
             "(stage deps, determinism, serve locking; exit 0 clean, "
             "1 on findings, 2 on usage errors)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="directories or .py files to analyze (default: src)",
    )
    p_lint.add_argument(
        "--runtime", action="append", default=None, metavar="FILE.PY",
        help="also import FILE.PY and run its main() under the "
             "fixed-point sanitizer; hazard events become findings",
    )
    p_lint.add_argument("--rules", action="store_true",
                        help="list the rule ids and exit")
    p_lint.add_argument("--select", nargs="+", default=None, metavar="QLxxx",
                        help="only report these rule ids "
                             "(unknown ids exit 2)")
    p_lint.add_argument("--ignore", nargs="+", default=None, metavar="QLxxx",
                        help="drop these rule ids (wins over --select)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text "
                             "(findings + rule ids; no trailer line)")
    p_lint.set_defaults(fn=cmd_lint)

    p_hw = sub.add_parser("hw-report", help="hardware energy/latency report")
    p_hw.add_argument("--model", choices=["shallow-paper", "deep-paper"],
                      default="shallow-paper")
    p_hw.add_argument("--qw", type=int, default=None)
    p_hw.add_argument("--qa", type=int, default=None)
    p_hw.add_argument("--qdr", type=int, default=None)
    p_hw.set_defaults(fn=cmd_hw_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ArtifactError) as error:
        raise SystemExit(f"error: {error}") from error


if __name__ == "__main__":
    sys.exit(main())
