"""Command line entry point.

Subcommands: ``run`` executes an attack scenario against topology, policy and
signature files and exits 0 only if the scenario's own oracle passes;
``bench`` sweeps the flow-setup and signature-latency benchmarks; ``ml``
trains and evaluates the traffic classifiers; ``audit`` compares one switch
against its trusted state.  All randomness funnels through ``--seed`` and
every output set is written next to a run manifest, so any result can be
reproduced from its manifest alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .anomaly import (
    DecisionTree,
    EqualFrequencyBinner,
    NaiveBayesClassifier,
    evaluate,
    load_csv,
    select_features,
    synthetic_flow_dataset,
    train_test_split,
)
from .anomaly.data import Dataset
from .fabric import UnknownNodeError, report_flow_rules
from .scenarios import (
    SCENARIO_IDS,
    bench_flow_setup,
    bench_signature_latency,
    build_world,
    run_scenario,
)
from .security_functions import render_audit_diff

EXIT_OK = 0
EXIT_ORACLE_FAILED = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(ValueError):
    pass


def _read_json(path: str, what: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = os.environ.get("SLICE_SENTINEL_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, args) -> None:
    """Record the command, its seed and every other option it was given."""
    manifest = {
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("fn", "command", "seed", "out")},
        "seed": args.seed,
        "out": str(out),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _emit_events(out: Path, events: list, verbose: bool) -> None:
    lines = [json.dumps(e, sort_keys=True) for e in events]
    (out / "events.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    if verbose:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    config: dict = {}
    if args.topology:
        config["topology"] = _read_json(args.topology, "topology")
    if args.policies:
        config["policies"] = _read_json(args.policies, "policies")
    if args.signatures is not None:
        config["signatures"] = _read_json(args.signatures, "signatures")
    if args.scenario_config:
        extra = _read_json(args.scenario_config, "scenario config")
        if not isinstance(extra, dict):
            raise ConfigError(f"scenario config file {args.scenario_config} must hold a JSON object")
        config.update(extra)

    report = run_scenario(args.scenario, config=config, seed=args.seed)
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    _write_manifest(out, args)
    events = list(report.alerts) + list(report.details.get("admin_alerts", []))
    _emit_events(out, events, args.verbose)
    print(f"{args.scenario}: {'PASS' if report.verdict else 'FAIL'} "
          f"(packets={report.packets}, report={out / 'report.json'})")
    return EXIT_OK if report.verdict else EXIT_ORACLE_FAILED


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _int_list(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma separated integer list, got {raw!r}") from exc


def cmd_bench(args) -> int:
    if args.kind == "flow-setup":
        report = bench_flow_setup(
            sizes=tuple(_int_list(args.sizes)),
            security=args.security,
            runs=args.runs,
            seed=args.seed,
        )
    else:
        report = bench_signature_latency(
            counts=tuple(_int_list(args.counts)),
            runs=args.runs,
            packets=args.packets,
            seed=args.seed,
        )
    out = _out_dir(args)
    (out / "bench.json").write_text(report.to_json(), encoding="utf-8")
    (out / "bench.csv").write_text(report.to_csv(), encoding="utf-8")
    _write_manifest(out, args)
    print(f"bench {args.kind}: {len(report.entries)} rows written to {out / 'bench.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ml
# ---------------------------------------------------------------------------

def _parse_selector(raw: str) -> tuple[str, int]:
    name, _, k_raw = raw.partition(":")
    mapping = {"chi": "chi2", "chi2": "chi2", "ensemble": "ensemble"}
    if name not in mapping or not k_raw:
        raise ConfigError(f"selector must look like chi:K or ensemble:K, got {raw!r}")
    try:
        k = int(k_raw)
    except ValueError as exc:
        raise ConfigError(f"selector k must be an integer, got {k_raw!r}") from exc
    return mapping[name], k


def cmd_ml(args) -> int:
    if args.classifier == "nb":
        if args.max_depth is not None:
            raise ConfigError("--max-depth applies only to --classifier dt")
        model = NaiveBayesClassifier()
    else:  # dt
        model = DecisionTree(max_depth=args.max_depth)
    if args.dataset:
        dataset = load_csv(args.dataset) if Path(args.dataset).exists() else None
        if dataset is None:
            raise ConfigError(f"dataset file not found: {args.dataset}")
        source = args.dataset
    else:
        dataset = synthetic_flow_dataset(n_rows=args.rows, seed=args.seed)
        source = "synthetic"

    train, test = train_test_split(dataset, test_fraction=args.test_fraction, seed=args.seed)
    binner = EqualFrequencyBinner(n_bins=args.bins).fit(train.features)
    train_binned = Dataset(binner.transform(train.features), train.labels, train.feature_names)
    test_binned = Dataset(binner.transform(test.features), test.labels, test.feature_names)

    selected = list(range(dataset.arity))
    selector = None
    if args.select:
        method, k = _parse_selector(args.select)
        selected = select_features(
            train_binned.features, train_binned.labels, k=k, method=method, seed=args.seed
        )
        selector = {"method": method, "k": k}
        train_binned = train_binned.select_columns(selected)
        test_binned = test_binned.select_columns(selected)

    model.fit(train_binned.features, train_binned.labels)
    metrics = evaluate(model, test_binned)
    out = _out_dir(args)
    payload = {
        "classifier": args.classifier,
        "selector": selector,
        "selected_features": [dataset.feature_names[i] for i in selected],
        "dataset": source,
        "rows": {"train": train.n_rows, "test": test.n_rows},
        "metrics": metrics.to_dict(),
    }
    (out / "metrics.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "roc.csv").write_text(metrics.roc_csv(), encoding="utf-8")
    _write_manifest(out, args)
    print(f"ml {args.classifier}: accuracy={metrics.accuracy:.3f} "
          f"tpr={metrics.tpr} fpr={metrics.fpr} (metrics={out / 'metrics.json'})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    manager = build_world(
        {
            "topology": _read_json(args.topology, "topology") if args.topology else None,
            "policies": _read_json(args.policies, "policies") if args.policies else None,
            "signatures": [],
        },
        args.seed,
    )
    if args.node not in manager.fabric.nodes:
        raise ConfigError(f"node {args.node!r} is not in the topology")
    # The diff shows the switch as observed, before the audit restores it.
    # A clean audit found the trusted rules equal to the observed ones; a
    # mismatch raised an admin alert that carries the diff.
    observed = report_flow_rules(manager.fabric, args.node)
    result = manager.audit_now(args.node)
    diff = (render_audit_diff(observed, observed) if result.clean
            else manager.admin_alerts[-1]["diff"])
    out = _out_dir(args)
    (out / "audit.json").write_text(
        json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "audit_diff.txt").write_text(
        diff + "\n", encoding="utf-8"
    )
    manager.log.save(out / "activity.jsonl")
    _write_manifest(out, args)
    _emit_events(out, manager.admin_alerts, args.verbose)
    print(f"audit {args.node}: {'clean' if result.clean else 'MISMATCH'} "
          f"(extra={len(result.extra_rules)}, missing={len(result.missing_rules)})")
    return EXIT_OK if result.clean else EXIT_ORACLE_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slice-sentinel",
        description="Deterministic 5G slice fabric simulator with a controller-hosted "
                    "security manager: attack scenarios, benchmarks and classifier evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one attack scenario and judge it")
    run_p.add_argument("scenario", choices=SCENARIO_IDS)
    run_p.add_argument("--topology", help="topology JSON (default: bundled)")
    run_p.add_argument("--policies", help="policy JSON (default: bundled)")
    run_p.add_argument("--signatures", help="signature JSON (default: bundled)")
    run_p.add_argument("--scenario-config", help="extra scenario parameter JSON")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--verbose", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    bench_p = sub.add_parser("bench", help="run a benchmark sweep")
    bench_p.add_argument("kind", choices=("flow-setup", "signatures"))
    bench_p.add_argument("--sizes", default="100,200,300,400,500",
                         help="fleet sizes for flow-setup")
    bench_p.add_argument("--counts", default="0,10,100,1000",
                         help="signature set sizes for signatures")
    bench_p.add_argument("--security", choices=("on", "off", "both"), default="both")
    bench_p.add_argument("--runs", type=int, default=10)
    bench_p.add_argument("--packets", type=int, default=100)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", default="out")
    bench_p.set_defaults(fn=cmd_bench)

    ml_p = sub.add_parser("ml", help="train and evaluate a traffic classifier")
    source = ml_p.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="CSV with feature columns and a label column")
    source.add_argument("--synthetic", action="store_true",
                        help="use the seeded synthetic flow dataset (default)")
    ml_p.add_argument("--classifier", choices=("nb", "dt"), default="nb")
    ml_p.add_argument("--select", help="feature selection, e.g. chi:5 or ensemble:5")
    ml_p.add_argument("--bins", type=int, default=10)
    ml_p.add_argument("--rows", type=int, default=2000, help="synthetic dataset size")
    ml_p.add_argument("--test-fraction", type=float, default=0.3)
    ml_p.add_argument("--max-depth", type=int, default=None)
    ml_p.add_argument("--seed", type=int, default=0)
    ml_p.add_argument("--out", default="out")
    ml_p.set_defaults(fn=cmd_ml)

    audit_p = sub.add_parser("audit", help="audit one switch against its trusted state")
    audit_p.add_argument("--node", required=True)
    audit_p.add_argument("--topology", help="topology JSON (default: bundled)")
    audit_p.add_argument("--policies", help="policy JSON (default: bundled)")
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.add_argument("--out", default="out")
    audit_p.add_argument("--verbose", action="store_true")
    audit_p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnknownNodeError as exc:
        print(f"error: the topology has no node {exc.args[0]!r}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
