#!/usr/bin/env python3
"""Wall-clock benchmark of slice-sentinel, driven as a library.

    python3 perfbench/run.py --workload steady-datapath --seed 0 --seconds 15 --trace 0

One single-threaded closed loop with one caller: every call into the package
returns before the next is made.  A run repeats rounds (fresh set-up, then
timed work) until at least ``--seconds`` of timed work is done.  With
``--trace 0`` it reports end-to-end metrics; with ``--trace 1`` it runs
untraced for a third of the time and traced for the rest, and reports
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SPANS_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
MIN_ROUNDS = 3  # per kind of round, so that set-up has a median
REF_PROBE_S = 0.00143  # median workloads.host_probe() time on the recorded machine
MAX_ROUNDS = 64  # caps set-up work when a round takes far less than --seconds


def import_package():
    if not (SRC / "slice_sentinel" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import slice_sentinel

    if Path(slice_sentinel.__file__).resolve().parent != SRC / "slice_sentinel":
        sys.exit(f"perfbench: imported slice_sentinel from {slice_sentinel.__file__}, not {SRC}")


import_package()

import numpy  # noqa: E402  (after the package path is set)
import cryptography  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def machine_record() -> str:
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"cryptography {cryptography.__version__}, nproc {os.cpu_count()}, "
            f"{platform.system()} {platform.machine()}")


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_rounds(wl, seed: int, seconds: float, tracer, min_rounds: int, profiler=None) -> tuple:
    """Repeat set-up + timed round until enough timed work is done."""
    rounds, setups = [], []
    while True:
        gc.collect()
        next_op, tracer.op = tracer.op, 0  # set-up spans carry id 0
        start = time.perf_counter()
        world = wl.setup(seed, len(rounds))
        setups.append(time.perf_counter() - start)
        tracer.op = next_op
        if profiler is not None:
            profiler.enable()
        rnd = wl.run(world, tracer)
        if profiler is not None:
            profiler.disable()
        traced, tracer.enabled = tracer.enabled, False  # checks are not layer work
        wl.finish(world, rnd)
        tracer.enabled = traced
        rnd.log_entries = len(world.mgr.log) if world.mgr is not None else 0
        rnd.max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append(rnd)
        del world
        timed = sum(r.timed_s for r in rounds)
        whole = len(rounds) % wl.period == 0
        if whole and ((timed >= seconds and len(rounds) >= min_rounds) or len(rounds) >= MAX_ROUNDS):
            return rounds, setups


def check_digests(wl, rounds: list, seed: int, size: str) -> tuple:
    """Every round at the same position in the period must agree; the run's
    digest must match the recorded one for the default seed."""
    problems = []
    per_position = []
    for position in range(wl.period):
        seen = {r.digest() for r in rounds[position::wl.period]}
        if len(seen) != 1:
            problems.append(f"rounds at position {position} gave {len(seen)} different digests")
        per_position.append(sorted(seen)[0])
    digest = hashlib.sha256("|".join(per_position).encode()).hexdigest()
    recorded = None
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(size, {}).get(wl.name)
        if recorded != digest:
            problems.append(f"digest {digest[:16]} does not match the recorded {str(recorded)[:16]}")
    return digest, recorded, problems


def totals(rounds: list) -> dict:
    failures = {}
    for r in rounds:
        for kind, n in r.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": failures,
        "violations": [v for r in rounds for v in r.violations],
        "timed_s": sum(r.timed_s for r in rounds),
    }


def host_factor(rounds: list) -> float:
    """Reference probe time ÷ the run's median probe time: below 1 when the
    host ran slower than the recorded machine usually does."""
    return REF_PROBE_S / statistics.median(p for r in rounds for p in r.probes)


def figures(wl, rounds: list) -> dict:
    """Operations, timed seconds and per-operation samples, scaled to the
    reference host speed."""
    factor = host_factor(rounds)
    if wl.op_is_round:
        ops, samples = len(rounds), [r.timed_s for r in rounds]
    else:
        ops, samples = sum(r.ops for r in rounds), [x for r in rounds for x in r.samples]
    timed = sum(r.timed_s for r in rounds)
    return {
        "factor": factor,
        "ops": ops,
        "ops_per_s": ops / (timed * factor),
        "samples": [x * factor for x in samples],
        "raw_ops_per_s": ops / timed,
        "raw_p50_s": statistics.median(samples),
    }


def end_to_end(wl, rounds: list, setups: list) -> tuple[dict, list]:
    """The gated metrics (same names on every workload) and the report lines
    under the workload's own names."""
    fig = figures(wl, rounds)
    factor, samples, ops_per_s = fig["factor"], fig["samples"], fig["ops_per_s"]
    n = len(samples)
    p50_ms = statistics.median(samples) * 1e3
    metrics = {
        "setup_s": (statistics.median(setups) * factor, "s"),
        # Taken after a fixed number of rounds: later rounds add a little
        # (kept samples, fragmentation), and their number depends on host speed.
        "peak_rss_mb": (rounds[MIN_ROUNDS * wl.period - 1].max_rss_kb / 1024, "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_ms_p50": (p50_ms, "ms"),
    }
    lines = []
    if wl.name == "fleet-setup":
        lines.append(f"flows_per_s          {ops_per_s:.1f} 1/s (n={fig['ops']} flows)")
        for position, label in ((0, "on "), (1, "off")):
            part = figures(wl, rounds[position::2])
            lines.append(f"  security {label}        {part['ops_per_s']:.1f} 1/s")
        lines.append(f"flow_setup_ms_p50    {p50_ms:.4f} ms (n={n})")
        lines.append(f"flow_setup_ms_p99    {percentile(samples, 99) * 1e3:.4f} ms (n={n})")
    elif wl.name == "steady-datapath":
        lines.append(f"packets_per_s        {ops_per_s:.1f} 1/s (n={fig['ops']} packets)")
        lines.append(f"packet_us_p50        {p50_ms * 1e3:.2f} us (n={n})")
        lines.append(f"packet_us_p99        {percentile(samples, 99) * 1e6:.2f} us (n={n})")
    elif wl.name == "audit-churn":
        lines.append(f"audits_per_s         {ops_per_s:.2f} 1/s (n={fig['ops']} switch audits)")
        lines.append(f"tick_ms_p50          {p50_ms:.2f} ms (n={n} ticks)")
    else:
        lines.append(f"ml_pass_s_p50        {p50_ms / 1e3:.4f} s (n={n} passes)")
    lines.append(f"setup_s              {metrics['setup_s'][0]:.4f} s (median of {len(setups)} set-ups)")
    lines.append(f"peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB")
    t = totals(rounds)
    ratio = t["failed"] / t["attempted"] if t["attempted"] else 0.0
    lines.append(f"ops_failed_ratio     {ratio:.6f} ({t['failed']} failed / {t['attempted']} attempted)"
                 + (f" by type {t['failures']}" if t["failures"] else ""))
    lines.append(f"host speed factor    {factor:.4f} (reference probe {REF_PROBE_S * 1e3:.2f} ms / "
                 f"run median {REF_PROBE_S / factor * 1e3:.3f} ms); times above are scaled by it")
    lines.append(f"unscaled             {fig['raw_ops_per_s']:.2f} {wl.op_name}/s, "
                 f"median {fig['raw_p50_s'] * 1e3:.4f} ms, setup {statistics.median(setups):.4f} s")
    return metrics, lines


def run_workload(name: str, args) -> dict:
    wl = workloads.WORKLOADS[name](workloads.SIZES[args.size])
    tracer = tracing.Tracer()
    if args.trace:
        # Untraced reference first, then the traced rounds; overhead is the
        # ratio of wall clock per operation between the two.
        plain, plain_setups = run_rounds(wl, args.seed, args.seconds / 3, tracer, 2 * wl.period)
        restore = tracing.install(tracer)
        tracer.enabled = True
        try:
            traced, _ = run_rounds(wl, args.seed, args.seconds * 2 / 3, tracer, 2 * wl.period)
        finally:
            tracer.enabled = False
            restore()
        rounds = plain + traced
        p, q = figures(wl, plain), figures(wl, traced)
        overhead = p["ops_per_s"] / q["ops_per_s"]
        metrics = tracing.layer_metrics(tracer, traced[-1].log_entries)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["trace.spans"] = (len(tracer), "count")
        # The untraced rounds without host scaling, beside the factor that
        # the end-to-end metrics are scaled by.
        metrics["host.speed_factor"] = (p["factor"], "ratio")
        metrics["host.ops_per_s_unscaled"] = (p["raw_ops_per_s"], "1/s")
        metrics["host.latency_ms_p50_unscaled"] = (p["raw_p50_s"] * 1e3, "ms")
        metrics["host.setup_s_unscaled"] = (statistics.median(plain_setups), "s")
        lines = [f"traced rounds {len(traced)}, untraced rounds {len(plain)}, "
                 f"{len(tracer)} spans, tracing overhead x{overhead:.3f}"]
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{name}.npz"
        tracer.save(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        profiler = cProfile.Profile() if args.profile else None
        rounds, setups = run_rounds(wl, args.seed, args.seconds, tracer, MIN_ROUNDS * wl.period, profiler)
        metrics, lines = end_to_end(wl, rounds, setups)
        if profiler is not None:
            profiler.dump_stats(args.profile)
            lines.append(f"cProfile stats of the timed rounds written to {args.profile}")

    # Traced rounds repeat the untraced ones, so the digest check covers both.
    digest, recorded, problems = check_digests(wl, rounds, args.seed, args.size)
    t = totals(rounds)
    problems = t["violations"] + problems
    header = (f"== {name}  seed={args.seed} size={args.size} rounds={len(rounds)} "
              f"timed_s={t['timed_s']:.2f} digest={digest}"
              + ("" if recorded is None else " (recorded: " + ("match" if recorded == digest else "MISMATCH") + ")"))
    print(header)
    for line in lines:
        print("  " + line)
    for problem in problems[:20]:
        print("  INCORRECT: " + problem)
    return {
        "correct": not problems,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_each(names: list, args) -> dict:
    """Run every workload in a process of its own, so that each one's
    ``peak_rss_mb`` is its own; returns the results by workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"perfbench: {name} printed no result (exit {proc.returncode})\n{proc.stderr}")
        for line in lines[1:-1]:  # the machine line is printed once, by the caller
            print(line)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    parser.add_argument("--profile", metavar="PATH",
                        help="dump cProfile stats of the timed rounds (untraced runs only)")
    args = parser.parse_args(argv)
    if args.profile and (args.trace or args.workload == "all"):
        parser.error("--profile takes one named workload and --trace 0")

    print(f"machine: {machine_record()}")
    if args.workload != "all":
        result = run_workload(args.workload, args)
    else:
        results = run_each(sorted(workloads.WORKLOADS), args)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
