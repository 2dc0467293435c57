"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip-n1000 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

Run it from the root of a checkout: the library is imported from ``src/``
next to this directory, never from an installed copy.  With ``--trace 0`` the
last line of stdout is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  A readable
table goes to stderr, and the result (plus, when traced, every span) is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

BIJECTION = ("bijection.path_to_tree", "bijection.tree_to_path")
BUSY = (
    "dyck.parse_path", "dyck.steps", "dyck.random_path", "dyck.decompose_path",
    "dyck.compose_path",
    "tree.parse_tree", "tree.tree_to_text", "tree.refined_hs", "tree.decompose_tree",
    "tree.compose_tree",
    "enumeration.all_dyck_paths", "enumeration.all_full_binary_trees",
    "enumeration.histogram_by_height", "enumeration.histogram_by_refined_hs",
    "enumeration.histogram_by_classical_hs", "enumeration.bijection_pass",
    "cli.main",
)
COUNTS = {  # counter name -> unit
    "dyck.frames": "count",
    "dyck.sliced_elements": "count",
    "enumeration.objects": "count",
    "cli.output_bytes": "bytes",
}


def per_layer_units() -> dict:
    units = {}
    for name in BIJECTION:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.nodes_per_s": "1/s"})
    units.update({f"{name}.busy_s": "s" for name in BUSY})
    units.update(COUNTS)
    units.update({"cli.self_s": "s", "trace.overhead_s": "s"})
    return units


def import_library():
    """Import ``strahler`` from SRC, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import strahler
    import strahler.cli

    if Path(strahler.__file__).resolve().parent != (SRC / "strahler").resolve():
        raise SystemExit(f"error: strahler imported from {strahler.__file__}, not from {SRC}")
    return strahler


def cold_setups(workload: str, seed: int) -> list[float]:
    """Seconds of SETUP_REPEATS cold set-ups, each in a fresh interpreter
    started one after another, so each pays the first import of ``strahler``."""
    script = str(HERE / "cold_setup.py")
    return [
        float(subprocess.run([sys.executable, script, workload, str(seed)],
                             check=True, capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]


class Rounds:
    """Latency samples and outcome counts of whole rounds of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.walls: list[float] = []  # per round: the sum of its timed calls
        self.tails: list[float] = []  # per round: round_tail of its operations
        self.by_label: dict[str, list[float]] = {}
        self.items = self.attempted = self.failed = 0

    def record(self, label: str, seconds: float, items: int, ok: bool) -> None:
        self.latencies.append(seconds)
        self.by_label.setdefault(label, []).append(seconds)
        self.items += items
        self.attempted += 1
        self.failed += not ok

    def run(self, workload, tracer: Tracer) -> None:
        gc.collect()
        first = len(self.latencies)
        workload.round(tracer, self.record)
        self.walls.append(sum(self.latencies[first:]))
        self.tails.append(round_tail(self.latencies[first:]))


def round_tail(samples: list[float]) -> float:
    """The highest whole percentile with at least ten samples beyond it; the
    slowest sample when there are fewer than 40."""
    if len(samples) < 40:
        return max(samples)
    p = min(99, math.floor(100 - 1000 / len(samples)))
    return statistics.quantiles(samples, n=100)[p - 1]


def measure(workload, seconds: float, traced: bool):
    """Whole rounds, at least one, while the next one would still end within
    ``seconds`` if it took as long as the longest so far.  A traced run
    alternates an untraced and a traced round, so both see the same
    conditions."""
    plain, spanned = Rounds(), Rounds()
    tracer = Tracer(True)
    off = Tracer(False)
    longest = 0.0
    start = perf_counter()
    while True:
        begun = perf_counter()
        plain.run(workload, off)
        if traced:
            spanned.run(workload, tracer)
        now = perf_counter()
        longest = max(longest, now - begun)
        if now - start + longest > seconds:
            break
    return plain, spanned, tracer


def end_to_end_metrics(rounds: Rounds, setups: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds.walls),
        "items_per_s": rounds.items / sum(rounds.walls),
        "latency_p50_ms": statistics.median(rounds.latencies) * 1000,
        "latency_tail_ms": statistics.median(rounds.tails) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer: Tracer, probes: Tracer, plain: Rounds, spanned: Rounds) -> dict:
    """Per traced round plus one set of probes, so the figures do not grow
    with the number of rounds that fit in a run."""
    rounds = len(spanned.walls)

    def busy(name):
        return tracer.busy(name) / rounds + probes.busy(name)

    def count(name):
        return tracer.counts.get(name, 0) / rounds + probes.counts.get(name, 0)

    values = {}
    for name in BIJECTION:
        values[f"{name}.calls"] = tracer.calls(name) / rounds + probes.calls(name)
        values[f"{name}.busy_s"] = busy(name)
        values[f"{name}.nodes_per_s"] = count(name + ".nodes") / busy(name) if busy(name) else 0.0
    for name in BUSY:
        values[f"{name}.busy_s"] = busy(name)
    for name in COUNTS:
        values[name] = count(name)
    values["cli.self_s"] = busy("cli.main") - busy("cli.library")
    values["trace.overhead_s"] = statistics.mean(spanned.walls) - statistics.mean(plain.walls)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def run_one(args) -> int:
    if not (SRC / "strahler" / "__init__.py").is_file():
        print(f"error: no library at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop("STRAHLER_JOBS", None)  # every workload is serial
    setups = [] if args.trace else cold_setups(args.workload, args.seed)
    workload = WORKLOADS[args.workload]()
    workload.setup(import_library(), args.seed)
    workload.prepare()
    # GC policy: default thresholds, collector on.  Set-up objects are frozen
    # out of later collections and each round starts from a collected heap.
    gc.collect()
    gc.freeze()
    workload.warmup()
    plain, spanned, tracer = measure(workload, args.seconds, args.trace)
    if args.trace:
        probes = Tracer(True)
        workload.probe(probes)
        metrics = per_layer_metrics(tracer, probes, plain, spanned)
    else:
        metrics = end_to_end_metrics(plain, setups)
    attempted = plain.attempted + spanned.attempted
    failed = plain.failed + spanned.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    operations = {label: statistics.median(s) for label, s in plain.by_label.items()}
    details = {"operation_median_s": operations, "setup_runs_s": setups,
               "round_walls_s": plain.walls, "round_tails_s": plain.tails}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, **details}, indent=1) + "\n")
    if args.trace:
        spans = {"rounds": len(spanned.walls), "spans": tracer.spans, "counts": tracer.counts,
                 "probe_spans": probes.spans, "probe_counts": probes.counts}
        (OUT / f"trace-{tag}.json").write_text(json.dumps(spans) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload:>16} {name:<44} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload:>16} attempted {attempted} failed {failed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory belongs to one workload."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
