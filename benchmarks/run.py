"""germforge benchmark: one command for the end-to-end and the per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  `--trace 0` measures with tracing off and reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics.  A run starts no pass that would end past
`--seconds`, judged by the previous one.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Workloads and metrics are explained in
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_RUNS = 9  # fewest fresh interpreters per run; setup_s is their median
SETUP_PER_PASS = 2
MIN_PASSES = 3


def per_layer_names(workload: str) -> list[tuple[str, str]]:
    """(metric, unit) reported by a traced run, in print order."""
    from harness import WORKLOADS, SEEDED

    out = []

    def layer(name, *extra):
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out.extend(extra)

    layer("cyclo.mul", ("cyclo.mul.operand_bits_max", "bits"))
    layer("cyclo.addsub")
    layer("cyclo.inverse", ("cyclo.inverse.float_results", "count"))
    for name in ("construct", "mat_det", "compose", "invert", "power", "germ_order", "eq_hash"):
        layer(f"jets.{name}")
    layer("groupkit.bfs_ball",
          ("groupkit.bfs_ball.elements", "count"), ("groupkit.bfs_ball.distinct_ratio", "1"))
    layer("groupkit.find_conjugacy_witness",
          *[(f"groupkit.find_conjugacy_witness.{s}", "count")
            for s in ("witness", "disproved", "unresolved")],
          ("groupkit.find_conjugacy_witness.scanned_frac", "1"))
    layer("groupkit.closure_enumerate",
          ("groupkit.closure_enumerate.elements", "count"),
          ("groupkit.closure_enumerate.new_per_compose", "1"))
    for name in ("is_cyclic", "linearize_group", "check_basic_set"):
        layer(f"groupkit.{name}")
    layer("resonance.homological_solve")
    layer("moebius.holonomy_check")
    layer("moebius.moebius_compose")
    layer("moebius.cyclo_sqrt", ("moebius.cyclo_sqrt.none", "count"))
    layer("documents.parse_document")
    corpus_entries = sorted({e for w, es in WORKLOADS.items() if w not in SEEDED for e in es})
    out += [(f"cli.run_corpus_entry.s.{e}", "s") for e in corpus_entries]
    if workload in SEEDED:
        out += [(f"conjugated.s.{e}", "s") for e in WORKLOADS[workload]]
    out += [("trace.overhead_frac", "1"), ("failed_frac", "1")]
    return out


def tail_percentile(samples: list[float]):
    """(p, value) for the highest percentile with at least ten samples above it, or None."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100 * k // len(ordered), ordered[k - 1]


def measure_setup(payload: str) -> tuple[float, float]:
    """(import seconds, parse seconds) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        input=payload, capture_output=True, text=True, timeout=60, check=True,
    )
    times = json.loads(proc.stdout)
    return times["import_s"], times["parse_s"]


class Tally:
    """Checks attempted and failed across every pass of a run."""

    def __init__(self, verifier):
        self.verifier = verifier
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, outcome) -> bool:
        attempted, failures = self.verifier.verify(outcome)
        self.attempted += attempted
        self.failures += failures
        return not failures


def end_to_end(docs, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    from harness import run_pass

    payload = json.dumps([d.text for d in docs])
    setups = []
    clean, all_passes = [], []
    deadline = time.perf_counter() + seconds
    step = 0.0
    while len(all_passes) < MIN_PASSES or time.perf_counter() + step < deadline:
        begin = time.perf_counter()
        # fresh interpreters between passes spread set-up samples over the run
        setups += [measure_setup(payload) for _ in range(SETUP_PER_PASS)]
        outcome = run_pass(docs)
        all_passes.append(outcome.seconds)
        if tally.add(outcome):
            clean.append(outcome.seconds)
        step = time.perf_counter() - begin
    while len(setups) < SETUP_RUNS:
        setups.append(measure_setup(payload))
    imports, parses = zip(*setups)
    setup = [i + p for i, p in setups]
    timed = clean or all_passes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "pass_s": (statistics.median(timed), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    tail = tail_percentile(timed)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has ten samples above it"
    notes = [
        f"pass_s: median of {len(timed)} verified passes ({len(all_passes)} run); {tail_text}",
        f"setup_s: median of {len(setups)} fresh interpreters; import "
        f"{statistics.median(imports):.4f} s, parse {statistics.median(parses):.4f} s",
        "peak_rss_mb: peak resident memory of the process that ran the passes",
    ]
    return metrics, notes


def per_layer(workload: str, docs, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    from harness import SEEDED, run_pass
    from tracer import Tracer, merge_passes

    untraced, traced, layers = [], [], []
    first_requests = None
    entry_seconds: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    step = 0.0
    while not layers or time.perf_counter() + step < deadline:
        begin = time.perf_counter()
        outcome = run_pass(docs)
        if tally.add(outcome):
            untraced.append(outcome.seconds)
            for name, s in outcome.entry_seconds.items():
                entry_seconds.setdefault(name, []).append(s)
        tracer = Tracer()
        with tracer:
            outcome = run_pass(docs, tracer)
        if tally.add(outcome):
            traced.append(outcome.seconds)
        layers.append(tracer.reduce())
        first_requests = first_requests or tracer.request_s
        del tracer  # frees the spans before the next untraced pass
        step = time.perf_counter() - begin
    values = merge_passes(layers)
    prefix = "conjugated.s." if workload in SEEDED else "cli.run_corpus_entry.s."
    for name, samples in entry_seconds.items():
        values[prefix + name] = statistics.median(samples)
    if untraced and traced:
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    values["failed_frac"] = len(tally.failures) / tally.attempted
    metrics = {name: (values.get(name, 0), unit) for name, unit in per_layer_names(workload)}
    notes = [
        f"{len(layers)} traced and {len(layers)} untraced passes; counts are per pass "
        "(first traced pass), times are per-pass medians",
    ]
    notes += [f"request {name or '(none)'} {seconds:.4f} s traced"
              for name, seconds in first_requests.most_common(8)]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="germforge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "germforge" / "__init__.py").is_file():
        print(f"error: no germforge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import germforge

    if not Path(germforge.__file__).resolve().is_relative_to(SRC):
        print(f"error: germforge imported from {germforge.__file__}", file=sys.stderr)
        return 2
    from harness import WORKLOADS, Verifier, load_documents

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    docs = load_documents(args.workload, args.seed)
    tally = Tally(Verifier(docs))
    print(f"# germforge benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, python {sys.version.split()[0]}, "
          f"{os.cpu_count()} cpus")
    if args.trace:
        metrics, notes = per_layer(args.workload, docs, args.seconds, tally)
    else:
        metrics, notes = end_to_end(docs, args.seconds, tally)
    failed = len(tally.failures)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# {failed} of {tally.attempted} checks failed")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
