"""patterna benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  A run:

1. sets up five to 25 times (fresh import of ``patterna``, seeded input
   generation, pattern files, warm-up) and reports the median as setup_s;
2. passes over the input pool again and again for --seconds, one operation
   after another, timing each one; an operation's cost is the least of its
   times, which drops the slow-downs a shared host adds, and the end-to-end
   metrics are taken over those costs, one per distinct input;
3. with --trace 1, first passes untraced for half the time, then makes one
   more pass with every layer boundary traced (see tracer.py);
4. checks every distinct input's first output with the independent oracle
   (oracle.py) after the loop, untimed; every later output of the same
   input must equal the first;
5. runs the known-defect probes once, outside the loop: the 3000-variable
   XOR chain on decide, and with --trace 1 the 9-edge k=3 blowup on
   construct.  A probe that raises is reported by exception type
   and is not a failure; a probe that answers wrongly is;
6. prints a summary on stderr (inputs_sha256, pool size, sample count,
   passes, failures by type, probes) and, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}.

Any wrong answer, exception or nondeterministic output makes "correct"
false and the exit code 1.  Exit code 2 means the run could not start (for
example, no ``src/patterna`` to import).
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import oracle  # noqa: E402  (sys.path[0] is this directory)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Set-ups per run: at least SETUP_REPS, and more while they have taken
#: less than SETUP_SECONDS in all (up to SETUP_MAX_REPS), so that a cheap
#: set-up's median rests on many samples.
SETUP_REPS = 5
ALLOWED_CPUS = os.sched_getaffinity(0)
SETUP_SECONDS = 3.0
SETUP_MAX_REPS = 25

#: Layer metrics and the end-to-end metric and workload each should move,
#: written down before any optimisation is measured.
LAYER_TARGETS = {
    "sat": "ops_per_s, op_p90_ms on decide; little change on construct",
    "decide": "ops_per_s, op_p50_ms, witness_points_mean on decide",
    "semantics": "ops_per_s on construct; guard op_p50_ms on decide",
    "hypergraphs": "op_p90_ms, ops_per_s on construct; guard peak_rss_mb",
    "jsonio": "op_p50_ms on decide",
    "cli": "op_p50_ms on decide",
    "patterns": "ops_per_s on construct",
    "constructions": "ops_per_s on construct",
}

#: The layers each workload is chosen to load.
WORKLOAD_LAYER = {
    "decide": ("sat", "decide"),
    "construct": ("hypergraphs", "semantics"),
}


def import_patterna():
    """A fresh import of patterna from SRC (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "patterna" or n.startswith("patterna.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pa = importlib.import_module("patterna")
    importlib.import_module("patterna.cli")
    if not Path(pa.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"patterna imported from {pa.__file__}, not from {SRC}")
    return pa


def fingerprint(specs) -> str:
    return hashlib.sha256(
        json.dumps(specs, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def warmup_specs(workload, seed, pa):
    """The smallest input of each kind in one extra cycle of each part, drawn
    from its own stream: touches every code path once without running a
    slow case."""
    smallest = {}
    for part in workloads.WORKLOADS[workload]:
        (cycle,) = workloads.generate_cycles(part, random.Random(f"{part}:{seed}:warmup"), 1, pa)
        for spec in cycle:
            size = len(json.dumps(spec))
            if spec["kind"] not in smallest or size < smallest[spec["kind"]][0]:
                smallest[spec["kind"]] = (size, spec)
    return [spec for _, spec in smallest.values()]


def setup(workload, seed, workdir):
    """One set-up: import, generate, write inputs, warm up.  Returns
    (seconds, patterna, specs, ops)."""
    start = time.perf_counter()
    pa = import_patterna()
    specs = workloads.generate(workload, seed, pa)
    ops = workloads.prepare(pa, specs, workdir)
    for op in workloads.prepare(pa, warmup_specs(workload, seed, pa), workdir / "warmup"):
        op.run()
    return time.perf_counter() - start, pa, specs, ops


def run_op(op):
    """(plain result, None) or (None, exception name); times nothing."""
    try:
        result = op.run()
    except Exception as exc:  # recorded by type; never retried
        return None, type(exc).__name__
    return op.plain(result), None


def on_cpu(k):
    """Pin this process to the k-th CPU it may run on (cyclically).

    On a shared host one CPU can run at half speed for a minute while the
    other runs at full speed.  Passes and set-ups move from CPU to CPU, so
    that an op's least time comes from whichever CPU was fast; the process
    still runs one thread on one CPU at a time."""
    cpus = sorted(ALLOWED_CPUS)
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def passes(ops, checker, seconds=0.0, tracer=None):
    """Run the pool in order, one op after another, pass after pass, until at
    least one whole pass is done and `seconds` of wall time have passed (the
    last pass may stop part way).  Each pass runs on the next CPU (on_cpu).
    Returns, per op, its samples (ns, whether the checker accepted the
    output).

    Only op.run is timed.  Between operations, untimed, the result is handed
    to the checker and the cyclic garbage collector is run, so that every
    operation starts from the same collector state and pays only for the
    collections its own allocations cause."""
    samples = [[] for _ in ops]
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while True:
        idx = i % len(ops)
        if idx == 0:
            on_cpu(i // len(ops))
        if tracer is not None:
            tracer.begin_op(i)
        op = ops[idx]
        gc.collect()
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # recorded by type; never retried
            result, error = None, type(exc).__name__
        t1 = clock()
        samples[idx].append((t1 - t0, checker.record(idx, None if error else op.plain(result), error)))
        del result
        i += 1
        if i >= len(ops) and t1 >= deadline:
            return samples


class Checker:
    """Oracle bookkeeping: the first output of every distinct input is kept
    and checked by the oracle after the timed loop (verify); repeats of an
    input must reproduce its first output exactly."""

    def __init__(self, ops):
        self.ops = ops
        self.first = {}  # pool index -> (canonical output, plain output)
        self.failures = collections.Counter()
        self.mismatches = []

    def record(self, idx, plain, error) -> bool:
        if error is not None:
            self.failures[error] += 1
            return False
        canonical = json.dumps(plain, sort_keys=True)
        if idx in self.first:
            if canonical != self.first[idx][0]:
                return self.mismatch(f"pool[{idx}]", "output differs from the same input's earlier output")
            return True
        self.first[idx] = (canonical, plain)
        return True

    def verify(self) -> set:
        """Oracle-check every first output; returns the rejected pool indices."""
        rejected = set()
        for idx, (_, plain) in sorted(self.first.items()):
            reason = oracle.check(self.ops[idx].spec, plain)
            if reason is not None:
                self.mismatch(f"pool[{idx}] {self.ops[idx].kind}", reason)
                rejected.add(idx)
        return rejected

    def mismatch(self, where, reason) -> bool:
        self.failures["OracleMismatch"] += 1
        self.mismatches.append(f"{where}: {reason}")
        return False


def quantile_ms(times_ns, q, steps=16):
    """Harrell-Davis estimate of the q-quantile, in ms: the mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each one's
    slot [i/n, (i+1)/n].  It rests on the dozen or so inputs around the
    quantile rather than on one, so one input's timing noise moves it less.
    Failed operations count as +inf."""
    ordered = sorted(times_ns)
    n = len(ordered)
    if n < 2:
        return ordered[0] / 1e6
    a, b = (n + 1) * q - 1, (n + 1) * (1 - q) - 1
    mode = min(max(a / (a + b), 1e-9), 1 - 1e-9)
    peak = a * math.log(mode) + b * math.log1p(-mode)
    weights = [
        sum(math.exp(a * math.log(x) + b * math.log1p(-x) - peak)
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        for i in range(n)
    ]
    total = sum(weights)
    return sum(w / total * t for w, t in zip(weights, ordered) if w / total > 1e-12) / 1e6


def run_probe(pa, spec, workdir, checker):
    """Run one known-defect probe, untimed by the loop.  An exception is
    reported, not counted as a failure; a wrong answer is a mismatch.
    Returns {"error": exception name or None, "seconds": elapsed}."""
    (op,) = workloads.prepare(pa, [spec], workdir / "probe")
    start = time.perf_counter()
    plain, error = run_op(op)
    elapsed = time.perf_counter() - start
    if error is None:
        reason = oracle.check(spec, plain)
        if reason is not None:
            checker.mismatch(f"probe {spec['kind']}", reason)
    return {"error": error, "seconds": elapsed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}"
    try:
        setup_times, digests = [], set()
        while len(setup_times) < SETUP_REPS or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS):
            gc.collect()  # the previous set-up's garbage is not this one's to pay for
            on_cpu(len(setup_times))
            try:
                elapsed, pa, specs, ops = setup(args.workload, args.seed, workdir)
            except ImportError as exc:
                print(f"perfbench: cannot import patterna from {SRC}: {exc}", file=sys.stderr)
                return 2
            setup_times.append(elapsed)
            digests.add(fingerprint(specs))
        if len(digests) != 1:
            print("perfbench: input generation is not deterministic", file=sys.stderr)
            return 2
        summary = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digests.pop(),
                   "pool_ops": len(ops), "setup_s_reps": [round(s, 4) for s in setup_times]}
        return measure(args, pa, ops, statistics.median(setup_times), summary, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, pa, ops, setup_s, summary, workdir) -> int:
    checker = Checker(ops)
    gc.collect()
    gc.freeze()  # set-up's objects are not the program's to collect
    samples = passes(ops, checker, args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes(ops, checker, tracer=tracer)
        finally:
            tracer.remove()
        traced_ns = sum(runs[0][0] for runs in traced)
    os.sched_setaffinity(0, ALLOWED_CPUS)
    rejected = checker.verify()
    runs_of = [runs + traced[idx] if args.trace else runs for idx, runs in enumerate(samples)]
    bad = [len(runs) if idx in rejected else sum(not ok for _, ok in runs) for idx, runs in enumerate(runs_of)]
    attempted = sum(len(runs) for runs in runs_of)
    failed = sum(bad)

    # witness_points_mean is taken over the inputs that are the same for every
    # seed, so it depends on the program alone: over the seeded inputs, how
    # many random patterns come out exhibitable, and how many cliques random
    # graphs have, moved it by a tenth from seed to seed.
    points = []
    for idx in range(len(ops)):
        if ops[idx].spec.get("fixed") and idx in checker.first:
            value = oracle.witness_points(ops[idx].spec, checker.first[idx][1])
            if value is not None:
                points.append(value)

    # Taken before the probes, which are not part of the measured loop.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = {}
    if args.workload == "decide":
        probes["xor_chain_3000"] = run_probe(pa, workloads.probe_spec(), workdir, checker)
    if args.trace and args.workload == "construct":
        rng = random.Random(f"{args.workload}:{args.seed}:probe")
        probes["dense_blowup"] = run_probe(pa, workloads.dense_probe_spec(rng), workdir, checker)

    summary.update({
        "samples": attempted,
        "passes": round(sum(len(runs) for runs in samples) / len(ops), 2),
        "failed_share": failed / attempted,
        "failures_by_type": dict(checker.failures),
        "mismatches": checker.mismatches[:20],
        "probes": probes,
    })
    best_ns = [min(ns for ns, _ in runs) for runs in samples]
    if not args.trace:
        times = [math.inf if failing else ns for ns, failing in zip(best_ns, bad)]
        metrics = {
            "ops_per_s": ((len(ops) - sum(map(bool, bad))) / (sum(best_ns) / 1e9), "1/s"),
            "op_p50_ms": (quantile_ms(times, 0.5), "ms"),
            "op_p90_ms": (quantile_ms(times, 0.9), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "witness_points_mean": (statistics.fmean(points) if points else 0.0, "points"),
        }
    else:
        metrics = tracer.metrics(traced_ns)
        untraced_ns = sum(statistics.median(ns for ns, _ in runs) for runs in samples)
        metrics["trace.overhead_share"] = (traced_ns / untraced_ns - 1, "ratio")
        # Least time of the later passes against the first pass: about 1 for
        # a program that keeps nothing between calls, far above 1 if it
        # caches results across operations.
        later = [(runs[0][0], min(ns for ns, _ in runs[1:])) for runs in samples if len(runs) > 1]
        metrics["bench.repeat_speedup"] = (
            sum(first for first, _ in later) / sum(rest for _, rest in later) if later else 1.0, "ratio")
        metrics["failed_share"] = (failed / attempted, "ratio")
        xor = probes.get("xor_chain_3000")
        metrics["probe.xor_chain_3000.failed"] = (int(bool(xor and xor["error"])), "count")
        dense = probes.get("dense_blowup")
        metrics["probe.dense_blowup_s"] = (dense["seconds"] if dense else 0.0, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.tsv")
        summary["loaded_layers"] = WORKLOAD_LAYER[args.workload]
        summary["layer_self_share"] = {
            layer: round(metrics[f"{layer}.self_share"][0], 4) for layer in LAYER_TARGETS
        }
        summary["layer_targets"] = LAYER_TARGETS
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)

    correct = not checker.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
