"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the oracle catches a corrupted verdict, that traced self times fit inside the
traced operation's wall time, and that a seed fixes the inputs' fingerprint.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import oracle
import run
import workloads
from tracer import Tracer

TINY_SECONDS = "0.3"


def check(ok, message):
    if not ok:
        raise SystemExit(f"FAIL {message}")
    print(f"PASS {message}")


def run_tiny(workload, seed, trace):
    """run.main in this process at tiny pool sizes; (exit code, result, summary)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", TINY_SECONDS, "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1]), json.loads(err.getvalue().splitlines()[-1])


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    for workload in workloads.POOL_CYCLES:
        workloads.POOL_CYCLES[workload] = 1
    workloads.PLANTED_DRAWS = 1
    construct_fixed = workloads.construct_fixed
    workloads.construct_fixed = lambda rng: [s for s in construct_fixed(rng) if len(s["edges"]) <= 1]
    # The 9-edge dense probe can take tens of seconds; a sparse one exercises
    # the same plumbing.
    workloads.dense_probe_spec = lambda rng: {
        "kind": "blowup-roundtrip", "k": 3, "vertices": 5, "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 4]]}

    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for workload in workloads.WORKLOADS:
            code, result, _ = run_tiny(workload, 7, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace} runs clean")
            check(got == want, f"{workload} trace={trace} prints every {key} metric with its unit")
            check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["attempted"] >= 1,
                  f"{workload} trace={trace} result has the contract's keys")

    decide_parts = workloads.WORKLOADS["decide"]
    workloads.WORKLOADS["decide"] = ("decide-cnf",)
    try:
        _, result, summary = run_tiny("decide", 7, 1)
    finally:
        workloads.WORKLOADS["decide"] = decide_parts
    check(result["metrics"]["decide.solves_per_decision"]["value"] == 1,
          "CNF encodings take exactly one SAT solve per decision")
    check(summary["probes"]["xor_chain_3000"]["error"] in (None, "RecursionError"),
          "the 3000-variable chain probe is reported by outcome")

    # A corrupted verdict must be caught, both by the oracle directly and
    # end to end, where it makes the run incorrect and exit non-zero.
    spec = {"kind": "random-small", "expect": None,
            "pattern": {"n": 1, "consistency": [[[0], []]], "inconsistency": [[[0], []]]}}
    good = {"exit": 1, "stdout": json.dumps({"exhibitable": False, "failing": [[0], []], "witness": None})}
    bad = {"exit": 0, "stdout": json.dumps({"exhibitable": True, "failing": None,
                                            "witness": {"universe": 1, "sets": [[0]]}})}
    check(oracle.check(spec, good) is None, "oracle accepts the right verdict")
    check(oracle.check(spec, bad) is not None, "oracle rejects a corrupted verdict")
    plain_cli = workloads._plain_cli

    def corrupted(result):
        plain = plain_cli(result)
        doc = json.loads(plain["stdout"])
        doc["exhibitable"] = not doc["exhibitable"]
        return {**plain, "stdout": json.dumps(doc)}

    workloads._plain_cli = corrupted
    try:
        code, result, summary = run_tiny("decide", 7, 0)
    finally:
        workloads._plain_cli = plain_cli
    check(code != 0 and not result["correct"] and result["failed"] > 0
          and summary["failures_by_type"].get("OracleMismatch"),
          "a corrupted verdict makes the run incorrect and exit non-zero")

    # Traced self times of one op's spans add up to no more than its wall time.
    for workload in workloads.WORKLOADS:
        pa = run.import_patterna()
        specs = workloads.generate(workload, 7, pa)
        workdir = run.OUT / "selftest"
        ops = workloads.prepare(pa, specs, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            samples = run.passes(ops, run.Checker(ops), tracer=tracer)
        finally:
            tracer.remove()
        own = tracer.self_times()
        per_op = [0] * len(samples)
        for (_, _, _, _, op, _), mine in zip(tracer.spans, own):
            per_op[op] += mine
        check(tracer.spans and all(0 <= mine for mine in own)
              and all(per_op[i] <= runs[0][0] for i, runs in enumerate(samples)),
              f"{workload} traced self times fit inside each op's wall time")
        shutil.rmtree(workdir)

    first = run_tiny("construct", 11, 0)[2]["inputs_sha256"]
    again = run_tiny("construct", 11, 0)[2]["inputs_sha256"]
    other = run_tiny("construct", 12, 0)[2]["inputs_sha256"]
    check(first == again != other, "the same seed gives the same inputs_sha256, another seed another")
    return 0


if __name__ == "__main__":
    sys.exit(main())
