"""Function-boundary tracing for the benchmark's traced run.

The tracer wraps the public functions listed in ``TRACED`` from outside the
library: every attribute of every loaded ``patterna`` module that *is* one of
those function objects is replaced by a wrapper, and ``remove`` puts the
originals back.  Each call records one span ``(function, start_ns, end_ns,
parent span, op id, failed)`` in memory.  Self time is a span's duration less
the durations of its direct children.

Counters derived from call arguments and results (clauses handed to the
solver, conditions checked, clique-search repeats, bytes written) are
gathered in the same wrapper, so ratios are measured where the work happens.
"""

from __future__ import annotations

import sys
import time

#: Layer (patterna module) -> traced public functions.
TRACED = {
    "cli": ("run",),
    "jsonio": ("load_json", "pattern_from_dict", "decision_to_dict", "dumps_canonical"),
    "patterns": ("classify",),
    "decide": ("decide_exhibitable", "condition_cnf"),
    "sat": ("sat_solve",),
    "semantics": ("check_exhibits", "check_one_n", "fully_complete_extension"),
    "hypergraphs": (
        "maximal_cliques", "realize_check", "blowup", "blowup_pullback", "realization_witness",
        "pattern_from_hypergraph", "triangle_free_double", "build_witness_structure",
        "check_axioms",
    ),
    "constructions": ("ip_family", "powerset_sm_witness", "disjoint_one1_family"),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

#: Derived counters, each measured from arguments and results of one function.
COUNTERS = (
    "sat.clauses_in", "sat.unsat", "semantics.conditions_checked",
    "semantics.point_conditions", "hypergraphs.maximal_cliques.repeats",
    "hypergraphs.cliques_found", "jsonio.bytes_out",
)

_SAT, _CHECK, _CLIQUES, _DUMPS = (
    NAMES.index(name) for name in
    ("sat.sat_solve", "semantics.check_exhibits", "hypergraphs.maximal_cliques",
     "jsonio.dumps_canonical")
)


class Tracer:
    def __init__(self):
        self.spans = []  # (fid, start_ns, end_ns, parent, op, failed)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack = []
        self._seen_graphs = set()
        self._patched = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen_graphs = set()

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "patterna" or name.startswith("patterna."))
        ]
        for fid, name in enumerate(NAMES):
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"patterna.{layer}"], fn)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fid, original):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[idx] = (fid, start, clock(), parent, self.op, True)
                raise
            finally:
                stack.pop()
            spans[idx] = (fid, start, clock(), parent, self.op, False)
            if fid == _SAT:
                counters["sat.clauses_in"] += len(args[0].clauses)
                counters["sat.unsat"] += result is None
            elif fid == _CHECK:
                fam, pattern = args[0], args[1]
                conditions = len(pattern.consistency) + len(pattern.inconsistency)
                counters["semantics.conditions_checked"] += conditions
                counters["semantics.point_conditions"] += fam.universe_size * conditions
            elif fid == _CLIQUES:
                key = args[0]
                counters["hypergraphs.maximal_cliques.repeats"] += key in self._seen_graphs
                self._seen_graphs.add(key)
                counters["hypergraphs.cliques_found"] += len(result)
            elif fid == _DUMPS:
                counters["jsonio.bytes_out"] += len(result.encode("utf-8"))
            return result

        traced.__wrapped__ = original
        return traced

    def self_times(self):
        """Per-span self time in ns, indexed like self.spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart_ns\tend_ns\tfailed\n")
            for idx, (fid, start, end, parent, op, failed) in enumerate(self.spans):
                handle.write(f"{idx}\t{parent}\t{op}\t{NAMES[fid]}\t{start}\t{end}\t{int(failed)}\n")

    def metrics(self, op_wall_ns):
        """Per-layer metrics for BENCHMARK.json's per_layer list, given the
        summed wall time of the traced operations."""
        own = self.self_times()
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        failed = [0] * len(NAMES)
        dur = [0] * len(NAMES)
        for (fid, start, end, _, _, bad), mine in zip(self.spans, own):
            calls[fid] += 1
            self_ns[fid] += mine
            failed[fid] += bad
            dur[fid] += end - start
        out = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[fid], "count")
            out[f"{name}.self_s"] = (self_ns[fid] / 1e9, "s")
            out[f"{name}.failed"] = (failed[fid], "count")
        decide_fid = NAMES.index("decide.decide_exhibitable")
        verify_ns = 0
        for fid, start, end, parent, _, _ in self.spans:
            if fid == _CHECK and self._under(parent, decide_fid):
                verify_ns += end - start
        c = self.counters
        out.update({
            "sat.unsat_share": (_ratio(c["sat.unsat"], calls[_SAT]), "ratio"),
            "sat.clauses_in": (c["sat.clauses_in"], "count"),
            "decide.solves_per_decision": (_ratio(calls[_SAT], calls[decide_fid]), "ratio"),
            "decide.verify_share": (_ratio(verify_ns, dur[decide_fid]), "ratio"),
            "semantics.conditions_checked": (c["semantics.conditions_checked"], "count"),
            "semantics.point_conditions": (c["semantics.point_conditions"], "count"),
            "hypergraphs.maximal_cliques.repeat_share": (
                _ratio(c["hypergraphs.maximal_cliques.repeats"], calls[_CLIQUES]), "ratio"),
            "hypergraphs.cliques_found": (c["hypergraphs.cliques_found"], "count"),
            "jsonio.bytes_out": (c["jsonio.bytes_out"], "bytes"),
        })
        layer_ns = dict.fromkeys(TRACED, 0)
        for fid, name in enumerate(NAMES):
            layer_ns[name.split(".")[0]] += self_ns[fid]
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_share"] = (_ratio(ns, op_wall_ns), "ratio")
        out["bench.self_share"] = (_ratio(op_wall_ns - sum(layer_ns.values()), op_wall_ns), "ratio")
        return out

    def _under(self, idx, fid) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == fid:
                return True
            idx = self.spans[idx][3]
        return False


def _ratio(num, den):
    return num / den if den else 0.0
