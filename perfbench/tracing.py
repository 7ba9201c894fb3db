"""In-memory span tracing of fgdist's layers, from outside the package.

Each traced function is replaced, for the duration of one traced op, in the
namespace its caller looks it up in: ``fgdist.experiments.bures_distance`` for
the sweep drivers, ``fgdist.correlation.canonical_form`` for the fidelity
kernel, ``fgdist.dense.fidelity_dense`` for the XXZ pair loop (which imports
it at call time), and so on.  A span is ``[name, start, end, parent, tag]``;
spans live in a list until the run ends and are then written to a file.

A layer's self time is its spans' duration minus the part their direct child
spans cover.  The pair kernel's span also carries the dispatch branch of the
pair, read after the call from the states' unit pair counts.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from fgdist import cli, correlation, dense, experiments, xxz

from workloads import BRANCHES, pair_branch

# (namespace, attribute, span name): every place a traced layer is looked up
PATCHES = (
    (experiments, "bures_distance", "correlation.bures_distance"),
    (experiments, "density_from_gamma", "dense.density_from_gamma"),
    (experiments, "trace_distance", "dense.trace_distance"),
    (experiments, "enumerate_spectrum", "ising.enumerate_spectrum"),
    (experiments, "sort_spectrum", "ising.sort_spectrum"),
    (experiments, "subsystem_correlations", "ising.subsystem_correlations"),
    (experiments, "sample_ensemble", "random_ensemble.sample_ensemble"),
    (experiments, "xxz_sector_basis", "xxz.xxz_sector_basis"),
    (experiments, "xxz_pairwise_average", "xxz.xxz_pairwise_average"),
    (experiments, "ising_sweep", "experiments.ising_sweep"),
    (experiments, "random_sweep", "experiments.random_sweep"),
    (experiments, "xxz_sweep", "experiments.xxz_sweep"),
    (experiments, "write_spectrum_csv", "experiments.write_spectrum_csv"),
    (experiments.SweepResult, "csv_text", "experiments.csv_text"),
    (correlation, "canonical_form", "correlation.canonical_form"),
    (correlation, "gaussian_compose", "correlation.gaussian_compose"),
    (correlation, "reduce_unit_modes", "correlation.reduce_unit_modes"),
    (dense, "canonical_form", "correlation.canonical_form"),
    (dense, "majorana_operators", "dense.majorana_operators"),
    (dense, "fidelity_dense", "dense.fidelity_dense"),
    (dense, "trace_distance", "dense.trace_distance"),
    (xxz, "xxz_sector_basis", "xxz.xxz_sector_basis"),
    (xxz, "xxz_dense_hamiltonian", "xxz.xxz_dense_hamiltonian"),
    (xxz, "xxz_eigenstates", "xxz.xxz_eigenstates"),
    (xxz, "partial_trace", "dense.partial_trace"),
    (cli, "enumerate_spectrum", "ising.enumerate_spectrum"),
    (cli, "main", "cli.main"),
)

# span names whose inputs are states; their distinct count is the base of
# canonical_form.per_state
STATE_INPUTS = ("correlation.bures_distance", "dense.density_from_gamma")


class Tracer:
    def __init__(self):
        self.spans = []
        self.states = {}       # id -> state passed to a STATE_INPUTS layer, this op
        self.state_counts = {}  # root span index -> distinct states of that op
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, states, clock = self.spans, self._stack, self.states, time.perf_counter
        tags_branch = name == "correlation.bures_distance"
        takes_states = name in STATE_INPUTS

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if takes_states:
                    for state in args[: 1 + tags_branch]:
                        states[id(state)] = state
                if tags_branch:
                    record[4] = pair_branch(args[0], args[1])

        return traced

    def op(self, run, *args):
        """Run one op under a root span with every layer wrapped; return
        (result, index of the root span)."""
        self.states.clear()
        for owner, attr, name in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        root = len(self.spans)
        try:
            return self._wrap(run, "op")(*args), root
        finally:
            self.state_counts[root] = len(self.states)
            self.states.clear()
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def layers(self, root: int) -> dict:
        """Per span name: calls, inclusive durations, total self time, for the
        op whose root span is at ``root`` (its spans run to the next root)."""
        end = next((i for i in range(root + 1, len(self.spans)) if self.spans[i][3] == -1), len(self.spans))
        covered = defaultdict(float)
        for name, start, stop, parent, _ in self.spans[root + 1:end]:
            covered[parent] += stop - start
        out = defaultdict(lambda: {"durations": [], "self": 0.0, "tags": []})
        for i in range(root, end):
            name, start, stop, _, tag = self.spans[i]
            entry = out[name]
            entry["durations"].append(stop - start)
            entry["self"] += stop - start - covered[i]
            entry["tags"].append(tag)
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p, tag] for n, a, b, p, tag in self.spans]
        path.write_text(json.dumps({"names": names, "unit": "ns", "columns": ["name", "start", "end", "parent", "branch"],
                                    "spans": rows}, separators=(",", ":")))


# metric -> (span name, statistic, unit).  "calls", "self_s" and "incl_s" are
# per traced op, median over ops; "us" is the median call, pooled over every
# call of every traced op
LAYER_METRICS = {
    "correlation.canonical_form.calls": ("correlation.canonical_form", "calls", "count"),
    "correlation.canonical_form.us": ("correlation.canonical_form", "us", "us"),
    "correlation.gaussian_compose.calls": ("correlation.gaussian_compose", "calls", "count"),
    "correlation.gaussian_compose.us": ("correlation.gaussian_compose", "us", "us"),
    "correlation.reduce_unit_modes.calls": ("correlation.reduce_unit_modes", "calls", "count"),
    "correlation.reduce_unit_modes.us": ("correlation.reduce_unit_modes", "us", "us"),
    "correlation.pair_kernel.s": ("correlation.bures_distance", "incl_s", "s"),
    "dense.density_from_gamma.calls": ("dense.density_from_gamma", "calls", "count"),
    "dense.density_from_gamma.us": ("dense.density_from_gamma", "us", "us"),
    "dense.trace_distance.calls": ("dense.trace_distance", "calls", "count"),
    "dense.trace_distance.us": ("dense.trace_distance", "us", "us"),
    "dense.fidelity_dense.calls": ("dense.fidelity_dense", "calls", "count"),
    "dense.fidelity_dense.us": ("dense.fidelity_dense", "us", "us"),
    "dense.partial_trace.s": ("dense.partial_trace", "self_s", "s"),
    "dense.majorana_operators.s": ("dense.majorana_operators", "self_s", "s"),
    "xxz.xxz_sector_basis.s": ("xxz.xxz_sector_basis", "self_s", "s"),
    "xxz.xxz_dense_hamiltonian.s": ("xxz.xxz_dense_hamiltonian", "self_s", "s"),
    "xxz.xxz_eigenstates.s": ("xxz.xxz_eigenstates", "self_s", "s"),
    "xxz.xxz_pairwise_average.self_s": ("xxz.xxz_pairwise_average", "self_s", "s"),
    "ising.enumerate_spectrum.s": ("ising.enumerate_spectrum", "self_s", "s"),
    "ising.sort_spectrum.s": ("ising.sort_spectrum", "self_s", "s"),
    "ising.subsystem_correlations.s": ("ising.subsystem_correlations", "self_s", "s"),
    "random_ensemble.sample_ensemble.s": ("random_ensemble.sample_ensemble", "self_s", "s"),
    "experiments.ising_sweep.self_s": ("experiments.ising_sweep", "self_s", "s"),
    "experiments.random_sweep.self_s": ("experiments.random_sweep", "self_s", "s"),
    "experiments.xxz_sweep.self_s": ("experiments.xxz_sweep", "self_s", "s"),
    "experiments.csv_text.s": ("experiments.csv_text", "self_s", "s"),
    "experiments.write_spectrum_csv.s": ("experiments.write_spectrum_csv", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, roots: list, warmup_root: int, traced_s: list, untraced_s: list) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    ops = [tracer.layers(r) for r in roots]
    empty = {"durations": [], "self": 0.0, "tags": []}

    def per_op(span, stat):
        if stat == "calls":
            return statistics.median(len(op.get(span, empty)["durations"]) for op in ops)
        if stat == "self_s":
            return statistics.median(op.get(span, empty)["self"] for op in ops)
        return statistics.median(sum(op.get(span, empty)["durations"]) for op in ops)

    def pooled_us(span, q, tag=None):
        durations = [d for op in ops for d, t in zip(op.get(span, empty)["durations"], op.get(span, empty)["tags"])
                     if tag is None or t == tag]
        return 1e6 * _quantile(durations, q)

    metrics = {}
    for branch in BRANCHES:
        key = f"correlation.branch.{branch}"
        kernel = "correlation.bures_distance"
        metrics[f"{key}.calls"] = (statistics.median(op.get(kernel, empty)["tags"].count(branch) for op in ops), "count")
        metrics[f"{key}.us_p50"] = (pooled_us(kernel, 0.5, branch), "us")
        metrics[f"{key}.us_p99"] = (pooled_us(kernel, 0.99, branch), "us")
    for metric, (span, stat, unit) in LAYER_METRICS.items():
        value = pooled_us(span, 0.5) if stat == "us" else per_op(span, stat)
        metrics[metric] = (value, unit)
    states = statistics.median(tracer.state_counts[r] for r in roots)
    calls = metrics["correlation.canonical_form.calls"][0]
    metrics["correlation.canonical_form.per_state"] = (calls / states if states else 0.0, "calls/state")
    op_s = statistics.median(traced_s)
    metrics["correlation.pair_kernel.share"] = (metrics["correlation.pair_kernel.s"][0] / op_s, "ratio")
    warmup = tracer.layers(warmup_root)
    metrics["dense.majorana_operators.setup_s"] = (warmup.get("dense.majorana_operators", empty)["self"], "s")
    metrics["trace.ops"] = (len(roots), "count")
    metrics["trace.spans_per_op"] = (statistics.median(sum(len(v["durations"]) for v in op.values()) for op in ops),
                                     "count")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.untraced_op_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.overhead_s"] = (op_s - statistics.median(untraced_s), "s")
    return metrics
