"""The benchmark's own test: the correctness gate fires on wrong data, and
the traced run emits exactly the per-layer metrics BENCHMARK.json lists.

    python3 -m pytest -q perfbench/test_gate.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def xxz_op(tmp_path_factory):
    wl = workloads.SWEEPS["xxz-sector"]
    out = tmp_path_factory.mktemp("out")
    param = wl.grid[0]
    tracer = tracing.Tracer()
    result, root = tracer.op(wl.run, param, out)
    return wl, param, wl.output(result, out), tracer, root


def test_gate_passes_on_the_stored_reference(xxz_op):
    wl, param, (csv_text, fit), _, _ = xxz_op
    rows = workloads.csv_rows(csv_text)
    assert wl.check(param, rows, np.random.default_rng(0)) == []
    assert workloads.compare_to_reference(workloads.digest(csv_text, fit), REFERENCES[wl.name][param]) == []


def test_gate_fires_on_a_perturbed_reference(xxz_op):
    wl, param, (csv_text, fit), _, _ = xxz_op
    got = workloads.digest(csv_text, fit)
    ref = copy.deepcopy(REFERENCES[wl.name][param])
    row = ref["sample"]["0"]
    column = ref["header"].index("average")
    row[column] = repr(float(row[column]) + 2 * workloads.REF_TOL)
    assert any("average" in e for e in workloads.compare_to_reference(got, ref))
    ref = copy.deepcopy(REFERENCES[wl.name][param])
    ref["exact_sha256"] = "0" * 64
    assert workloads.compare_to_reference(got, ref) == ["exact_sha256 differs from the reference"]


def test_gate_fires_on_a_wrong_output(xxz_op):
    wl, param, (csv_text, _), _, _ = xxz_op
    rows = workloads.csv_rows(csv_text)
    rows[1][rows[0].index("pairs")] = "1"
    assert wl.check(param, rows, np.random.default_rng(0))
    spectrum = workloads.SWEEPS["ising-spectrum"]
    header = "index,sector,mask,energy,parity,momentum," + ",".join(f"Q{m}" for m in range(workloads.SPECTRUM_L))
    assert spectrum.check(spectrum.grid[0], workloads.csv_rows(header + "\n0,NS,0,0,1,0\n"), np.random.default_rng(0))


def test_traced_metrics_match_the_benchmark_definition(xxz_op):
    _, _, _, tracer, root = xxz_op
    metrics = tracing.layer_metrics(tracer, [root], root, [1.0], [1.0])
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["dense.fidelity_dense.calls"][0] == 3120
    assert metrics["correlation.branch.regular.calls"][0] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mib"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
