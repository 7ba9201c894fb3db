"""Sweep drivers, fits, orderings, and CSV export."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgdist import experiments
from fgdist.correlation import CorrelationMatrix, bures_distance
from fgdist.dense import density_from_gamma, density_stack, fidelity_dense, trace_distance
from fgdist.errors import GuardExceeded
from fgdist.experiments import (
    CSV_HEADER,
    _write_csv,
    apply_ordering,
    average_consecutive_distance,
    fit_window,
    ising_sweep,
    linear_slope_fit,
    random_sweep,
    reference_curve,
    write_charge_profiles,
    write_spectrum_csv,
    xxz_sweep,
)
from fgdist.ising import enumerate_spectrum, sort_spectrum, subsystem_correlations
from fgdist.random_ensemble import RandomEnsembleSpec, sample_ensemble


# ------------------------------------------------------------------ fit window


def test_fit_window_values():
    assert fit_window(8) == (2, 3)
    assert fit_window(12) == (3, 4)
    assert fit_window(16) == (4, 6)
    assert fit_window(29) == (6, 11)


def test_linear_fit_recovers_exact_line():
    L = 16
    ells = list(range(1, 9))
    # bures rows are scaled by 1/sqrt(2) before fitting
    values = [np.sqrt(2.0) * (2.0 * ell / L + 0.125) for ell in ells]
    slope, intercept = linear_slope_fit(ells, values, L, metric="bures")
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - 0.125) < 1e-12
    slope_t, _ = linear_slope_fit(ells, [0.5 * ell / L for ell in ells], L, metric="trace")
    assert abs(slope_t - 0.5) < 1e-12


def test_linear_fit_needs_two_window_points():
    with pytest.raises(ValueError):
        linear_slope_fit([1, 2], [0.1, 0.2], 16, metric="trace")  # window is 4..6


def test_reference_curves():
    assert reference_curve(0.25, "f") == 0.5
    assert reference_curve(0.75, "f") == 1.0
    assert reference_curve(0.5, "f") == 1.0  # plotting convention at the kink
    assert reference_curve(0.0, "g") == 0.0
    assert reference_curve(0.5, "g") == 1.0
    with pytest.raises(ValueError):
        reference_curve(1.5, "f")
    with pytest.raises(ValueError):
        reference_curve(0.5, "h")


# ------------------------------------------------------------------- orderings


def test_apply_ordering_charges():
    table = enumerate_spectrum(1.0, 6)
    default = apply_ordering(table, "charges:default")
    assert np.array_equal(default.masks, sort_spectrum(table).masks)
    permuted = apply_ordering(table, "charges:2,0,1")
    assert np.array_equal(permuted.masks, sort_spectrum(table, (2, 0, 1)).masks)
    # hyphen separators are accepted for shell convenience
    hyphen = apply_ordering(table, "charges:2-0-1")
    assert np.array_equal(hyphen.masks, permuted.masks)


def test_apply_ordering_random_deterministic():
    table = enumerate_spectrum(1.0, 6)
    a = apply_ordering(table, "random:7")
    b = apply_ordering(table, "random:7")
    assert np.array_equal(a.masks, b.masks)
    assert a.ordering == "random:7"
    assert not np.array_equal(a.masks, apply_ordering(table, "random:8").masks)


def test_apply_ordering_rejects_unknown():
    table = enumerate_spectrum(1.0, 4)
    with pytest.raises(ValueError):
        apply_ordering(table, "energy:up")
    with pytest.raises(ValueError):
        apply_ordering(table, "random:")


# -------------------------------------------------------------------- averages


def test_average_consecutive_distance_matches_manual_loop():
    table = sort_spectrum(enumerate_spectrum(1.0, 5))
    ell = 2
    states = [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, ell)]
    manual = np.mean([bures_distance(states[i], states[i + 1]) for i in range(len(states) - 1)])
    got, pairs = average_consecutive_distance(table, ell, "bures")
    assert pairs == len(table) - 1
    assert abs(got - manual) < 1e-12
    with pytest.raises(ValueError):
        average_consecutive_distance(table, ell, "hamming")


def test_gaussian_and_dense_pipelines_agree():
    # same average through correlation matrices and through 2^ell oracles
    table = sort_spectrum(enumerate_spectrum(0.5, 5))
    for ell in (1, 2):
        states = [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, ell)]
        rhos = [density_from_gamma(s) for s in states]
        dense_avg = np.mean(
            [
                np.sqrt(2.0 * (1.0 - min(1.0, fidelity_dense(rhos[i], rhos[i + 1]))))
                for i in range(len(rhos) - 1)
            ]
        )
        got, _ = average_consecutive_distance(table, ell, "bures")
        assert abs(got - dense_avg) < 1e-9


# ---------------------------------------------------------------------- sweeps


def test_ising_sweep_frozen_values():
    # the ell = 2 row and the fit come from the 40-digit oracle of
    # tests/mp_oracle.py: 0.27392380839330677950545 for ell = 2 and
    # 0.57052022862674532208 for ell = 3 (the same to 24 digits at 80)
    res = ising_sweep(8, 1.0, "bures", range(1, 5), fit=True)
    want = [
        (1, 0.0252917532368037),
        (2, 0.27392380839330677),
        (3, 0.5705202286267503),
        (4, 0.8404395293557174),
    ]
    assert [r[0] for r in res.rows] == [w[0] for w in want]
    for (ell, avg, pairs), (_, expect) in zip(res.rows, want):
        assert pairs == 255
        assert abs(avg - expect) < 1e-10
    assert abs(res.fit["slope"] - 1.6778027201817531) < 1e-10
    assert abs(res.fit["intercept"] - (-0.22575729760208635)) < 1e-10
    assert (res.fit["ell_min"], res.fit["ell_max"]) == (2, 3)


def test_ising_sweep_trace_frozen_values():
    # the dense path: density_from_gamma, then trace_distance, per pair
    res = ising_sweep(8, 1.0, "trace", range(1, 6), fit=True)
    want = [
        (1, 0.02405771388241094),
        (2, 0.2231508174062564),
        (3, 0.44730115693694933),
        (4, 0.6509549876162412),
        (5, 0.8170939031273834),
    ]
    assert [r[0] for r in res.rows] == [w[0] for w in want]
    for (ell, avg, pairs), (_, expect) in zip(res.rows, want):
        assert pairs == 255
        assert abs(avg - expect) < 1e-10
    assert abs(res.fit["slope"] - 1.7932027162455422) < 1e-10
    assert abs(res.fit["intercept"] - (-0.22514986165512904)) < 1e-10
    assert (res.fit["ell_min"], res.fit["ell_max"]) == (2, 3)


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_sweep_holds_a_few_blocks_of_dense_states():
    # the 256 states of ell = 6 are 8 MiB of parity blocks; the sweep holds
    # two blocks of TRACE_STACK_ELEMENTS entries, one block of differences
    # and their temporaries, about 1.7 MiB against 2.8 MiB when it built
    # full matrices
    ising_sweep(8, 1.0, "trace", [6])  # fills the size-keyed plan caches
    res, peak = _traced_peak(lambda: ising_sweep(8, 1.0, "trace", [6]))
    assert peak < 2.25 * 2**20
    assert res.rows == ising_sweep(8, 1.0, "trace", [6]).rows


def test_all_pairs_trace_sweep_is_tiled(monkeypatch):
    # a budget of one state per block: the 40 states at ell = 6 are 2.5 MiB,
    # 40 times the budget; the sweep holds two of them, one difference and
    # the temporaries of building and comparing them
    monkeypatch.setattr(experiments, "TRACE_STACK_ELEMENTS", 4**6)
    spec = RandomEnsembleSpec(L=8, count=40, seed=0)
    every_state = spec.count * 4**6 * 16
    random_sweep(RandomEnsembleSpec(L=8, count=2, seed=0), "trace", [6])  # fills the plan caches
    res, peak = _traced_peak(lambda: random_sweep(spec, "trace", [6]))
    assert peak < every_state / 2
    monkeypatch.undo()
    assert res.rows == random_sweep(spec, "trace", [6]).rows


@pytest.mark.parametrize("budget", [4, 4**2, 3 * 4**2])
def test_trace_values_do_not_depend_on_the_blocks(monkeypatch, budget):
    # blocks of (1, 1, 1), (4, 1, 1) and (12, 3, 1) states at ell = 1, 2, 3
    # against one block for the whole table; each value goes to its own
    # pair, so the rows keep every bit
    table = apply_ordering(enumerate_spectrum(1.0, 5), "charges:default")
    spec = RandomEnsembleSpec(L=6, count=7, seed=2)
    want = (ising_sweep(5, 1.0, "trace", [1, 2, 3]).rows, random_sweep(spec, "trace", [1, 2, 3]).rows)
    monkeypatch.setattr(experiments, "TRACE_STACK_ELEMENTS", budget)
    assert ising_sweep(5, 1.0, "trace", [1, 2, 3]).rows == want[0]
    assert random_sweep(spec, "trace", [1, 2, 3]).rows == want[1]
    m = subsystem_correlations(table, 2)
    states = [CorrelationMatrix(row, validate=False) for row in m]
    pairs = [(i, j) for i in range(0, 32, 3) for j in range(i + 1, 32, 5)]
    got = experiments._pair_distances(m, pairs, "trace")
    assert got.tolist() == [_trace_of(states[i], states[j]) for i, j in pairs]


@pytest.mark.parametrize("metric", ["bures", "trace"])
def test_every_distance_path_checks_the_whole_stack(metric):
    # 2050 states at ell = 2 are two trace blocks, and the pair (0, 1) builds
    # only the first; the last state, outside it, is not antisymmetric
    m = np.stack([state.m for state in sample_ensemble(RandomEnsembleSpec(4, 2050, 0))])[:, :4, :4].copy()
    m[-1] += 0.1 * np.eye(4)
    assert experiments.TRACE_STACK_ELEMENTS // 4**2 < len(m) - 1
    with pytest.raises(ValueError, match="not antisymmetric"):
        experiments._pair_distances(m, [(0, 1)], metric)


def test_ising_sweep_sector_restriction():
    res = ising_sweep(6, 1.0, "trace", [2], sector_filter=(1, 0))
    assert res.sector == "P=+1,K=0"
    assert res.rows[0][2] < 2**6 - 1  # strictly fewer pairs than the full table


def test_xxz_sweep_frozen_values():
    res = xxz_sweep(8, 1, 2, float(np.sqrt(2.0)), "bures", [2, 3])
    assert res.sector == "K=1,n_down=2"
    assert res.rows[0][2] == 3
    assert abs(res.rows[0][1] - 0.39394404043551495) < 1e-10
    assert abs(res.rows[1][1] - 0.7124111438260883) < 1e-10


def test_xxz_sweep_bytes_are_pinned():
    # ell > L / 2 reaches rank-deficient reduced states; the L = 12 sweep is
    # the first grid point of the benchmark's xxz-sector sweep
    assert xxz_sweep(8, 1, 2, float(np.sqrt(2.0)), "bures", range(1, 9)).csv_text() == (
        "model,L,param,sector,ordering,metric,ell,x,average,pairs\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,1,0.125,7.0244747518156727e-09,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,2,0.25,0.39394404043551584,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,3,0.375,0.71241114382608861,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,4,0.5,0.9564073329282321,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,5,0.625,1.1344893443672417,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,6,0.75,1.2950551351236308,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,7,0.875,1.4142135623730949,3\n"
        "xxz,8,1.4142135623730951,K=1,n_down=2,all-pairs,bures,8,1,1.4142135623730949,3\n"
    )
    assert xxz_sweep(12, 1, 4, 1.205, "bures", [2, 3, 4, 5]).csv_text() == (
        "model,L,param,sector,ordering,metric,ell,x,average,pairs\n"
        "xxz,12,1.2050000000000001,K=1,n_down=4,all-pairs,bures,2,0.16666666666666666,0.23909096716113432,780\n"
        "xxz,12,1.2050000000000001,K=1,n_down=4,all-pairs,bures,3,0.25,0.47805304002555665,780\n"
        "xxz,12,1.2050000000000001,K=1,n_down=4,all-pairs,bures,4,0.33333333333333331,0.725806638251414,780\n"
        "xxz,12,1.2050000000000001,K=1,n_down=4,all-pairs,bures,5,0.41666666666666669,0.93463819078168164,780\n"
    )


def test_random_reduce_sweep_bytes_are_pinned():
    # ell > L / 2 of pure random states: every pair with unit pairs on both
    # sides goes through the reduce branch; the L = 64 rows are those of the
    # benchmark's random-wide sweep, regular at ell = 24 and reduce at 40
    assert random_sweep(RandomEnsembleSpec(L=8, count=6, seed=3), "bures", [5, 6, 7]).csv_text() == (
        "model,L,param,sector,ordering,metric,ell,x,average,pairs\n"
        "random,8,3,count=6,all-pairs,bures,5,0.625,1.1440221338947858,15\n"
        "random,8,3,count=6,all-pairs,bures,6,0.75,1.2724920408267748,15\n"
        "random,8,3,count=6,all-pairs,bures,7,0.875,1.330465706206041,15\n"
    )
    assert random_sweep(RandomEnsembleSpec(L=64, count=12, seed=0), "bures", [24, 40]).csv_text() == (
        "model,L,param,sector,ordering,metric,ell,x,average,pairs\n"
        "random,64,0,count=12,all-pairs,bures,24,0.375,1.3685963878393999,66\n"
        "random,64,0,count=12,all-pairs,bures,40,0.625,1.4141335977199967,66\n"
    )


@pytest.mark.xfail(strict=True, reason="sqrt(2 (1 - F)) cancels on dense reduced states ulps from F = 1")
def test_xxz_single_site_bures_average_is_zero():
    # every single-site reduced state of a translation-invariant eigenstate
    # with fixed magnetization is diag(1 - n_down / L, n_down / L), so the
    # exact average is 0; the dense fidelity of one pair lands two ulps below
    # 1 and the average reads 7.0244747518156727e-09 (pinned above)
    _, average, _ = xxz_sweep(8, 1, 2, float(np.sqrt(2.0)), "bures", [1]).rows[0]
    assert average < 1e-12


def test_xxz_sidecar_carries_h_z():
    sidecars = [json.loads(xxz_sweep(8, 1, 2, 1.0, "bures", [2], h_z=h_z).sidecar_text()) for h_z in (0.0, 0.3)]
    assert [meta["h_z"] for meta in sidecars] == [0.0, 0.3]
    assert "h_z" not in json.loads(ising_sweep(6, 1.0, "bures", [1]).sidecar_text())


def test_sidecar_bytes_are_pinned():
    # every field that is set, rows as their count, keys sorted; h_z only
    # for XXZ sweeps and fit only under fit=True
    assert xxz_sweep(8, 1, 2, 1.0, "bures", [2], h_z=0.3).sidecar_text() == (
        '{\n  "L": 8,\n  "h_z": 0.3,\n  "metric": "bures",\n  "model": "xxz",\n  "ordering": "all-pairs",\n'
        '  "param": 1.0,\n  "rows": 1,\n  "sector": "K=1,n_down=2"\n}\n'
    )
    assert random_sweep(RandomEnsembleSpec(L=6, count=4, seed=3), "bures", [1, 2]).sidecar_text() == (
        '{\n  "L": 6,\n  "metric": "bures",\n  "model": "random",\n  "ordering": "all-pairs",\n'
        '  "param": 3,\n  "rows": 2,\n  "sector": "count=4"\n}\n'
    )
    assert ising_sweep(8, 1.0, "bures", range(1, 5), fit=True).sidecar_text() == (
        '{\n  "L": 8,\n  "fit": {\n    "ell_max": 3,\n    "ell_min": 2,\n'
        '    "intercept": -0.22575729760208513,\n    "slope": 1.677802720181749\n  },\n'
        '  "metric": "bures",\n  "model": "ising",\n  "ordering": "charges:0-1-2-3-4-5-6-7",\n'
        '  "param": 1.0,\n  "rows": 4,\n  "sector": "full"\n}\n'
    )


def test_random_sweep_scaled_average_stays_bounded():
    spec = RandomEnsembleSpec(L=6, count=8, seed=3)
    res = random_sweep(spec, "bures", [1, 2, 3])
    assert all(r[2] == spec.pair_count for r in res.rows)
    for _, avg, _ in res.rows:
        assert avg / np.sqrt(2.0) <= 1.0 + 1e-9
    again = random_sweep(spec, "bures", [1, 2, 3])
    assert res.csv_text() == again.csv_text()


def test_random_sweep_rejects_bad_metric():
    with pytest.raises(ValueError):
        random_sweep(RandomEnsembleSpec(L=4, count=4), "overlap", [1])


@pytest.mark.parametrize("metric", ["bures", "trace"])
@pytest.mark.parametrize("ell", [0, 9])
def test_random_sweep_rejects_ell_outside_the_chain(monkeypatch, metric, ell):
    # the sweep slices each state's leading 2 ell rows, which checks no
    # bounds; an ell outside 1..L must raise before anything is sampled
    def no_sampling(spec):
        raise AssertionError("sampled before the ell check")

    monkeypatch.setattr(experiments, "sample_ensemble", no_sampling)
    with pytest.raises(ValueError, match=f"cannot keep {ell} of 8 modes"):
        random_sweep(RandomEnsembleSpec(L=8, count=4), metric, [2, ell])


# what each sweep builds first: the table it enumerates, the sector it walks
# or the ensemble it samples
_FIRST_BUILD = {"ising": "enumerate_spectrum", "xxz": "xxz_sector_basis", "random": "sample_ensemble"}


def _sweep(model: str, L: int, metric: str, ells, fit: bool):
    if model == "ising":
        return ising_sweep(L, 1.0, metric, ells, fit=fit)
    if model == "xxz":
        return xxz_sweep(L, 1, 2, 1.0, metric, ells, fit=fit)
    return random_sweep(RandomEnsembleSpec(L=L, count=4), metric, ells, fit=fit)


@pytest.mark.parametrize("model", sorted(_FIRST_BUILD))
@pytest.mark.parametrize(
    "metric, ells, fit, match",
    [
        ("overlap", [2, 3], False, "metric must be 'bures' or 'trace', got 'overlap'"),
        ("bures", [2, 0], False, "cannot keep 0 of 8 modes"),
        ("trace", [2, 9], False, "cannot keep 9 of 8 modes"),
        ("bures", [1, 2, 4], True, "need at least two points with 2 <= ell <= 3, have 1"),
        ("trace", [], True, "need at least two points with 2 <= ell <= 3, have 0"),
    ],
    ids=["metric", "ell-0", "ell-9", "fit-1-point", "fit-0-points"],
)
def test_sweep_rejects_a_bad_request_before_building_anything(monkeypatch, model, metric, ells, fit, match):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the request was checked")

    monkeypatch.setattr(experiments, _FIRST_BUILD[model], no_build)
    with pytest.raises(ValueError, match=match):
        _sweep(model, 8, metric, ells, fit)


@pytest.mark.parametrize("model", sorted(_FIRST_BUILD))
def test_trace_sweep_checks_the_dense_guard_before_building_anything(monkeypatch, model):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the request was checked")

    monkeypatch.setattr(experiments, _FIRST_BUILD[model], no_build)
    with pytest.raises(GuardExceeded):
        _sweep(model, 14, "trace", [2, 13], False)


# ------------------------------------------------------------------ csv export


def test_csv_header_and_lossless_round_trip():
    res = ising_sweep(6, 1.0, "bures", [1, 2])
    text = res.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "model,L,param,sector,ordering,metric,ell,x,average,pairs"
    for line, (ell, avg, pairs) in zip(lines[1:], res.rows):
        cells = line.split(",")
        assert cells[0] == "ising" and cells[5] == "bures"
        assert int(cells[6]) == ell and int(cells[9]) == pairs
        # 17 significant digits survive the text round trip bit-exactly
        assert float(cells[7]) == ell / 6
        assert float(cells[8]) == avg


def test_large_integer_seed_round_trips_exactly():
    # an int seed is written with str, not rounded to 17 digits
    seed = 123456789012345678901
    res = random_sweep(RandomEnsembleSpec(L=4, count=3, seed=seed), "bures", [1])
    cells = res.csv_text().split("\n")[1].split(",")
    assert cells[2] == str(seed) and int(cells[2]) == seed


def test_write_csv_cells():
    buf = io.StringIO()
    _write_csv(buf, ["i", "x", "s"], [range(2), np.array([0.1, 1 / 3]), ["a", "b=1,c"]])
    assert buf.getvalue() == "i,x,s\n0,0.10000000000000001,a\n1,0.33333333333333331,b=1,c\n"


def test_write_csv_rejects_header_column_mismatch():
    with pytest.raises(ValueError, match="2 cells but there are 3 columns"):
        _write_csv(io.StringIO(), ["a", "b"], [[1], [2], [3]])
    table = enumerate_spectrum(1.0, 5)
    for count in (9, -2):
        with pytest.raises(ValueError):
            write_spectrum_csv(table, io.StringIO(), charge_count=count)


def test_write_csv_rejects_unequal_columns():
    # zip would stop at the shortest column and drop rows without a word
    for columns in ([[1, 2, 3], [0.5]], [np.arange(3.0), range(2)], [np.zeros(1025), np.zeros(1024)]):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="equally long"):
            _write_csv(buf, ["a", "b"], columns)
        assert buf.getvalue() == ""


def _per_cell_csv(header, columns) -> str:
    """The writer's cell rule applied one cell at a time, the loop that the
    block writer replaced: the reference its bytes are held to."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    float(np.array(0x7FF8000000000001).view(np.float64)),  # a NaN with a payload
    float(np.array(-0x0008000000000001).view(np.float64)),  # a negative NaN with a payload
    0.1, 1 / 3, 1e16, -123456789.125, 1.7976931348623157e308,
]


def _column(kind, pool, n, rng):
    values = pool[rng.integers(0, len(pool), size=n)]
    if kind == "float64":
        return values
    if kind == "float64-strided":
        return np.repeat(values, 2)[1::2]
    if kind == "int":
        return rng.integers(-(10**15), 10**15, size=n)
    if kind == "bool":
        return rng.integers(0, 2, size=n).astype(bool)
    if kind == "python-floats":
        return values.tolist()
    if kind == "numpy-floats":
        return list(values)
    if kind == "strings":
        return [("NS", "R", "K=1,n_down=4", "")[i] for i in rng.integers(0, 4, size=n)]
    start = int(rng.integers(-5, 5))
    return range(start, start + n)


_KINDS = ["float64", "float64-strided", "int", "bool", "python-floats", "numpy-floats", "strings", "range"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pool=st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()), min_size=1, max_size=30),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
    rows=st.sampled_from([0, 1, 1023, 1024, 1025, 3079]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_per_cell_reference(pool, kinds, rows, seed):
    rng = np.random.default_rng(seed)
    columns = [_column(kind, np.array(pool, dtype=np.float64), rows, rng) for kind in kinds]
    header = [f"c{k}" for k in range(len(columns))]
    buf = io.StringIO()
    _write_csv(buf, header, columns)
    assert buf.getvalue() == _per_cell_csv(header, columns)


def test_write_spectrum_csv_streams_in_bounded_memory(tmp_path):
    # the writer formats and writes CSV_BLOCK_ROWS rows at a time: writing the
    # 16,384-row L = 14 table by way of a whole-table tolist peaked at about 9 MB,
    # the block writer at 2.5 MB
    table = apply_ordering(enumerate_spectrum(1.0, 14), "charges:default")
    with open(tmp_path / "spectrum.csv", "w") as stream:
        tracemalloc.start()
        try:
            write_spectrum_csv(table, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5_000_000
    assert (tmp_path / "spectrum.csv").read_text().count("\n") == len(table) + 1


def test_sidecar_carries_fit():
    res = ising_sweep(8, 1.0, "bures", range(1, 5), fit=True)
    meta = json.loads(res.sidecar_text())
    assert meta["rows"] == 4
    assert set(meta["fit"]) == {"slope", "intercept", "ell_min", "ell_max"}


def test_write_spectrum_csv():
    table = sort_spectrum(enumerate_spectrum(1.0, 5))
    buf = io.StringIO()
    write_spectrum_csv(table, buf, charge_count=3)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,sector,mask,energy,parity,momentum,Q0,Q1,Q2"
    assert len(lines) == len(table) + 1
    energies = [float(line.split(",")[3]) for line in lines[1:]]
    assert np.all(np.diff(energies) >= -1e-12)


@pytest.mark.parametrize("sector_filter", [(-1, None), None])
def test_write_spectrum_csv_parity_and_momentum_cells(sector_filter):
    table = sort_spectrum(enumerate_spectrum(0.9, 8, sector_filter=sector_filter))
    buf = io.StringIO()
    write_spectrum_csv(table, buf)
    rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
    assert len(rows) == len(table)
    for i, row in enumerate(rows):
        label = table.label(i)
        assert (row[1], int(row[4]), int(row[5])) == (label.sector, label.parity, label.momentum)


def test_write_charge_profiles():
    table = sort_spectrum(enumerate_spectrum(1.0, 5))
    buf = io.StringIO()
    write_charge_profiles(table, (0, 2), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,Q0,Q2"
    q0 = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.all(np.diff(q0) >= -1e-12)  # sorted table: Q0 monotone
    # a shuffled table is not
    shuffled = apply_ordering(table, "random:5")
    buf2 = io.StringIO()
    write_charge_profiles(shuffled, (0,), buf2)
    q0s = [float(line.split(",")[1]) for line in buf2.getvalue().strip().split("\n")[1:]]
    assert np.any(np.diff(q0s) < 0)


def test_export_writers_reject_out_of_range_charges():
    # a negative index would wrap around to Q_{L-1}; nothing is written
    table = enumerate_spectrum(1.0, 4)
    assert table.charges.shape[1] == 4
    for indices in ([-1], [4], [9], [0, 4]):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"charge indices must lie in 0\.\.3"):
            write_charge_profiles(table, indices, buf)
        assert buf.getvalue() == ""
    for count in (-1, 5):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"charge count must lie in 0\.\.4"):
            write_spectrum_csv(table, buf, count)
        assert buf.getvalue() == ""


# ------------------------------------------------------------- batched pairs


def _branch(a, b):
    if a.ell == 1:
        return "single"
    x1, x2 = a.unit_pair_count(), b.unit_pair_count()
    if x1 == 0 and x2 == 0:
        return "regular"
    return "pure" if a.ell in (x1, x2) else "reduce"


def _trace_of(a, b):
    """Trace distance of one pair, each state built by the sweep's builder as
    a stack of one, as the sum of its two parity blocks' distances;
    tests/test_dense.py ties that builder to the product-form oracle
    ``density_from_gamma`` and the block sum to the full matrices'."""
    return float(trace_distance(density_stack(a.m[None])[0], density_stack(b.m[None])[0]).sum())


def test_sweep_averages_match_per_pair_loop():
    # ell = 1 is single-mode, 2..3 regular, 4..5 reduce and ell = L = 6 pure
    table = apply_ordering(enumerate_spectrum(1.0, 6), "charges:default")
    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    ensemble = sample_ensemble(spec)
    for metric, distance in (("bures", bures_distance), ("trace", _trace_of)):
        res = ising_sweep(6, 1.0, metric, range(1, 7))
        branches = set()
        for ell, average, _ in res.rows:
            states = [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, ell)]
            pairs = list(zip(states, states[1:]))
            branches.update(_branch(a, b) for a, b in pairs)
            assert average == float(np.mean([distance(a, b) for a, b in pairs]))
        assert branches == {"single", "regular", "reduce", "pure"}

        res = random_sweep(spec, metric, [2, 3, 4, 5, 6])
        branches = set()
        for ell, average, _ in res.rows:
            blocks = [s.restrict(ell) for s in ensemble]
            pairs = [(blocks[i], blocks[j]) for i in range(spec.count) for j in range(i + 1, spec.count)]
            branches.update(_branch(a, b) for a, b in pairs)
            assert average == float(np.mean([distance(a, b) for a, b in pairs]))
        assert branches == {"regular", "reduce"}
