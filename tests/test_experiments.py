"""Sweep drivers, fits, orderings, and CSV export."""

import io
import json

import numpy as np
import pytest

from fgdist.correlation import CorrelationMatrix, bures_distance
from fgdist.dense import density_from_gamma, fidelity_dense
from fgdist.experiments import (
    CSV_HEADER,
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
    res = ising_sweep(8, 1.0, "bures", range(1, 5), fit=True)
    want = [
        (1, 0.0252917532368037),
        (2, 0.2739238091913583),
        (3, 0.5705202286267503),
        (4, 0.8404395293557174),
    ]
    assert [r[0] for r in res.rows] == [w[0] for w in want]
    for (ell, avg, pairs), (_, expect) in zip(res.rows, want):
        assert pairs == 255
        assert abs(avg - expect) < 1e-10
    assert abs(res.fit["slope"] - 1.6778027156673205) < 1e-10
    assert abs(res.fit["intercept"] - (-0.22575729590917062)) < 1e-10
    assert (res.fit["ell_min"], res.fit["ell_max"]) == (2, 3)


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


# ------------------------------------------------------------- batched pairs


def _branch(a, b):
    if a.ell == 1:
        return "single"
    x1, x2 = a.unit_pair_count(), b.unit_pair_count()
    if x1 == 0 and x2 == 0:
        return "regular"
    return "pure" if a.ell in (x1, x2) else "reduce"


def test_sweep_averages_match_per_pair_loop():
    # ell = 1 is single-mode, 2..3 regular, 4..5 reduce and ell = L = 6 pure
    table = apply_ordering(enumerate_spectrum(1.0, 6), "charges:default")
    res = ising_sweep(6, 1.0, "bures", range(1, 7))
    branches = set()
    for ell, average, _ in res.rows:
        states = [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, ell)]
        pairs = list(zip(states, states[1:]))
        branches.update(_branch(a, b) for a, b in pairs)
        assert average == float(np.mean([bures_distance(a, b) for a, b in pairs]))
    assert branches == {"single", "regular", "reduce", "pure"}

    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    ells = [2, 3, 4, 5, 6]
    res = random_sweep(spec, "bures", ells)
    states = sample_ensemble(spec)
    branches = set()
    for ell, average, _ in res.rows:
        blocks = [s.restrict(ell) for s in states]
        pairs = [(blocks[i], blocks[j]) for i in range(spec.count) for j in range(i + 1, spec.count)]
        branches.update(_branch(a, b) for a, b in pairs)
        assert average == float(np.mean([bures_distance(a, b) for a, b in pairs]))
    assert branches == {"regular", "reduce"}
