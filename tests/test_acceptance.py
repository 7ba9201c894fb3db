"""End-to-end acceptance checks against dense oracles and frozen targets.

Each test prints one bracketed PASS/FAIL line with its measured numbers
(run ``pytest -rA`` to see the lines for passing tests too), then asserts.

Two scaling checks are asserted where the quantity they test is defined.
Criterion 6 compares |slope - 2| between L = 8 and L = 16, the two sizes
whose fit windows (ell = 2..3 and ell = 4..6) fall on the same x points,
1/4 to 3/8. At L = 12, 14 and 16 the windows fall on different x points,
and the gap does not shrink step by step there. Criterion 9 asserts the
0.9 level of the random ensemble at L = 128. The level at x = 1/4 climbs
slowly with L (0.48 at L = 16, 0.82 at L = 64, 0.95 at L = 128) and first
passes 0.9 near L = 95. The no-slope-2 check uses the L = 64 window.
The printed lines carry every measured value, including the sizes that
are not asserted.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import (
    package_env,
    planted_state,
    rand_rotation,
    rand_special_rotation,
    random_mixed_state,
)
from fgdist.correlation import bures_distance, fidelity
from fgdist.dense import (
    density_from_gamma,
    fidelity_dense,
    partial_trace,
    trace_distance,
)
from fgdist.experiments import (
    _gaussian_states,
    fit_window,
    ising_sweep,
    linear_slope_fit,
    random_sweep,
    xxz_sweep,
)
from fgdist.ising import (
    EigenstateLabel,
    degeneracy_ratio,
    enumerate_spectrum,
    eigenstate_correlation,
    mode_number_difference,
    sector_momenta,
    sort_spectrum,
)
from fgdist.ising_dense import charge_operator, eigenstate_vector, ising_hamiltonian
from fgdist.random_ensemble import RandomEnsembleSpec
from fgdist.xxz import (
    xxz_block_hamiltonian,
    xxz_dense_hamiltonian,
    xxz_pairwise_average,
    xxz_sector_basis,
)

FIELDS = (0.5, 1.0, 2.0)


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


# Consecutive-pair data reused by criteria 1 and 8: for each (h, ell) a list
# of (F_gaussian, F_dense, D_dense) over the energy-sorted L = 6 spectrum.
_SPECTRUM_PAIRS = {}


def _spectrum_pair_data():
    if not _SPECTRUM_PAIRS:
        L = 6
        for h in FIELDS:
            table = sort_spectrum(enumerate_spectrum(h, L))
            vecs = [eigenstate_vector(table.label(i)) for i in range(len(table))]
            for ell in (1, 2, 3):
                states = _gaussian_states(table, ell)
                rhos = [partial_trace(v, L, ell) for v in vecs]
                _SPECTRUM_PAIRS[(h, ell)] = [
                    (
                        fidelity(states[i], states[i + 1]),
                        fidelity_dense(rhos[i], rhos[i + 1]),
                        trace_distance(rhos[i], rhos[i + 1]),
                    )
                    for i in range(len(table) - 1)
                ]
    return _SPECTRUM_PAIRS


# Per-pair (F_gaussian, D_dense) at L = 12 for ell = 1..5, reused by 7 and 8.
_TRACE_PAIRS = {}


def _trace_pair_data():
    if not _TRACE_PAIRS:
        table = sort_spectrum(enumerate_spectrum(1.0, 12))
        for ell in range(1, 6):
            states = _gaussian_states(table, ell)
            rhos = [density_from_gamma(s) for s in states]
            _TRACE_PAIRS[ell] = [
                (
                    fidelity(states[i], states[i + 1]),
                    trace_distance(rhos[i], rhos[i + 1]),
                )
                for i in range(len(table) - 1)
            ]
    return _TRACE_PAIRS


def test_criterion_01_fidelity_matches_dense_oracle():
    t0 = time.perf_counter()
    data = _spectrum_pair_data()
    elapsed = time.perf_counter() - t0
    worst = max(abs(fg - fd) for rows in data.values() for fg, fd, _ in rows)
    pairs = sum(len(rows) for rows in data.values())
    ok = worst < 1e-9 and elapsed < 60.0
    _report(
        "criterion 01",
        ok,
        f"{pairs} consecutive pairs at L = 6, "
        f"worst |F_gaussian - F_dense| = {worst:.3e}, {elapsed:.1f} s",
    )
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_02_branch_coverage_against_dense():
    rng = np.random.default_rng(20260815)
    counts = {"single": 0, "regular": 0, "all-unit": 0, "partial": 0}
    worst = 0.0

    def branch_of(a, b):
        # mirror the dispatch order: 2x2 closed form, then unit-pair census
        ell = a.m.shape[0] // 2
        if ell == 1:
            return "single"
        x1, x2 = a.unit_pair_count(), b.unit_pair_count()
        if x1 == 0 and x2 == 0:
            return "regular"
        if x1 == ell or x2 == ell:
            return "all-unit"
        return "partial"

    def check(a, b):
        nonlocal worst
        got = fidelity(a, b)
        want = fidelity_dense(density_from_gamma(a), density_from_gamma(b))
        worst = max(worst, abs(got - want))
        counts[branch_of(a, b)] += 1

    for _ in range(300):
        check(random_mixed_state(1, rng), random_mixed_state(1, rng))
    for k in range(250):
        ell = 2 + k % 4
        check(random_mixed_state(ell, rng), random_mixed_state(ell, rng))
    for k in range(100):
        # pair values just below the unit threshold stress the composition route
        ell = 2 + k % 4
        g1 = rng.uniform(0.1, 0.9, size=ell)
        g2 = rng.uniform(0.1, 0.9, size=ell)
        g1[0] = 1.0 - rng.uniform(1e-5, 1e-4)
        g2[0] = 1.0 - rng.uniform(1e-5, 1e-4)
        check(planted_state(g1, rng=rng), planted_state(g2, rng=rng))
    for k in range(150):
        # pure pairs of equal parity; opposite parity would be exactly orthogonal
        ell = 2 + k % 4
        check(
            planted_state(np.ones(ell), rotation=rand_special_rotation(2 * ell, rng)),
            planted_state(np.ones(ell), rotation=rand_special_rotation(2 * ell, rng)),
        )
    for k in range(100):
        ell = 2 + k % 4
        check(
            planted_state(np.ones(ell), rotation=rand_rotation(2 * ell, rng)),
            random_mixed_state(ell, rng),
        )
    for k in range(150):
        # unit pairs on one side only
        ell = 3 + k % 3
        units = 1 + k % (ell - 1)
        g1 = np.concatenate([np.ones(units), rng.uniform(0.1, 0.9, size=ell - units)])
        check(
            planted_state(g1, rotation=rand_rotation(2 * ell, rng)),
            random_mixed_state(ell, rng),
        )
    for k in range(50):
        # unit pairs on both sides, generically misaligned
        ell = 3 + k % 3
        u1 = 1 + k % (ell - 1)
        u2 = 1 + (k // 2) % (ell - 1)
        g1 = np.concatenate([np.ones(u1), rng.uniform(0.1, 0.9, size=ell - u1)])
        g2 = np.concatenate([np.ones(u2), rng.uniform(0.1, 0.9, size=ell - u2)])
        check(
            planted_state(g1, rotation=rand_rotation(2 * ell, rng)),
            planted_state(g2, rotation=rand_rotation(2 * ell, rng)),
        )

    total = sum(counts.values())
    ok = (
        total >= 1000
        and counts["partial"] >= 100
        and all(c > 0 for c in counts.values())
        and worst < 1e-9
    )
    _report(
        "criterion 02",
        ok,
        f"{total} randomized pairs {counts}, "
        f"worst |F_gaussian - F_dense| = {worst:.3e}",
    )
    assert total >= 1000
    assert counts["partial"] >= 100
    assert all(c > 0 for c in counts.values()), counts
    assert worst < 1e-9


def test_criterion_03_spectrum_matches_dense_diagonalization():
    worst = 0.0
    for h in FIELDS:
        for L in range(2, 9):
            table = enumerate_spectrum(h, L)
            dense = np.linalg.eigvalsh(ising_hamiltonian(h, L))
            worst = max(worst, float(np.max(np.abs(np.sort(table.energy) - dense))))
    ok = worst < 1e-10
    _report(
        "criterion 03",
        ok,
        f"energy multisets for L = 2..8 and h in {FIELDS}, worst gap = {worst:.3e}",
    )
    assert worst < 1e-10


def test_criterion_04_charges_commute_and_match_mode_sums():
    worst_comm = 0.0
    worst_expect = 0.0
    for h in FIELDS:
        for L in (4, 5, 6):
            H = ising_hamiltonian(h, L)
            table = enumerate_spectrum(h, L)
            vecs = [eigenstate_vector(table.label(i)) for i in range(len(table))]
            for m in range(4):
                Q = charge_operator(h, L, m)
                worst_comm = max(worst_comm, float(np.max(np.abs(Q @ H - H @ Q))))
                for i, v in enumerate(vecs):
                    want = table.label(i).charges(m + 1)[m]
                    got = float(np.real(np.conj(v) @ (Q @ v)))
                    worst_expect = max(worst_expect, abs(got - want))
    ok = worst_comm < 1e-10 and worst_expect < 1e-9
    _report(
        "criterion 04",
        ok,
        f"Q_0..Q_3 at L = 4..6: max commutator entry = {worst_comm:.3e}, "
        f"worst expectation gap = {worst_expect:.3e}",
    )
    assert worst_comm < 1e-10
    assert worst_expect < 1e-9


def test_criterion_05_degeneracy_lifting_by_charge_keys():
    ratios = {}
    for L in (7, 8, 11, 12):
        table = sort_spectrum(enumerate_spectrum(1.0, L))
        ratios[L] = [degeneracy_ratio(table, m) for m in range(L)]
    firsts = {
        L: next(m for m, r in enumerate(rs) if r == 0.0) for L, rs in ratios.items()
    }
    ok = (
        ratios[7][1] == 0.0
        and ratios[11][1] == 0.0
        and all(r > 0.0 for r in ratios[8][:7])
        and ratios[8][7] == 0.0
        and all(r > 0.0 for r in ratios[12][:11])
        and ratios[12][11] == 0.0
    )
    _report(
        "criterion 05",
        ok,
        f"first vanishing adjacent-tie ratio at m = {firsts} for h = 1",
    )
    assert ratios[7][1] == 0.0
    assert ratios[11][1] == 0.0
    assert all(r > 0.0 for r in ratios[8][:7]), ratios[8]
    assert ratios[8][7] == 0.0
    assert all(r > 0.0 for r in ratios[12][:11]), ratios[12]
    assert ratios[12][11] == 0.0


def test_criterion_06_bures_slope_window_and_gap_trend():
    slopes = {}
    for L in (8, 12, 14, 16):
        lo, hi = fit_window(L)
        res = ising_sweep(L, 1.0, "bures", list(range(lo, hi + 1)), fit=True)
        slopes[L] = res.fit["slope"]
    gaps = {L: abs(s - 2.0) for L, s in slopes.items()}
    in_range = all(1.7 <= slopes[L] <= 2.3 for L in (12, 14, 16))
    narrowing = gaps[16] < gaps[8]
    _report(
        "criterion 06",
        in_range and narrowing,
        "full-spectrum Bures slopes at L = "
        + ", ".join(f"{L}: {s:.4f}" for L, s in slopes.items())
        + "; |slope - 2|: "
        + ", ".join(f"{g:.4f}" for g in gaps.values()),
    )
    assert in_range, f"slopes {slopes} outside [1.7, 2.3]"
    # only L = 8 (ell = 2..3) and L = 16 (ell = 4..6) fit over the same x
    # points, 1/4 to 3/8. Over L = 12, 14, 16 the gap does not shrink step
    # by step, even with the curves interpolated onto x = 1/4..3/8 (slopes
    # 1.753, 1.703, 1.734), and nothing in the method says it should.
    assert narrowing, f"|slope - 2| at L = 16 is {gaps[16]:.4f}, not below {gaps[8]:.4f} at L = 8"


def test_criterion_07_trace_distance_slope_at_reduced_scale():
    data = _trace_pair_data()
    ells = sorted(data)
    averages = [float(np.mean([d for _, d in data[ell]])) for ell in ells]
    slope, _ = linear_slope_fit(ells, averages, 12, metric="trace")
    ok = 1.6 <= slope <= 2.4
    _report(
        "criterion 07",
        ok,
        f"trace-distance slope {slope:.4f} over ell window {fit_window(12)} at L = 12",
    )
    assert 1.6 <= slope <= 2.4


def test_criterion_08_fuchs_van_de_graaff_bounds():
    min_left = np.inf
    max_right = -np.inf
    checked = 0
    def scan(F, D):
        nonlocal min_left, max_right, checked
        min_left = min(min_left, D - (1.0 - F))
        max_right = max(max_right, D - np.sqrt(max(0.0, 1.0 - F * F)))
        checked += 1

    for rows in _spectrum_pair_data().values():
        for _, fd, dd in rows:
            scan(fd, dd)
    for pairs in _trace_pair_data().values():
        for fg, dd in pairs:
            scan(fg, dd)
    ok = min_left >= -1e-12 and max_right <= 1e-9
    _report(
        "criterion 08",
        ok,
        f"{checked} pairs: min(D - (1 - F)) = {min_left:.2e}, "
        f"max(D - sqrt(1 - F^2)) = {max_right:.2e}",
    )
    # degenerate partners saturate the lower bound; 1e-12 absorbs the
    # sub-ulp rounding of two quantities that are equal in exact arithmetic
    assert min_left >= -1e-12
    assert max_right <= 1e-9


def test_criterion_09_random_ensemble_quarter_cut_levels():
    levels = {}
    for L in (8, 12, 16, 128):
        res = random_sweep(RandomEnsembleSpec(L=L, count=32, seed=0), "bures", [L // 4])
        levels[L] = res.rows[0][1] / np.sqrt(2.0)
    lo, hi = fit_window(64)
    fit64 = random_sweep(
        RandomEnsembleSpec(L=64, count=32, seed=0),
        "bures",
        list(range(lo, hi + 1)),
        fit=True,
    )
    levels[64] = next(avg for ell, avg, _ in fit64.rows if ell == 16) / np.sqrt(2.0)
    slope = fit64.fit["slope"]
    sizes = sorted(levels)
    monotone = all(levels[a] < levels[b] for a, b in zip(sizes, sizes[1:]))
    no_linear_region = abs(slope - 2.0) > 0.3
    exceeds = levels[128] > 0.9
    _report(
        "criterion 09",
        monotone and no_linear_region and exceeds,
        "scaled averages at x = 0.25: "
        + " -> ".join(f"{levels[L]:.4f} (L = {L})" for L in sizes)
        + f"; window slope at L = 64: {slope:.4f}",
    )
    assert monotone, levels
    # small windows still sit near 2 by chance (L = 16 gives 1.70-1.85
    # across seeds, L = 32 gives 1.81-1.88); at L = 64 the slope is about 1.37
    assert no_linear_region, f"window slope {slope} sits within 0.3 of 2"
    # the level follows F ~ exp(-0.07 ell) toward the ceiling 1 and first
    # passes 0.9 near L = 95; at L = 16 it is 0.4785, matching the dense oracle
    assert exceeds, f"scaled average at L = 128 is {levels[128]:.4f}, not above 0.9"


def test_criterion_10_mode_number_difference_stays_small():
    vals = {}
    for L in (8, 10, 12):
        table = sort_spectrum(enumerate_spectrum(1.0, L))
        vals[L] = mode_number_difference(table)
    ok = all(v < 1.2 for v in vals.values())
    _report(
        "criterion 10",
        ok,
        "adjacent-pair mode differences "
        + ", ".join(f"L = {L}: {v:.4f}" for L, v in vals.items()),
    )
    for L, v in vals.items():
        assert v < 1.2, (L, v)


def test_criterion_11_xxz_slopes_spectra_and_field_shift():
    delta = float(np.sqrt(2.0))
    slopes = {}
    for metric in ("trace", "bures"):
        res = xxz_sweep(12, 1, 2, delta, metric, [3, 4], fit=True)
        slopes[metric] = res.fit["slope"]

    worst_union = 0.0
    for L in (4, 6, 8, 10):
        sectors = (
            xxz_sector_basis(L, K, nd) for K in range(L) for nd in range(L + 1)
        )
        blocks = [
            np.linalg.eigvalsh(xxz_block_hamiltonian(sec, delta))
            for sec in sectors
            if sec.dim
        ]
        union = np.sort(np.concatenate(blocks))
        dense = np.linalg.eigvalsh(xxz_dense_hamiltonian(L, delta).toarray())
        worst_union = max(worst_union, float(np.max(np.abs(union - dense))))

    # a longitudinal field is constant inside a fixed-magnetization sector,
    # so every pairwise distance must be unchanged
    sec = xxz_sector_basis(8, 1, 2)
    worst_shift = 0.0
    for metric in ("trace", "bures"):
        for ell in (2, 3):
            base, _ = xxz_pairwise_average(sec, delta, ell, metric, 0.0)
            tilted, _ = xxz_pairwise_average(sec, delta, ell, metric, 0.7)
            worst_shift = max(worst_shift, abs(base - tilted))

    ok = (
        all(s < 2.0 for s in slopes.values())
        and worst_union < 1e-10
        and worst_shift < 1e-10
    )
    _report(
        "criterion 11",
        ok,
        f"slopes trace {slopes['trace']:.4f}, bures {slopes['bures']:.4f}; "
        f"block-union spectrum gap {worst_union:.2e}; field-shift gap {worst_shift:.2e}",
    )
    assert slopes["trace"] < 2.0
    assert slopes["bures"] < 2.0
    assert worst_union < 1e-10
    assert worst_shift < 1e-10


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    def run(args, sub):
        d = tmp_path / sub
        d.mkdir()
        out = d / "result.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fgdist", *args, "--out", str(out)],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        files["__stdout__"] = proc.stdout.encode()
        return files

    ising_args = ["sweep", "--L", "8", "--h", "1.0", "--ell-min", "1",
                  "--ell-max", "4", "--fit"]
    random_args = ["sweep", "--model", "random", "--L", "6", "--count", "8",
                   "--seed", "5", "--ell-max", "3"]
    same_ising = run(ising_args, "a") == run(ising_args, "b")
    same_random = run(random_args, "c") == run(random_args, "d")
    ok = same_ising and same_random
    _report(
        "criterion 12",
        ok,
        f"repeat invocations byte-identical: ising {same_ising}, random {same_random}",
    )
    assert same_ising
    assert same_random


def test_headline_scale_single_pair_is_fast():
    # a 29-site chain with a 28-site block stays comfortably under a second
    ks = sector_momenta(29, "NS")
    t0 = time.perf_counter()
    vac = EigenstateLabel(L=29, h=1.0, sector="NS", occupied=())
    two = EigenstateLabel(
        L=29, h=1.0, sector="NS", occupied=(int(ks[0]), int(ks[1]))
    )
    value = bures_distance(
        eigenstate_correlation(vac, 28), eigenstate_correlation(two, 28)
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0 and 0.0 < value < np.sqrt(2.0) + 1e-12
    _report(
        "headline scale",
        ok,
        f"L = 29, ell = 28 pair Bures = {value:.6f} in {elapsed * 1000:.1f} ms",
    )
    assert elapsed < 1.0
    assert 0.0 < value < np.sqrt(2.0) + 1e-12
