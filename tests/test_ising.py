"""Free-fermion spectrum of the periodic transverse-field chain.

Degeneracy counts and mode differences below are frozen integers from the
combinatorics of the conserved-charge sort; they have no tolerance knob.
"""

import hashlib

import numpy as np
import pytest

from fgdist.correlation import CorrelationMatrix
from fgdist.errors import GuardExceeded
from fgdist.ising import (
    EigenstateLabel,
    SpectrumTable,
    charge_weights,
    degeneracy_ratio,
    dispersion,
    enumerate_spectrum,
    eigenstate_correlation,
    mode_number_difference,
    sector_momenta,
    sort_spectrum,
    subsystem_correlations,
)


# ------------------------------------------------------------------ kinematics


def test_sector_momenta_layout():
    # doubled storage: NS holds odd integers, R holds even ones
    ns = sector_momenta(6, "NS")
    r = sector_momenta(6, "R")
    assert list(ns) == [1, 3, 5, 7, 9, 11]
    assert list(r) == [0, 2, 4, 6, 8, 10]
    assert len(sector_momenta(9, "NS")) == 9
    with pytest.raises(ValueError, match="unknown sector"):
        sector_momenta(6, "ns")


def test_dispersion_positive_except_signed_zero_mode():
    for h in (0.5, 1.0, 2.0):
        assert dispersion(h, 8, "NS").min() > 0.0
    # the unpaired R mode at k=0 carries the sign of h - 1
    r5 = dispersion(0.5, 6, "R")
    r20 = dispersion(2.0, 6, "R")
    k0 = list(sector_momenta(6, "R")).index(0)
    assert abs(r5[k0] - (-0.5)) < 1e-14
    assert abs(r20[k0] - 1.0) < 1e-14


def test_dispersion_validation():
    with pytest.raises(ValueError):
        dispersion(-0.5, 6, "NS")
    with pytest.raises(ValueError):
        dispersion(1.0, 1, "NS")


# ----------------------------------------------------------------- enumeration


def test_enumeration_counts_and_parity():
    for L in (4, 5, 6):
        table = enumerate_spectrum(1.0, L)
        assert len(table) == 2**L
        counts = table.mode_counts()
        ns = table.sector_codes == 0
        assert np.all(counts[ns] % 2 == 0)  # NS states occupy evenly
        assert np.all(counts[~ns] % 2 == 1)
        # masks unique within each sector
        for code in (0, 1):
            masks = table.masks[table.sector_codes == code]
            assert len(np.unique(masks)) == len(masks)


def test_enumeration_sector_filter():
    table = enumerate_spectrum(1.0, 6, sector_filter=(1, 0))
    assert len(table) > 0
    assert np.all(table.parity == 1)
    assert np.all(table.momentum == 0)
    partial = enumerate_spectrum(1.0, 6, sector_filter=(None, 2))
    assert np.all(partial.momentum == 2)
    assert set(partial.parity.tolist()) == {1, -1}


@pytest.mark.parametrize(
    "sector_filter, match",
    [((0, None), "parity filter"), ((2, 1), "parity filter"), ((None, -1), "momentum filter"), ((1, 6), "momentum filter")],
)
def test_enumeration_rejects_bad_sector_filter(sector_filter, match):
    with pytest.raises(ValueError, match=match):
        enumerate_spectrum(1.0, 6, sector_filter=sector_filter)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_spectrum(1.0, 17)


def test_label_validation():
    with pytest.raises(ValueError):
        EigenstateLabel(L=6, h=1.0, sector="NS", occupied=(0,))  # R momentum
    with pytest.raises(ValueError):
        EigenstateLabel(L=6, h=1.0, sector="NS", occupied=(1,))  # odd count
    with pytest.raises(ValueError):
        EigenstateLabel(L=6, h=1.0, sector="R", occupied=(0, 2))  # even count
    with pytest.raises(ValueError, match="distinct"):
        EigenstateLabel(L=6, h=1.0, sector="NS", occupied=(1, 1))


def test_label_round_trip():
    rng = np.random.default_rng(3)
    table = enumerate_spectrum(0.7, 6)
    for i in rng.integers(
        0, len(table), size=12
    ):
        label = table.label(int(i))
        assert abs(label.energy - table.energy[i]) < 1e-12
        assert label.momentum == table.momentum[i]
        assert label.parity == table.parity[i]


def test_charges_first_entry_is_energy():
    table = enumerate_spectrum(1.3, 5)
    assert np.abs(table.charges[:, 0] - table.energy).max() < 1e-12


def test_charge_weights_shape():
    w = charge_weights(1.0, 6, "NS", 4)
    assert w.shape == (4, 6)


# --------------------------------------------------------------------- sorting


def test_sort_spectrum_energy_ascending():
    table = sort_spectrum(enumerate_spectrum(1.0, 7))
    assert np.all(np.diff(table.energy) >= -1e-12)
    assert table.ordering.startswith("charges")


def test_sort_spectrum_key_orders():
    table = enumerate_spectrum(1.0, 6)
    a = sort_spectrum(table, key_order=(0, 1, 2))
    b = sort_spectrum(table, key_order=(2, 0, 1))
    assert np.all(np.diff(b.charges[:, 2]) >= -1e-12)
    assert not np.array_equal(a.masks, b.masks)  # genuinely different orders


def _row_order_digest(table) -> str:
    data = table.masks.astype("<i8").tobytes() + table.sector_codes.astype("u1").tobytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "key_order, digest",
    [
        (None, "ee2f5175eb9f90d36b0db479230266be6e9c8164b5936066985cbc1c08dc815b"),
        ((2, 0, 1), "980e43dbd4827832e93a5bdf562c3689622f0b6d9813dff6df995f8821c4c8b1"),
    ],
)
def test_sort_spectrum_pinned_row_order(key_order, digest):
    # the exact sorted (mask, sector) rows at the critical field, where many
    # charges tie; recorded from the per-group interval sort
    table = sort_spectrum(enumerate_spectrum(1.0, 10), key_order)
    assert _row_order_digest(table) == digest


def _interval_sort_order(table, key_order, tol):
    """Reference: sort each tie group of the previous keys as its own interval."""
    order = np.arange(len(table))
    groups = [(0, len(table))]
    for key in key_order:
        vals = table.charges[:, key]
        next_groups = []
        for a, b in groups:
            seg = order[a:b]
            order[a:b] = seg[np.argsort(vals[seg], kind="stable")]
            cuts = a + 1 + np.nonzero(np.diff(vals[order[a:b]]) > tol)[0]
            bounds = [a, *cuts.tolist(), b]
            next_groups.extend(zip(bounds[:-1], bounds[1:]))
        groups = next_groups
    return order


@pytest.mark.parametrize("L, h, sector_filter", [(8, 1.0, None), (9, 0.7, (1, None)), (10, 1.0, (None, 0))])
def test_sort_spectrum_matches_interval_sort(L, h, sector_filter):
    table = enumerate_spectrum(h, L, sector_filter)
    for key_order in (tuple(range(L)), (2, 0, 1), (1,), tuple(range(L))[::-1]):
        order = _interval_sort_order(table, key_order, 1e-9 * L)
        got = sort_spectrum(table, key_order)
        assert np.array_equal(got.masks, table.masks[order])
        assert np.array_equal(got.sector_codes, table.sector_codes[order])


def test_sort_spectrum_tie_chains_and_stability():
    tol = 2e-9  # the tie tolerance at L = 2
    q0 = [1.2 * tol, 0.0, 0.6 * tol, 1.8 * tol, -1.0, 5.0, 5.0]
    q1 = [3.0, 2.0, 1.0, 1.0, 9.0, 0.0, 0.0]
    n = len(q0)
    table = SpectrumTable(
        2, 1.0, np.zeros(n, dtype=np.uint8), np.arange(n), np.zeros(n, dtype=np.int64),
        np.column_stack([q0, q1]),
    )
    # rows 0..3 form one chain of steps within tol, so Q1 orders all four
    # although rows 1 and 3 lie 1.8 tol apart; equal keys keep input order
    assert sort_spectrum(table).masks.tolist() == [4, 2, 3, 1, 0, 5, 6]
    assert sort_spectrum(table, key_order=(1,)).masks.tolist() == [5, 6, 2, 3, 1, 0, 4]
    for rows in (0, 1):
        part = sort_spectrum(table.reordered(np.arange(rows)))
        assert part.masks.tolist() == list(range(rows))
        assert part.sort_keys == (0, 1)


@pytest.mark.parametrize("key_order", [(0, 0), (6,), (-1, 2)])
def test_sort_spectrum_rejects_bad_key_order(key_order):
    with pytest.raises(ValueError, match="key order"):
        sort_spectrum(enumerate_spectrum(1.0, 6), key_order)


def test_degeneracy_ratio_rejects_unsorted_and_short_tables():
    table = enumerate_spectrum(1.0, 6)
    for other in (table, sort_spectrum(table, key_order=(1, 0))):
        with pytest.raises(ValueError, match="not sorted"):
            degeneracy_ratio(other, 0)
    with pytest.raises(ValueError, match="not sorted"):
        degeneracy_ratio(sort_spectrum(table, key_order=(0, 2, 1)), 1)
    single = sort_spectrum(table).reordered([0], sort_keys=tuple(range(6)))
    with pytest.raises(ValueError, match="at least two states"):
        degeneracy_ratio(single, 0)
    with pytest.raises(ValueError, match="at least two states"):
        mode_number_difference(single)


def test_degeneracy_profiles_at_critical_field():
    # tied-adjacent-pair counts out of len-1; odd L loses all ties at m=1
    profiles = {
        7: [75, 0, 0, 0, 0, 0, 0],
        8: [161, 23, 23, 1, 1, 1, 1, 0],
        11: [1563] + [0] * 10,
        12: [3523, 1587, 743, 111, 111, 17, 17, 1, 1, 1, 1, 0],
    }
    for L, counts in profiles.items():
        table = sort_spectrum(enumerate_spectrum(1.0, L))
        pairs = len(table) - 1
        got = [round(degeneracy_ratio(table, m) * pairs) for m in range(L)]
        assert got == counts, f"L={L}: {got}"


def test_mode_number_difference_frozen():
    for L, want in ((8, 0.3607843137254902), (10, 0.27956989247311825), (12, 0.5010989010989011)):
        table = sort_spectrum(enumerate_spectrum(1.0, L))
        assert abs(mode_number_difference(table) - want) < 1e-12


# ---------------------------------------------------------------- correlations


def test_subsystem_correlations_match_single_state():
    table = sort_spectrum(enumerate_spectrum(0.5, 6))
    batch = subsystem_correlations(table, 3)
    rng = np.random.default_rng(4)
    for i in rng.integers(0, len(table), size=8):
        single = eigenstate_correlation(table.label(int(i)), 3)
        assert np.abs(batch[int(i)] - single.m).max() < 1e-12


@pytest.mark.parametrize("L, h", [(10, 1.0), (10, 0.91), (14, 0.91)])
def test_subsystem_correlations_are_exactly_antisymmetric(L, h):
    # eigh reads the lower triangle of m, the Pfaffian table the upper one;
    # both must see the same state, bit for bit
    table = enumerate_spectrum(h, L)
    for ell in sorted({1, 2, L // 2, min(L, 10)}):  # L = 14, ell = 14 would hold 100 MB
        m = subsystem_correlations(table, ell)
        assert np.array_equal(m, -np.swapaxes(m, 1, 2))
    label = table.label(len(table) // 3)
    m = eigenstate_correlation(label, L // 2).m
    assert np.array_equal(m, -m.T)


@pytest.mark.parametrize("ell", [0, 7])
def test_subsystem_size_outside_the_chain(ell):
    table = enumerate_spectrum(1.0, 6)
    with pytest.raises(ValueError, match="outside 1..6"):
        subsystem_correlations(table, ell)
    with pytest.raises(ValueError, match="outside 1..6"):
        eigenstate_correlation(table.label(0), ell)


def test_correlation_matrix_is_valid_state():
    table = enumerate_spectrum(2.0, 8)
    batch = subsystem_correlations(table, 4)
    rng = np.random.default_rng(5)
    for i in rng.integers(0, len(table), size=10):
        state = CorrelationMatrix(batch[int(i)])  # validates antisymmetry
        assert state.pair_values.max() <= 1.0


def test_correlation_blocks_are_toeplitz():
    # translation invariance: 2x2 blocks depend only on the site separation
    label = EigenstateLabel(L=8, h=1.0, sector="NS", occupied=(1, 15))
    m = eigenstate_correlation(label, 4).m
    for d in range(1, 3):
        for i in range(4 - d - 1):
            blk_a = m[2 * i : 2 * i + 2, 2 * (i + d) : 2 * (i + d) + 2]
            blk_b = m[2 * (i + 1) : 2 * (i + 1) + 2, 2 * (i + d + 1) : 2 * (i + d + 1) + 2]
            assert np.abs(blk_a - blk_b).max() < 1e-12


def test_strong_field_ground_state_is_nearly_pure():
    label = EigenstateLabel(L=8, h=1e6, sector="NS", occupied=())
    state = eigenstate_correlation(label, 2)
    assert np.abs(state.pair_values - 1.0).max() < 1e-6
