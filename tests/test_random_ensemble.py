"""Haar orthogonal sampling and the random pure-state ensemble."""

import numpy as np
import pytest
import scipy.stats

from fgdist.correlation import _block_matrix, fidelity
from fgdist.random_ensemble import (
    RandomEnsembleSpec,
    haar_orthogonal,
    random_pure_gamma,
    sample_ensemble,
)


def test_haar_orthogonal_is_orthogonal():
    rng = np.random.default_rng(0)
    for n in (3, 8, 17):
        q = haar_orthogonal(n, rng)
        assert np.abs(q @ q.T - np.eye(n)).max() < 1e-12


def test_haar_orthogonal_hits_both_components():
    # O(n) has two components; Haar weights them equally
    rng = np.random.default_rng(1)
    dets = [np.linalg.det(haar_orthogonal(6, rng)) for _ in range(40)]
    assert any(d > 0.5 for d in dets) and any(d < -0.5 for d in dets)
    assert np.abs(np.abs(dets) - 1.0).max() < 1e-10


def test_haar_orthogonal_column_marginal():
    # squared entries of a Haar column follow Beta(1/2, (n-1)/2)
    n = 16
    rng = np.random.default_rng(2)
    draws = np.concatenate([haar_orthogonal(n, rng)[:, 0] for _ in range(80)])
    stat = scipy.stats.kstest(draws**2, scipy.stats.beta(0.5, (n - 1) / 2).cdf)
    assert stat.pvalue > 1e-3


def test_random_pure_gamma_is_the_product_with_j_bit_for_bit():
    # U J is a signed column permutation of U, with the bits of U @ J
    for L in (1, 4, 17, 64, 128):
        for seed in range(3):
            u = haar_orthogonal(2 * L, np.random.default_rng(seed))
            m = u @ _block_matrix(-np.ones(L)) @ u.T
            want = (m - m.T) / 2.0
            assert random_pure_gamma(L, np.random.default_rng(seed)).m.tobytes() == want.tobytes()


def test_random_pure_gamma_is_pure():
    rng = np.random.default_rng(3)
    for L in (2, 4, 7):
        state = random_pure_gamma(L, rng)
        assert state.ell == L
        assert np.abs(state.pair_values - 1.0).max() < 1e-12
        assert state.is_pure()


def test_restrictions_are_fully_mixed():
    # generic pure-state marginals carry no unit pairs at all
    rng = np.random.default_rng(4)
    state = random_pure_gamma(8, rng)
    for ell in (2, 4):
        sub = state.restrict(ell)
        assert sub.unit_pair_count() == 0
        assert sub.pair_values.max() < 1.0


def test_sample_ensemble_reproducible():
    spec = RandomEnsembleSpec(L=5, count=6, seed=42)
    a = sample_ensemble(spec)
    b = sample_ensemble(spec)
    assert len(a) == 6
    for s, t in zip(a, b):
        assert np.array_equal(s.m, t.m)
    other = sample_ensemble(RandomEnsembleSpec(L=5, count=6, seed=43))
    assert not np.array_equal(a[0].m, other[0].m)


def test_sample_ensemble_streams_are_positionally_stable():
    # state i must not depend on how many states follow it
    short = sample_ensemble(RandomEnsembleSpec(L=4, count=3, seed=7))
    long = sample_ensemble(RandomEnsembleSpec(L=4, count=8, seed=7))
    for s, t in zip(short, long):
        assert np.array_equal(s.m, t.m)


def test_ensemble_parity_split():
    # uncontrolled Haar rotations land in both parity sectors, and cross
    # parity pure pairs are exactly orthogonal
    states = sample_ensemble(RandomEnsembleSpec(L=4, count=12, seed=11))
    fids = [fidelity(states[i], states[j]) for i in range(6) for j in range(i + 1, 6)]
    assert min(fids) < 1e-6  # some orthogonal cross-parity pair
    assert max(fids) > 1e-3  # and some genuinely overlapping pair


def test_spec_validation():
    with pytest.raises(ValueError):
        RandomEnsembleSpec(L=4, count=1)
    with pytest.raises(ValueError):
        RandomEnsembleSpec(L=0, count=4)
    assert RandomEnsembleSpec(L=4, count=5).pair_count == 10
