"""Distances between fermionic Gaussian states and spectral statistics of
integrable spin chains.

The package splits into a polynomial-cost layer working on Majorana
correlation matrices (:mod:`fgdist.correlation`), exponential-cost dense
states and distances that trace sweeps run and that validate it
(:mod:`fgdist.dense`), free-fermion and interacting chain spectra
(:mod:`fgdist.ising`, :mod:`fgdist.xxz`), a random pure Gaussian ensemble
(:mod:`fgdist.random_ensemble`), and sweep drivers with CSV export
(:mod:`fgdist.experiments`, :mod:`fgdist.cli`).  It ships only what a sweep,
the CLI, a demo or the benchmark runs; oracles that only the tests use live
with the tests.
"""

from .correlation import (
    CorrelationMatrix,
    bures_distance,
    canonical_form,
    fidelity,
    gaussian_product_trace,
)
from .errors import GuardExceeded

__version__ = "0.1.0"

__all__ = [
    "CorrelationMatrix",
    "bures_distance",
    "canonical_form",
    "fidelity",
    "gaussian_product_trace",
    "GuardExceeded",
    "__version__",
]
