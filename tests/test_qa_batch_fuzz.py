"""Tier-2 seeded fuzz for the batched-synthesis path.

The stacked 2-D FFT synthesis (:func:`repro.core.batch.batch_fgn`)
ships behind the bit-exact per-path default.  Tier-1 pins it
bit-for-bit where exactness is guaranteed; this module checks the
*statistics* of batched output with draws from the rotating
``--qa-seed``: cross-backend equivalence mirroring
``tests/test_qa_backends.py`` -- ACF, periodogram slope, and
variance-time Hurst agreement between stacked Paxson and stacked
Davies-Harte rows, drawing from the suite-wide alpha budget.

Every draw flows from ``seeded_rng``, so these must pass for any seed.
"""

import pytest

from repro.analysis.hurst import variance_time
from repro.core.batch import batch_fgn
from repro.qa import stats as qa
from tests.qa_budget import CHECK_ALPHA

HURSTS = (0.6, 0.8, 0.9)
N_SAMPLES = 4096
N_PATHS = 6

pytestmark = [pytest.mark.tier2, pytest.mark.statistical_retry]


def _batched_paths(backend, hurst, rng, n=N_SAMPLES, n_paths=N_PATHS):
    """N_PATHS independent rows synthesized through the stacked kernel."""
    rows = batch_fgn(n, hurst, n_paths, backend=backend, rng=rng)
    return list(rows)


class TestBatchedBackendEquivalence:
    """Mirrors tests/test_qa_backends.py with the batched entry point."""

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_acf_agreement(self, seeded_rng, hurst):
        exact = _batched_paths("davies-harte", hurst, seeded_rng)
        approx = _batched_paths("paxson", hurst, seeded_rng)
        qa.require(
            qa.acf_agreement_check(
                exact,
                approx,
                max_lag=10,
                alpha=CHECK_ALPHA,
                name=f"batched ACF davies-harte vs paxson (H={hurst})",
            )
        )

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_gph_agreement(self, seeded_rng, hurst):
        exact = _batched_paths("davies-harte", hurst, seeded_rng)
        approx = _batched_paths("paxson", hurst, seeded_rng)
        qa.require(
            qa.gph_agreement_check(
                exact,
                approx,
                alpha=CHECK_ALPHA,
                name=f"batched periodogram slope davies-harte vs paxson (H={hurst})",
            )
        )

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_variance_time_agreement(self, seeded_rng, hurst):
        exact = [
            variance_time(p).hurst
            for p in _batched_paths("davies-harte", hurst, seeded_rng)
        ]
        approx = [
            variance_time(p).hurst
            for p in _batched_paths("paxson", hurst, seeded_rng)
        ]
        qa.require(
            qa.mc_agreement_check(
                exact,
                approx,
                alpha=CHECK_ALPHA,
                name=f"batched variance-time Hurst davies-harte vs paxson (H={hurst})",
            )
        )
