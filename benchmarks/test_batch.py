"""Batched-synthesis speedup benchmarks.

Stacked synthesis landed behind the bit-exact per-path default; these
benchmarks record the speedup it delivers over the per-task loop it
replaces, folding the ratios into ``BENCH_stream.json`` (merged by
name with the throughput entries of ``test_stream.py``):

- ``batched_synthesis_speedup_b64``: 64 independent fGn traces through
  ``batch_fgn_pool``, which stacks them by the row-length rule (one
  stack of 64 at n=128), versus the per-trace loop of 64 one-row
  ``batch_fgn`` calls under the same row seeds (fresh generator, fresh
  spectral profile, one FFT per trace).  The win is dispatch-bound, so
  it is measured where stacking is aimed: many short traces.  A
  companion entry at a streaming-scale block length (stacks of 16 at
  n=4,096) records the honest large-``n`` ratio, where the per-row
  Gaussian draws and the FFT dominate both sides.

Both measure best-of-N in one process so CPU frequency scaling hits
both sides alike; the budget is a floor on the *ratio*, which is far
more stable than either absolute rate.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import batch_fgn, batch_row_seeds, stack_height
from repro.obs.bench import write_bench
from repro.par.batch import batch_fgn_pool

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge the measured ratios into BENCH_stream.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_stream.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _best_of(func, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


class TestBatchedSynthesisSpeedup:
    B = 64

    def _speedup(self, n, rounds=5):
        seeds = batch_row_seeds(0, self.B)

        def loop():
            return np.concatenate([
                batch_fgn(n, 0.8, 1, seeds=[s]) for s in seeds
            ])

        def stacked():
            return batch_fgn_pool(n, 0.8, self.B, seed=0)

        np.testing.assert_array_equal(stacked(), loop())  # never a trade
        return _best_of(loop, rounds), _best_of(stacked, rounds)

    def test_dispatch_bound_blocks(self):
        """B=64 short traces: the regime stacking exists for."""
        n = 128
        loop_s, batch_s = self._speedup(n)
        speedup = loop_s / batch_s
        _ENTRIES.append({
            "name": "batched_synthesis_speedup_b64",
            "value": round(speedup, 2),
            "unit": "x",
            "higher_is_better": True,
            "budget": 5.0,
            "context": {
                "batch": self.B, "n": n, "backend": "paxson",
                "stack_height": stack_height(n, self.B),
                "loop_seconds": round(loop_s, 4),
                "batched_seconds": round(batch_s, 4),
            },
        })
        assert speedup > 3.0  # hard floor even on a noisy machine

    def test_streaming_scale_blocks(self):
        """B=64 FFT-bound traces: the honest large-n ratio (no budget --
        draws and FFT dominate both sides, so the gain is modest)."""
        n = 4_096
        loop_s, batch_s = self._speedup(n, rounds=3)
        speedup = loop_s / batch_s
        _ENTRIES.append({
            "name": "batched_synthesis_speedup_b64_4k",
            "value": round(speedup, 2),
            "unit": "x",
            "higher_is_better": True,
            "context": {
                "batch": self.B, "n": n, "backend": "paxson",
                "stack_height": stack_height(n, self.B),
                "loop_seconds": round(loop_s, 4),
                "batched_seconds": round(batch_s, 4),
            },
        })
        assert speedup > 1.2

