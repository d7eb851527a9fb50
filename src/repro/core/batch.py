"""Batched fGn synthesis: B independent traces in one stacked 2-D FFT.

The Paxson and Davies-Harte synthesizers both end in a single inverse
FFT of a Hermitian-symmetric complex-Gaussian spectrum.  Synthesizing a
*batch* of B independent traces therefore stacks the B spectra into a
``(B, m)`` matrix and runs one ``irfft``/``ifft`` over ``axis=1``:
numpy's pocketfft computes each row with exactly the same 1-D plan it
would use for a single trace, so every row of the batch is
**bit-identical** to the corresponding single-trace call -- the tier-1
property tests in ``tests/test_batch_fgn.py`` pin this per backend,
Hurst value, batch size, and odd/even length.  The speedup comes from
amortizing the cached spectral profile, the Gaussian draws, and the
FFT dispatch overhead over the whole batch (see ``docs/performance.md``
and the ``batched_synthesis_speedup_b64`` entry of BENCH_stream.json).

Two seeding modes cover the two callers:

- **Independent rows** (default): row ``i`` draws from
  ``default_rng(derive_task_seed(seed, i, label="batch"))`` -- the same
  sha256 scheme :func:`repro.par.shard.shard_fgn` uses for its shards,
  so batching commutes with the parallel pool's per-task seeding.
  Explicit per-row seeds may be given via ``seeds=``.
- **Shared stream** (``rng=``): all rows draw *sequentially* from one
  generator, in exactly the order B consecutive single-trace
  ``generate(n, rng=rng)`` calls would -- the mode the streaming block
  source uses to pre-synthesize blocks ahead without changing a bit of
  its output.

How many rows ride one stacked call is not a setting: every caller
takes :func:`stack_height` of its row length, so one call covers about
:data:`STACK_SAMPLES` samples.  Short rows stack (that is where the
dispatch overhead lives); rows of ``STACK_SAMPLES`` or more run alone
through the single-trace generator.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro._validation import require_positive_int
from repro.obs import metrics, trace

__all__ = [
    "BATCH_BACKENDS",
    "STACK_SAMPLES",
    "batch_fgn",
    "batch_generate",
    "batch_row_seeds",
    "stack_height",
]

BATCH_BACKENDS = ("paxson", "davies-harte")

STACK_SAMPLES = 65_536
"""Samples per stacked synthesis call; the row length sets the height."""

_ROWS = metrics.registry().counter(
    "repro_batch_fgn_rows_total",
    help="fGn traces synthesized through the batched 2-D FFT path",
    unit="traces",
)


def _require_batch(batch, n):
    """Validate the batch count, naming the requested shape on failure."""
    if isinstance(batch, bool) or not isinstance(batch, numbers.Integral):
        raise ValueError(
            f"batch must be a positive integer, got {batch!r} "
            f"(requested shape ({batch!r}, {n}))"
        )
    if batch < 1:
        raise ValueError(
            f"batch must be >= 1, got {int(batch)} "
            f"(requested shape ({int(batch)}, {n}))"
        )
    return int(batch)


def stack_height(row_len, rows, workers=1):
    """Rows per stacked call for ``rows`` rows of ``row_len`` samples.

    ``max(1, STACK_SAMPLES // row_len)``, capped at
    ``ceil(rows / workers)`` so a pool fan-out keeps every worker busy
    and a stack never holds more rows than are wanted.
    """
    height = max(1, STACK_SAMPLES // row_len)
    return min(height, -(-rows // workers))


def batch_row_seeds(seed, batch):
    """The per-row seeds of a ``batch_fgn(seed=...)`` call.

    Row ``i`` of the batch is bit-identical to a single-trace
    ``generate`` under ``default_rng(batch_row_seeds(seed, batch)[i])``.
    """
    from repro.par.pool import derive_task_seed

    return [derive_task_seed(seed, i, label="batch") for i in range(batch)]


def _row_rngs(batch, seed, seeds, rng):
    if rng is not None:
        if seeds is not None:
            raise ValueError("pass either rng= (shared stream) or seeds=, not both")
        return [rng] * batch
    if seeds is None:
        seeds = batch_row_seeds(seed, batch)
    seeds = list(seeds)
    if len(seeds) != batch:
        raise ValueError(f"need {batch} row seeds, got {len(seeds)}")
    # Generator(PCG64(s)) draws bit-identically to default_rng(s) at a
    # third of the construction cost -- the construction is per row, so
    # it shows up at dispatch-bound batch sizes.
    return [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]


def _batch_paxson(generator, n, rngs):
    """Stacked Paxson synthesis; row i == generator._generate(n, rngs[i])."""
    batch = len(rngs)
    if n == 1:
        sigma = np.sqrt(generator.variance)
        return np.stack([rng.normal(0.0, sigma, size=1) for rng in rngs])
    if n % 2:
        return _batch_paxson(generator, n + 1, rngs)[:, :n]
    half = n // 2
    sqrt_f, scale = generator._sqrt_power(n)
    # One flat draw per row: numpy's Gaussian stream is split-invariant,
    # so buf[i] holds exactly the single-trace sequence re, im, Nyquist
    # (row-major order keeps the shared-rng mode sequential too); the
    # spectrum assembly then runs batch-wide instead of row by row.
    buf = np.empty((batch, 2 * half - 1))
    for i, rng in enumerate(rngs):
        buf[i] = rng.standard_normal(2 * half - 1)
    z = np.zeros((batch, half + 1), dtype=complex)
    z[:, 1:half] = (sqrt_f[: half - 1] / np.sqrt(2.0)) * (
        buf[:, : half - 1] + 1j * buf[:, half - 1 : 2 * half - 2]
    )
    z[:, half] = sqrt_f[half - 1] * buf[:, -1]
    # Two separate multiplies, matching the single-trace rounding
    # exactly ((x * sqrt(n)) * scale != x * (sqrt(n) * scale) in the
    # last ulp).
    x = np.fft.irfft(z, n, axis=1) * np.sqrt(n)
    return x * scale


def _batch_davies_harte(generator, n, rngs):
    """Stacked Davies-Harte synthesis; row i == generator._generate(n, rngs[i])."""
    batch = len(rngs)
    if n == 1:
        sigma = np.sqrt(generator.variance)
        return np.stack([rng.normal(0.0, sigma, size=1) for rng in rngs])
    sqrt_eig = generator._sqrt_eigenvalues(n)
    m = 2 * n
    half = sqrt_eig[1:n] / np.sqrt(2.0)
    # Split-invariant flat draw per row, in the single-trace order:
    # the two real endpoints, then re, then im.
    buf = np.empty((batch, 2 * n))
    for i, rng in enumerate(rngs):
        buf[i] = rng.standard_normal(2 * n)
    v = np.empty((batch, m), dtype=complex)
    v[:, 0] = sqrt_eig[0] * buf[:, 0]
    v[:, n] = sqrt_eig[n] * buf[:, 1]
    v[:, 1:n] = half * (buf[:, 2 : n + 1] + 1j * buf[:, n + 1 :])
    v[:, n + 1 :] = np.conj(v[:, n - 1 : 0 : -1])
    x = np.sqrt(m) * np.fft.ifft(v, axis=1).real
    return x[:, :n]


def batch_generate(generator, n, rngs):
    """Stacked synthesis against an *existing* generator instance.

    The streaming block source owns a long-lived generator whose cached
    spectral profile must survive across calls; this entry point runs
    the stacked FFT kernel with that instance instead of building a
    fresh one per batch.  ``rngs`` is one generator per row (repeat one
    instance for the sequential shared-stream mode).  Row ``i`` is
    bit-identical to ``generator.generate(n, rng=rngs[i])``.
    """
    from repro.core.daviesharte import DaviesHarteGenerator
    from repro.core.paxson import PaxsonGenerator

    if isinstance(generator, DaviesHarteGenerator):
        kernel, label = _batch_davies_harte, "daviesharte"
    elif isinstance(generator, PaxsonGenerator):
        kernel, label = _batch_paxson, "paxson"
    else:
        raise TypeError(
            f"generator must be a PaxsonGenerator or DaviesHarteGenerator, "
            f"got {type(generator).__name__}"
        )
    n = require_positive_int(n, "n")
    rngs = list(rngs)
    if not rngs:
        raise ValueError("rngs must name at least one row")
    with trace.span("batch.fgn", backend=type(generator).__name__,
                    n=n, batch=len(rngs)):
        x = kernel(generator, n, rngs)
    _ROWS.inc(len(rngs))
    # The single-trace generate() counts its samples under this family;
    # stacked rows are the same samples.
    metrics.registry().counter(
        "repro_generator_samples_total", labels={"generator": label}
    ).inc(n * len(rngs))
    return x


def batch_fgn(n, hurst, batch, *, backend="paxson", variance=1.0, seed=0,
              seeds=None, rng=None):
    """Synthesize ``batch`` independent fGn traces as a ``(batch, n)`` array.

    Parameters
    ----------
    n, hurst, variance:
        Per-trace length and marginal parameters, validated exactly as
        the single-trace generators validate them.
    batch:
        Number of independent rows (a positive integer; ``ValueError``
        names the offending requested shape otherwise).
    backend:
        ``"paxson"`` (approximate) or ``"davies-harte"`` (exact).
    seed:
        Base seed for the default row seeding,
        ``derive_task_seed(seed, i, label="batch")``.
    seeds:
        Explicit per-row integer seeds (length ``batch``), overriding
        the derivation -- used by the sharded pool, whose rows are
        seeded by *shard* index.
    rng:
        A shared ``numpy.random.Generator``: rows draw sequentially from
        it, reproducing B consecutive single-trace ``generate`` calls
        bit for bit (the streaming block sources' mode).  Mutually
        exclusive with ``seeds``.

    Every row is bit-identical to the corresponding single-trace
    ``PaxsonGenerator``/``DaviesHarteGenerator`` call -- the batched FFT
    runs the same 1-D plan per row -- so batching is a pure execution
    strategy, never a statistical approximation.
    """
    n = require_positive_int(n, "n")
    batch = _require_batch(batch, n)
    if backend == "paxson":
        from repro.core.paxson import PaxsonGenerator

        generator = PaxsonGenerator(hurst, variance=variance)
    elif backend == "davies-harte":
        from repro.core.daviesharte import DaviesHarteGenerator

        generator = DaviesHarteGenerator(hurst, variance=variance)
    else:
        raise ValueError(
            f"backend must be one of {BATCH_BACKENDS}, got {backend!r}"
        )
    return batch_generate(generator, n, _row_rngs(batch, seed, seeds, rng))
