"""Shard-parallel fractional-Gaussian-noise generation.

The streaming layer already generates unbounded approximate fGn by
stitching fixed-size synthesizer blocks over a cross-faded overlap
(:class:`repro.stream.sources.BlockFGNSource`).  :func:`shard_fgn`
applies the same construction *spatially*: the target length ``n`` is
cut into shards at multiples of ``shard_size``, each shard's samples
are synthesized independently by the unmodified serial generator
(Davies-Harte exact per shard, or Paxson approximate per shard) under
a seed derived from the **shard index**, and consecutive shards are
joined over the ``overlap`` window with the complementary
``cos``/``sin`` weights that preserve the Gaussian marginal exactly
(``cos^2 + sin^2 = 1``).

Because shard boundaries depend only on ``(n, shard_size)`` and shard
seeds only on ``(seed, shard index)``, the assembled path is a pure
function of ``(backend, hurst, variance, n, shard_size, overlap,
seed)`` — the worker count changes wall-clock time and nothing else.
That is the determinism contract the tier-1 test wall enforces
bit-for-bit at ``workers in {1, 2, 5}`` and odd shard boundaries.

The ``hosking`` backend is the paper's *exact* conditional recursion:
every point conditions on the entire past, so it cannot be sharded
without changing the process.  It is kept serial-exact —
``shard_fgn(..., backend="hosking")`` is byte-identical to
:func:`repro.core.hosking.hosking_farima` for the same ``(H, n,
seed)`` at any ``workers`` — and its speed comes instead from the
scratch-buffer Levinson inner loop in :mod:`repro.core.hosking` and
the fARIMA autocorrelation table served by :mod:`repro.par.cache`.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_in_open_interval,
    require_positive,
    require_positive_int,
)
from repro.obs import metrics, trace
from repro.par.pool import pool_map

__all__ = ["SHARD_BACKENDS", "shard_fgn", "shard_plan", "blend_weights"]

SHARD_BACKENDS = ("hosking", "davies-harte", "paxson")

_SHARDS = metrics.registry().counter(
    "repro_par_shards_total",
    help="fGn shards synthesized by shard_fgn",
    unit="shards",
)


def shard_plan(n, shard_size):
    """``[(start, length), ...]`` shard boundaries — a function of ``(n, shard_size)`` only."""
    n = require_positive_int(n, "n")
    shard_size = require_positive_int(shard_size, "shard_size")
    return [
        (start, min(shard_size, n - start)) for start in range(0, n, shard_size)
    ]


def blend_weights(overlap):
    """The seam cross-fade weights ``(w_old, w_new)``.

    Identical to :class:`repro.stream.sources.BlockFGNSource`:
    ``w_old = cos(pi t / 2)``, ``w_new = sin(pi t / 2)`` on the interior
    grid ``t = (1..overlap) / (overlap + 1)``, so ``w_old^2 + w_new^2 = 1``
    and blending two independent Gaussians preserves the variance.
    """
    t = np.arange(1, int(overlap) + 1, dtype=float) / (int(overlap) + 1)
    return np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * t)


def _synthesize_shard(item, task_seed):
    """Pool task: one shard's raw samples from the serial generator.

    ``item`` is ``(backend, hurst, variance, raw_len)``; the rng is
    built from the sha256-derived per-shard seed, so the draw depends
    on the shard index alone.
    """
    backend, hurst, variance, raw_len = item
    # Imported here (not at module top) so forked workers resolve the
    # generator against their own interpreter state and the par package
    # never eagerly drags core modules in at import time.
    from repro.core.daviesharte import DaviesHarteGenerator
    from repro.core.paxson import PaxsonGenerator

    cls = DaviesHarteGenerator if backend == "davies-harte" else PaxsonGenerator
    rng = np.random.default_rng(task_seed)
    raw = cls(hurst, variance=variance).generate(raw_len, rng=rng)
    _SHARDS.inc()
    return raw


def _synthesize_shard_batch(item, common):
    """Pool task: a stacked batch of equal-length shards.

    ``item`` is ``(raw_len, seeds)`` with one sha256-derived seed per
    shard; :func:`repro.core.batch.batch_fgn` guarantees each row is
    bit-identical to the single-shard call under the same seed, so
    batching shards per worker never changes the assembled path.
    """
    from repro.core.batch import batch_fgn

    raw_len, seeds = item
    rows = batch_fgn(
        raw_len, common["hurst"], len(seeds),
        backend=common["backend"], variance=common["variance"], seeds=seeds,
    )
    _SHARDS.inc(len(seeds))
    return rows


def shard_fgn(n, hurst, *, backend="paxson", variance=1.0, seed=0,
              shard_size=65_536, overlap=1_024, workers=1):
    """Generate an fGn path of length ``n``, sharded across workers.

    Parameters
    ----------
    n, hurst, variance:
        Path length and marginal parameters (``hurst`` in the open
        stationary range ``(0, 1)``).
    backend:
        ``"paxson"`` (approximate per shard), ``"davies-harte"`` (exact
        per shard), or ``"hosking"`` (exact full-path recursion; runs
        serially regardless of ``workers``).
    seed:
        Base seed; shard ``i`` draws from
        ``default_rng(derive_task_seed(seed, i, label="shard"))``.
    shard_size, overlap:
        Shard boundary spacing and the seam cross-fade width
        (``0 <= overlap < shard_size``).  Both are part of the output's
        identity: changing either changes the path, changing
        ``workers`` never does.
    workers:
        Process count for shard synthesis (via
        :func:`repro.par.pool.pool_map`).

    Equal-length shards ride each pool task in stacks of
    :func:`repro.core.batch.stack_height` of their raw length; a height
    of 1 (the default ``shard_size``) runs one single-trace call per
    shard.  Shard ``i`` keeps its ``derive_task_seed(seed, i,
    label="shard")`` rng whatever the grouping.

    Returns the assembled float64 path of exactly ``n`` samples.
    """
    n = require_positive_int(n, "n")
    require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    require_positive(variance, "variance")
    shard_size = require_positive_int(shard_size, "shard_size")
    overlap = int(overlap)
    if not 0 <= overlap < shard_size:
        raise ValueError(
            f"overlap must lie in [0, shard_size), got {overlap} with "
            f"shard_size {shard_size}"
        )
    if backend not in SHARD_BACKENDS:
        raise ValueError(f"backend must be one of {SHARD_BACKENDS}, got {backend!r}")

    if backend == "hosking":
        # Exact conditional recursion: serial by construction, identical
        # to hosking_farima(n, hurst, variance, rng=default_rng(seed)).
        from repro.core.hosking import HoskingGenerator

        with trace.span("par.shard_fgn", backend=backend, n=n, shards=1):
            rng = np.random.default_rng(int(seed))
            path = HoskingGenerator(hurst=hurst, variance=variance).generate(n, rng=rng)
        _SHARDS.inc()
        return path

    from repro.core.batch import stack_height
    from repro.par.pool import resolve_workers

    plan = shard_plan(n, shard_size)
    workers = resolve_workers(workers)
    height = stack_height(shard_size + overlap, len(plan), workers)
    with trace.span("par.shard_fgn", backend=backend, n=n, shards=len(plan)):
        if height == 1:
            items = [
                (backend, float(hurst), float(variance), length + overlap)
                for _, length in plan
            ]
            raws = pool_map(
                _synthesize_shard, items,
                workers=workers, base_seed=int(seed), label="shard",
            )
        else:
            # Group consecutive equal-length shards (every shard but a
            # short final one shares raw_len) into stacked batches; the
            # per-shard seeds ride inside the items, bit-identical to
            # the ones pool_map would derive on the single-shard path.
            from repro.par.pool import derive_task_seed

            groups = []
            for shard_i, (_, length) in enumerate(plan):
                raw_len = length + overlap
                shard_seed = derive_task_seed(int(seed), shard_i, label="shard")
                if (groups and groups[-1][0] == raw_len
                        and len(groups[-1][1]) < height):
                    groups[-1][1].append(shard_seed)
                else:
                    groups.append((raw_len, [shard_seed]))
            stacks = pool_map(
                _synthesize_shard_batch, groups,
                workers=workers,
                common={"hurst": float(hurst), "variance": float(variance),
                        "backend": backend},
                label="shard_batch",
            )
            raws = [row for stack in stacks for row in stack]
        w_old, w_new = blend_weights(overlap)
        out = np.empty(n)
        prev_tail = None
        for (start, length), raw in zip(plan, raws):
            head = raw[:length].copy()
            if prev_tail is not None and overlap:
                b = min(overlap, length)
                head[:b] = w_old[:b] * prev_tail[:b] + w_new[:b] * head[:b]
            prev_tail = raw[length:]
            out[start : start + length] = head
    return out
