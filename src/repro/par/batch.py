"""Batch-per-worker fGn synthesis.

:func:`repro.core.batch.batch_fgn` turns B independent traces into one
stacked 2-D FFT; :func:`batch_fgn_pool` generates a fleet of
independent traces on the :func:`repro.par.pool.pool_map` pool,
**batch-per-worker** instead of trace-per-worker: each task synthesizes
one stack of :func:`repro.core.batch.stack_height` rows, so the FFT
amortization and the process fan-out compose.

Trace ``i`` always draws from
``default_rng(derive_task_seed(seed, i, label="batch"))`` no matter how
rows are grouped into stacks or spread over workers — grouping is a
pure execution strategy, and the tier-1 wall pins the fleet bit for bit
against per-row single-trace calls at every worker count.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int

__all__ = ["default_batch", "batch_fgn_pool"]


def default_batch():
    """Always 1: the stack height follows the row length, not a setting.

    Kept so callers that pin the old process default still import it.
    """
    return 1


def _batch_task(seeds, common):
    """Pool task: one stack of rows with explicit per-row seeds."""
    from repro.core.batch import batch_fgn

    return batch_fgn(
        common["n"], common["hurst"], len(seeds),
        backend=common["backend"], variance=common["variance"],
        seeds=seeds,
    )


def batch_fgn_pool(n, hurst, count, *, backend="paxson", variance=1.0,
                   seed=0, workers=1):
    """Synthesize ``count`` independent fGn traces, batch-per-worker.

    Returns a ``(count, n)`` array whose row ``i`` is bit-identical to
    ``batch_fgn(n, hurst, count, seed=seed)[i]`` — and hence to the
    single-trace generator under
    ``default_rng(derive_task_seed(seed, i, label="batch"))`` — for
    every ``workers``.  Each pool task stacks
    ``stack_height(n, count, workers)`` rows, so one worker performs one
    stacked FFT per task instead of one FFT per trace.
    """
    from repro.core.batch import batch_row_seeds, stack_height
    from repro.par.pool import pool_map, resolve_workers

    n = require_positive_int(n, "n")
    count = require_positive_int(count, "count")
    workers = resolve_workers(workers)
    height = stack_height(n, count, workers)
    seeds = batch_row_seeds(seed, count)
    items = [seeds[start : start + height] for start in range(0, count, height)]
    groups = pool_map(
        _batch_task, items,
        workers=workers,
        common={"n": n, "hurst": float(hurst), "variance": float(variance),
                "backend": backend},
        label="batch",
    )
    return np.concatenate(groups, axis=0)
