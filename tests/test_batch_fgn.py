"""Tier-1 bit-identity wall for the batched fGn synthesis layer.

``batch_fgn`` stacks B Hermitian spectra into one 2-D inverse FFT;
pocketfft runs each row with the same 1-D plan a single-trace call
would use, so every row must equal the corresponding
``PaxsonGenerator``/``DaviesHarteGenerator`` sample **bit for bit** --
not approximately.  These tests pin that per backend, Hurst value,
batch size and odd/even length, then walk the identity up the stack:
the pooled fan-out (``batch_fgn_pool``, ``shard_fgn``), the
independent-source multiplexer and the streaming block source stack
``stack_height(row_len)`` rows per call, and each must equal a loop of
per-row single-trace ``generate`` calls at row lengths giving heights
1, 2 and 7, at every worker count.
"""

import numpy as np
import pytest

from repro.core.batch import (
    STACK_SAMPLES,
    batch_fgn,
    batch_generate,
    batch_row_seeds,
    stack_height,
)
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.paxson import PaxsonGenerator
from repro.core.transform import marginal_transform
from repro.par.batch import batch_fgn_pool, default_batch
from repro.par.pool import derive_task_seed
from repro.par.shard import blend_weights, shard_fgn, shard_plan
from repro.simulation.multiplex import multiplex_fgn
from repro.stream.sources import make_source

BACKENDS = {"paxson": PaxsonGenerator, "davies-harte": DaviesHarteGenerator}
HURSTS = (0.5, 0.7, 0.9)
BATCHES = (1, 2, 7)
HEIGHTS = (1, 2, 7)  # stack heights the tested row lengths give
WORKER_COUNTS = (1, 2, 5)


def row_len_for(height):
    """The longest row length whose stack height is ``height``."""
    row_len = STACK_SAMPLES // height
    assert stack_height(row_len, height) == height
    return row_len


def single_trace_rows(backend, hurst, n, seeds):
    """One single-trace ``generate`` call per row seed: the reference."""
    generator = BACKENDS[backend](hurst)
    return [generator.generate(n, rng=np.random.default_rng(s)) for s in seeds]


class TestRowBitIdentity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("n", (256, 257))  # even and odd lengths
    def test_rows_match_single_trace_calls(self, backend, hurst, batch, n):
        rows = batch_fgn(n, hurst, batch, backend=backend, seed=11)
        assert rows.shape == (batch, n)
        generator = BACKENDS[backend](hurst)
        for i, row_seed in enumerate(batch_row_seeds(11, batch)):
            reference = generator.generate(n, rng=np.random.default_rng(row_seed))
            np.testing.assert_array_equal(rows[i], reference)

    def test_explicit_seeds_override_derivation(self):
        seeds = [301, 17, 301]  # repeats allowed: rows 0 and 2 coincide
        rows = batch_fgn(500, 0.8, 3, seeds=seeds)
        np.testing.assert_array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[0], rows[1])
        single = PaxsonGenerator(0.8).generate(500, rng=np.random.default_rng(17))
        np.testing.assert_array_equal(rows[1], single)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_shared_rng_mode_matches_sequential_calls(self, backend):
        rows = batch_fgn(300, 0.7, 4, backend=backend,
                         rng=np.random.default_rng(42))
        generator = BACKENDS[backend](0.7)
        rng = np.random.default_rng(42)
        for i in range(4):
            np.testing.assert_array_equal(rows[i], generator.generate(300, rng=rng))

    def test_n_equals_one(self):
        rows = batch_fgn(1, 0.8, 3, seed=5)
        assert rows.shape == (3, 1)
        for i, row_seed in enumerate(batch_row_seeds(5, 3)):
            reference = PaxsonGenerator(0.8).generate(
                1, rng=np.random.default_rng(row_seed)
            )
            np.testing.assert_array_equal(rows[i], reference)

    def test_batch_generate_reuses_a_live_generator(self):
        generator = DaviesHarteGenerator(0.8)
        rngs = [np.random.default_rng(s) for s in (3, 9)]
        rows = batch_generate(generator, 200, rngs)
        for i, seed in enumerate((3, 9)):
            np.testing.assert_array_equal(
                rows[i], generator.generate(200, rng=np.random.default_rng(seed))
            )


class TestValidation:
    def test_zero_batch_names_requested_shape(self):
        with pytest.raises(ValueError, match=r"\(0, 128\)"):
            batch_fgn(128, 0.8, 0)

    def test_non_integer_batch_names_requested_shape(self):
        with pytest.raises(ValueError, match=r"positive integer.*2\.5"):
            batch_fgn(128, 0.8, 2.5)

    def test_bool_batch_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            batch_fgn(128, 0.8, True)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            batch_fgn(128, 0.8, 2, backend="hosking")

    def test_seeds_length_mismatch(self):
        with pytest.raises(ValueError, match="need 3 row seeds, got 2"):
            batch_fgn(128, 0.8, 3, seeds=[1, 2])

    def test_rng_and_seeds_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            batch_fgn(128, 0.8, 2, seeds=[1, 2], rng=np.random.default_rng(0))

    def test_batch_generate_rejects_foreign_generators(self):
        with pytest.raises(TypeError, match="PaxsonGenerator"):
            batch_generate(object(), 128, [np.random.default_rng(0)])

    def test_batch_generate_requires_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            batch_generate(PaxsonGenerator(0.8), 128, [])


class TestStackHeight:
    def test_row_length_picks_the_height(self):
        assert stack_height(128, 10_000) == STACK_SAMPLES // 128
        assert stack_height(STACK_SAMPLES // 2, 10) == 2
        assert stack_height(STACK_SAMPLES // 2 + 1, 10) == 1
        assert stack_height(66_560, 10) == 1  # the default stream block

    def test_capped_by_rows_per_worker(self):
        assert stack_height(128, 5) == 5
        assert stack_height(128, 64, workers=2) == 32
        assert stack_height(128, 5, workers=2) == 3
        assert stack_height(128, 5, workers=5) == 1

    def test_default_batch_is_the_constant_one(self):
        assert default_batch() == 1


class TestPooledBatching:
    """batch_fgn_pool/shard_fgn equal per-row single-trace calls."""

    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_batch_fgn_pool_invariance(self, height, workers):
        n, count = row_len_for(height), 8
        rows = batch_fgn_pool(n, 0.8, count, seed=13, workers=workers)
        reference = single_trace_rows(
            "paxson", 0.8, n, batch_row_seeds(13, count)
        )
        assert rows.shape == (count, n)
        for row, ref in zip(rows, reference):
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_shard_fgn_batch_invariance(self, backend, height):
        # Odd boundaries: a short final shard with a cross-fade seam,
        # after enough full shards to fill one stack of ``height``.
        overlap = 100
        shard_size = row_len_for(height) - overlap
        n = (height + 1) * shard_size + 1_001
        reference = np.empty(n)
        w_old, w_new = blend_weights(overlap)
        tail = None
        for i, (start, length) in enumerate(shard_plan(n, shard_size)):
            rng = np.random.default_rng(derive_task_seed(5, i, label="shard"))
            raw = BACKENDS[backend](0.8).generate(length + overlap, rng=rng)
            head = raw[:length].copy()
            if tail is not None:
                head[:overlap] = w_old * tail + w_new * head[:overlap]
            tail = raw[length:]
            reference[start : start + length] = head
        for workers in WORKER_COUNTS:
            path = shard_fgn(
                n, 0.8, backend=backend, seed=5,
                shard_size=shard_size, overlap=overlap, workers=workers,
            )
            assert np.array_equal(path, reference), workers

    def test_pool_rows_carry_the_shardlike_seed_scheme(self):
        rows = batch_fgn_pool(200, 0.8, 3, seed=21)
        for i in range(3):
            row_seed = derive_task_seed(21, i, label="batch")
            reference = PaxsonGenerator(0.8).generate(
                200, rng=np.random.default_rng(row_seed)
            )
            np.testing.assert_array_equal(rows[i], reference)


class TestMultiplexFGN:
    @staticmethod
    def reference(n, n_sources, seed, marginal=None):
        out = np.zeros(n)
        for row in single_trace_rows(
            "paxson", 0.8, n, batch_row_seeds(seed, n_sources)
        ):
            out += row if marginal is None else marginal_transform(row, marginal)
        return out

    @pytest.mark.parametrize("height", HEIGHTS)
    def test_aggregate_is_batch_invariant(self, height):
        n = row_len_for(height)
        assert np.array_equal(
            multiplex_fgn(n, 0.8, 9, seed=3), self.reference(n, 9, seed=3)
        )

    def test_marginal_mode_is_batch_invariant(self, paper_marginal):
        n = row_len_for(4)
        assert np.array_equal(
            multiplex_fgn(n, 0.8, 5, seed=8, marginal=paper_marginal),
            self.reference(n, 5, seed=8, marginal=paper_marginal),
        )


class TestStreamingSourceBatch:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_block_source_emits_identical_samples(self, backend, height):
        overlap = 64
        block_size = row_len_for(height) - overlap
        n = (height + 2) * block_size + 123

        source = make_source(backend, hurst=0.8, block_size=block_size,
                             overlap=overlap)
        rng = np.random.default_rng(31)
        samples = np.concatenate(list(source.chunks(n, 7_000, rng=rng)))

        # One generate call per block from the shared rng, stitched
        # over the cos/sin cross-fade.
        generator = BACKENDS[backend](0.8)
        ref_rng = np.random.default_rng(31)
        w_old, w_new = blend_weights(overlap)
        blocks, tail = [], None
        while sum(b.size for b in blocks) < n:
            raw = generator.generate(block_size + overlap, rng=ref_rng)
            head = raw[:block_size].copy()
            if tail is not None:
                head[:overlap] = w_old * tail + w_new * head[:overlap]
            tail = raw[block_size:]
            blocks.append(head)
        assert np.array_equal(samples, np.concatenate(blocks)[:n])
        # Stacking never synthesizes a block the run does not use.
        assert rng.bit_generator.state == ref_rng.bit_generator.state
