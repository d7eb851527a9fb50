"""repro.net core: event scheduler, disciplines, slot-fluid helper."""

import numpy as np
import pytest

from repro.net import (
    EventScheduler,
    FIFODiscipline,
    PHASE_ARRIVAL,
    PriorityDiscipline,
    WFQDiscipline,
    make_discipline,
)
from repro.simulation.slotfluid import (
    clamp_backlog,
    default_kernel,
    fold_slots,
    run_slots,
    slot_step,
)


class TestEventScheduler:
    def test_dispatches_in_time_order(self):
        sched = EventScheduler()
        seen = []
        for t in (3.0, 1.0, 2.0):
            sched.schedule(t, seen.append, t)
        sched.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_fifo_tie_break_at_equal_time(self):
        sched = EventScheduler()
        seen = []
        for i in range(50):
            sched.schedule(1.0, seen.append, i)
        sched.run()
        assert seen == list(range(50))

    def test_arrival_phase_precedes_service_phase(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(1.0, seen.append, "service")
        sched.schedule(1.0, seen.append, "arrival", phase=PHASE_ARRIVAL)
        sched.run()
        assert seen == ["arrival", "service"]

    def test_events_scheduled_during_run_are_honoured(self):
        sched = EventScheduler()
        seen = []

        def chain(k):
            seen.append(k)
            if k < 4:
                sched.schedule(sched.now + 1.0, chain, k + 1)

        sched.schedule(0.0, chain, 0)
        sched.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_until_horizon_is_exclusive(self):
        sched = EventScheduler()
        seen = []
        for t in (0.0, 1.0, 2.0):
            sched.schedule(t, seen.append, t)
        sched.run(until=2.0)
        assert seen == [0.0, 1.0]

    def test_scheduling_into_the_past_raises(self):
        sched = EventScheduler()
        sched.schedule(2.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError, match="past"):
            sched.schedule(1.0, lambda: None)

    def test_trace_records_dispatch_order(self):
        sched = EventScheduler(record_trace=True)
        sched.schedule(1.0, lambda: None, label="b")
        sched.schedule(0.0, lambda: None, label="a")
        sched.run()
        assert [e[3] for e in sched.trace] == ["a", "b"]
        assert sched.events_dispatched == 2


def _slot_step_loop(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0)):
    """The recursion spelled out slot by slot via ``slot_step``.

    Returns the advanced ``(backlog, lost, peak, total)`` state, the
    per-slot losses and the per-slot backlog trajectory.
    """
    backlog, lost, peak, total = state
    losses = []
    trajectory = []
    for a in values:
        total += a
        backlog, _, drop = slot_step(backlog, a, capacity, buffer_bytes)
        lost += drop
        losses.append(drop)
        trajectory.append(backlog)
        peak = max(peak, backlog)
    return (backlog, lost, peak, total), losses, trajectory


class TestSlotFluidHelpers:
    def test_fold_slots_matches_repeated_slot_step(self, rng):
        arrivals = rng.gamma(2.0, 400.0, size=300)
        c, q = 900.0, 2_500.0
        expected, losses, _ = _slot_step_loop(arrivals.tolist(), c, q)
        series = np.zeros(arrivals.size)
        state = fold_slots(arrivals.tolist(), c, q, loss_series=series)
        assert state == expected
        assert series.tolist() == losses

    def test_fold_slots_golden_anchor_summary_state(self):
        # a = [10, 10], c = 2, Q = 5: slot 1 holds 8 and drops 3; slot 2
        # holds 5 + 8 = 13 and drops 8.
        assert fold_slots([10.0, 10.0], 2.0, 5.0) == (5.0, 11.0, 5.0, 20.0)
        assert run_slots(np.array([10.0, 10.0]), 2.0, 5.0) == (
            5.0, 11.0, 5.0, 20.0,
        )

    def test_fold_slots_golden_anchor_loss_series_and_trajectory(self):
        series = np.zeros(2)
        fold_slots([10.0, 10.0], 2.0, 5.0, loss_series=series)
        assert series.tolist() == [3.0, 8.0]
        expected, losses, trajectory = _slot_step_loop([10.0, 10.0], 2.0, 5.0)
        assert expected == (5.0, 11.0, 5.0, 20.0)
        assert losses == [3.0, 8.0]
        assert trajectory == [5.0, 5.0]

    @pytest.mark.parametrize(
        "capacity,buffer_bytes",
        [
            (20.0, 60.0),    # regularly clamping at both barriers
            (25.0, 400.0),   # rare overflow, long clamp-free stretches
            (12.0, 0.0),     # bufferless: every excess byte drops
            (60.0, 30.0),    # mostly idle server, drain clamping
        ],
    )
    def test_run_slots_matches_slot_step_loop(self, rng, capacity, buffer_bytes):
        a = rng.gamma(2.0, 10.0, size=5_000)
        expected, losses, _ = _slot_step_loop(a.tolist(), capacity, buffer_bytes)
        series = np.zeros(a.size)
        assert run_slots(a, capacity, buffer_bytes, loss_series=series) == expected
        assert series.tolist() == losses
        assert run_slots(a, capacity, buffer_bytes) == expected

    def test_run_slots_without_loss_series(self, rng):
        a = rng.integers(0, 40, size=20_000).astype(float)
        expected, _, _ = _slot_step_loop(a.tolist(), 17.0, 90.0)
        assert run_slots(a, 17.0, 90.0) == expected

    def test_run_slots_chunked_resume_is_bit_exact(self, rng):
        # Carrying (backlog, lost, peak, total) across fixed chunk
        # boundaries reproduces one whole-series call exactly.
        a = rng.gamma(2.0, 10.0, size=30_000)
        whole = run_slots(a, 18.0, 70.0)
        for chunk in (777, 3_333, 8_192):
            state = (0.0, 0.0, 0.0, 0.0)
            for start in range(0, a.size, chunk):
                state = run_slots(a[start : start + chunk], 18.0, 70.0, state=state)
            assert state == whole

    def test_run_slots_random_cut_resume_is_bit_exact(self, rng):
        # Random cut points, random workloads: the resume is exact, not
        # approximate.
        for _ in range(5):
            n = int(rng.integers(1_000, 30_000))
            a = rng.gamma(2.0, 10_000.0, size=n)
            c = float(rng.uniform(15_000.0, 30_000.0))
            q = float(rng.uniform(0.0, 100_000.0))
            whole = run_slots(a, c, q)
            cuts = np.sort(rng.integers(1, n, size=6))
            state = (0.0, 0.0, 0.0, 0.0)
            for start, end in zip(np.r_[0, cuts], np.r_[cuts, n]):
                state = run_slots(a[start:end], c, q, state=state)
            assert state == whole

    def test_run_slots_nonzero_initial_state(self, rng):
        a = rng.gamma(2.0, 10.0, size=5_000)
        state = (33.0, 12.0, 40.0, 500.0)
        expected, _, _ = _slot_step_loop(a.tolist(), 21.0, 80.0, state=state)
        assert run_slots(a, 21.0, 80.0, state=state) == expected

    def test_run_slots_empty_input_returns_state(self):
        state = (3.0, 1.0, 4.0, 9.0)
        assert run_slots(np.empty(0), 5.0, 10.0, state=state) == state

    def test_default_kernel_is_reference(self):
        assert default_kernel() == "reference"

    def test_clamp_backlog_overflow_and_floor(self):
        assert clamp_backlog(5.0, 3.0) == (3.0, 2.0)
        assert clamp_backlog(-1.0, 3.0) == (0.0, 0.0)
        assert clamp_backlog(2.0, 3.0) == (2.0, 0.0)


class TestDisciplines:
    def test_fifo_single_flow_is_the_slot_recursion(self, rng):
        arrivals = rng.gamma(2.0, 500.0, size=200)
        c, q = 1_100.0, 3_000.0
        disc = FIFODiscipline(c, q)
        disc.register("f")
        backlog = 0.0
        for a in arrivals:
            expect_backlog, expect_served, expect_lost = slot_step(backlog, a, c, q)
            result = disc.step({"f": float(a)})
            assert result.backlog == expect_backlog
            assert result.served_total == expect_served
            assert result.lost_total == expect_lost
            backlog = expect_backlog

    def test_fifo_step_many_matches_step_loop(self, rng):
        a = rng.gamma(2.0, 8.0, size=6_000)
        loop = FIFODiscipline(14.0, 48.0)
        loop.register("video")
        lost = 0.0
        peak = 0.0
        for arrival in a:
            result = loop.step({"video": float(arrival)})
            lost += result.lost_total
            peak = max(peak, result.backlog)
        bulk = FIFODiscipline(14.0, 48.0)
        bulk.register("video")
        got = bulk.step_many(a)
        assert got["backlog"] == loop.backlog
        assert bulk.backlog == loop.backlog
        assert got["lost"] == lost
        assert got["peak"] == peak
        assert got["offered"] == sum(a.tolist())

    def test_fifo_step_many_requires_single_flow(self):
        port = FIFODiscipline(10.0, 10.0)
        port.register("a")
        port.register("b")
        with pytest.raises(ValueError, match="exactly one registered flow"):
            port.step_many(np.zeros(4))

    def test_fifo_multi_flow_conserves_and_apportions(self):
        disc = FIFODiscipline(10.0, 5.0)
        disc.register("a")
        disc.register("b")
        result = disc.step({"a": 12.0, "b": 6.0})
        # Aggregate follows the recursion: serve 10, keep 5, drop 3.
        assert result.served_total == 10.0
        assert result.backlog == 5.0
        assert result.lost_total == pytest.approx(3.0)
        # Proportional split: a has 2/3 of the fluid.
        assert result.served["a"] == pytest.approx(result.served["b"] * 2.0)
        offered = 18.0
        accounted = (
            result.served_total + result.lost_total + disc.backlog
        )
        assert accounted == pytest.approx(offered)

    def test_priority_protects_high_class(self):
        disc = PriorityDiscipline(10.0, 4.0)
        disc.register("hi", priority=0)
        disc.register("lo", priority=1)
        result = disc.step({"hi": 8.0, "lo": 12.0})
        assert result.served["hi"] == 8.0
        assert result.served["lo"] == 2.0
        # 10 bytes of low left vs a 4-byte buffer: the 6-byte overflow
        # is pushed out of the low class only.
        assert result.lost == {"lo": pytest.approx(6.0)}
        assert disc.backlog == pytest.approx(4.0)

    def test_wfq_divides_by_weight_and_is_work_conserving(self):
        disc = WFQDiscipline(12.0, 100.0)
        disc.register("a", weight=2.0)
        disc.register("b", weight=1.0)
        result = disc.step({"a": 20.0, "b": 20.0})
        assert result.served["a"] == pytest.approx(8.0)
        assert result.served["b"] == pytest.approx(4.0)
        # Work conservation: a's unused share flows to b.
        disc2 = WFQDiscipline(12.0, 100.0)
        disc2.register("a", weight=2.0)
        disc2.register("b", weight=1.0)
        result = disc2.step({"a": 2.0, "b": 20.0})
        assert result.served["a"] == pytest.approx(2.0)
        assert result.served["b"] == pytest.approx(10.0)

    def test_unregistered_flow_is_rejected(self):
        disc = make_discipline("fifo", 10.0, 5.0)
        with pytest.raises(KeyError, match="never registered"):
            disc.step({"ghost": 1.0})

    def test_duplicate_registration_is_rejected(self):
        disc = make_discipline("wfq", 10.0, 5.0)
        disc.register("f")
        with pytest.raises(ValueError, match="already registered"):
            disc.register("f")

    def test_unknown_discipline_name(self):
        with pytest.raises(ValueError, match="discipline"):
            make_discipline("lifo", 10.0, 5.0)

    @pytest.mark.parametrize("name", ["fifo", "priority", "wfq"])
    def test_non_finite_parameters_are_rejected(self, name):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                make_discipline(name, bad, 5.0)
            with pytest.raises(ValueError):
                make_discipline(name, 10.0, bad)
