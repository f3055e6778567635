"""The batched dynamic roster: one batch-kernel call per control period.

``run_dynamic_roster`` must be indistinguishable from running every cell
on its own fresh engine via ``run_dynamic`` — per-cell stats
bit-identical and reallocation timelines byte-equal — for any thread
count and with the native kernels on or off. These tests drive the full
matrix, the mask-change straddle at epoch boundaries, rosters whose
cells retire epochs apart, and (as a property) randomly parameterized
controllers.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import WayMask
from repro.core.dynamic import ControllerAction, DynamicPartitionController
from repro.perf import engine_counters as ec
from repro.sim.trace_engine import DynamicRosterCell, run_dynamic_roster
from repro.sim.trace_engine import TraceWorkload
from repro.util.errors import ValidationError
from repro.util.units import MB
from repro.workloads.trace import make_trace


def _native_available():
    from repro.cache import native

    return native.batch_walk_fn() is not None


def _without_native(fn):
    from repro.cache import native

    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    native.reset()
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native.reset()


def _pair(i, length=5_000):
    """One fg/bg workload pair; chase foregrounds move MPKI when the
    controller reallocates, so timelines are non-trivially non-empty."""
    fg_kind = ("chase", "zipf", "chase")[i % 3]
    fg_kw = {"seed": 7 + i} if fg_kind != "zipf" else {
        "alpha": 0.9, "seed": 7 + i
    }
    fg_mb = (1 + i % 4) * MB
    return [
        TraceWorkload(
            "fg",
            lambda k=fg_kind, n=length, m=fg_mb, kw=fg_kw: make_trace(
                k, n, m, tid=0, **kw
            ),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            lambda n=length: make_trace("stream", n, 8 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
    ]


def _roster(n=6, epoch_accesses=500, total_accesses=10_000, **controller_kw):
    return [
        DynamicRosterCell(
            workloads=_pair(i),
            controller=DynamicPartitionController("fg", "bg", **controller_kw),
            epoch_accesses=epoch_accesses,
            total_accesses=total_accesses,
        )
        for i in range(n)
    ]


def _payload(results):
    """Everything observable, JSON-canonical (timelines byte-comparable)."""
    return json.dumps(
        [
            {
                "stats": {
                    name: [
                        s.accesses,
                        s.cycles,
                        s.total_latency,
                        s.llc_misses,
                        sorted(s.hits_by_level.items()),
                    ]
                    for name, s in sorted(r.stats.items())
                },
                "timeline": r.timeline,
                "actions": [
                    [a.time_s, a.fg_ways, a.reason, a.mpki]
                    for a in r.actions
                ],
                "epochs": r.epochs,
            }
            for r in results
        ],
        sort_keys=True,
    )


@pytest.mark.skipif(
    not _native_available(), reason="no C compiler for the batch kernel"
)
class TestLockstep:
    """Batched == sequential across threads x REPRO_NATIVE."""

    def test_batched_matches_sequential_across_threads_and_native(self):
        reference_results = run_dynamic_roster(_roster(), sequential=True)
        reference = _payload(reference_results)
        # The reference run must exercise reallocation, or the test
        # proves nothing about the banked mask writes.
        assert any(r.timeline for r in reference_results)
        for threads in (1, 4):
            batched = run_dynamic_roster(_roster(), threads=threads)
            assert all(r.native for r in batched)
            assert _payload(batched) == reference
        # REPRO_NATIVE=0: both paths collapse to the pure-Python epoch
        # driver and must still match the native reference byte for byte.
        assert _payload(_without_native(
            lambda: run_dynamic_roster(_roster(), threads=4)
        )) == reference
        assert _payload(_without_native(
            lambda: run_dynamic_roster(_roster(), sequential=True)
        )) == reference

    def test_dynbatch_counters_tick_per_epoch_call(self):
        # Repeating traces progress every round, so a cell is active for
        # exactly its epoch count: one threaded call per round, each
        # covering every still-active cell.
        before = ec.engine_counters().snapshot()
        results = run_dynamic_roster(_roster(n=3))
        delta = ec.engine_counters().delta(before)
        assert delta.get(ec.DYNBATCH_CALLS, 0) == max(
            r.epochs for r in results
        )
        assert delta.get(ec.DYNBATCH_CELLS, 0) == sum(
            r.epochs for r in results
        )


class _ScriptedController:
    """Forces one specific reallocation, at one specific epoch."""

    period_s = 0.1

    def __init__(self, shrink_at_epoch, to_fg_ways, llc_ways=12):
        self.shrink_at = shrink_at_epoch
        self.to_fg_ways = to_fg_ways
        self.llc_ways = llc_ways
        self.fg_ways = llc_ways - 1
        self.actions = []
        self._ticks = 0

    def masks(self):
        return {
            "fg": WayMask.contiguous(self.fg_ways, 0, self.llc_ways),
            "bg": WayMask.contiguous(
                self.llc_ways - self.fg_ways, self.fg_ways, self.llc_ways
            ),
        }

    def on_tick(self, now_s, dt_s, metrics):
        self._ticks += 1
        if self._ticks != self.shrink_at:
            return None
        self.fg_ways = self.to_fg_ways
        self.actions.append(
            ControllerAction(
                time_s=now_s,
                fg_ways=self.fg_ways,
                reason="scripted shrink",
                mpki=metrics["fg"]["mpki"],
            )
        )
        return self.masks()


@pytest.mark.skipif(
    not _native_available(), reason="no C compiler for the batch kernel"
)
class TestMaskStraddle:
    """A reallocation at an epoch boundary, replay straddling it."""

    def _roster(self):
        # Cell 0 shrinks 11 -> 4 ways a third of the way through its
        # replay; cell 1 never reallocates. Resident lines and recency
        # state must carry flush-free across the boundary in the banked
        # state exactly as they do on a lone engine.
        return [
            DynamicRosterCell(
                workloads=_pair(0),
                controller=_ScriptedController(
                    shrink_at_epoch=4, to_fg_ways=4
                ),
                epoch_accesses=800,
                total_accesses=9_600,
            ),
            DynamicRosterCell(
                workloads=_pair(2),
                controller=_ScriptedController(
                    shrink_at_epoch=99, to_fg_ways=4
                ),
                epoch_accesses=800,
                total_accesses=9_600,
            ),
        ]

    def test_straddle_matches_sequential(self):
        reference = run_dynamic_roster(self._roster(), sequential=True)
        batched = run_dynamic_roster(self._roster())
        assert [r.timeline for r in reference] == [
            r.timeline for r in batched
        ]
        # The shrink landed mid-run, between epochs, not at the edges.
        assert batched[0].timeline[0]["epoch"] == 4
        assert 0 < batched[0].timeline[0]["epoch"] < batched[0].epochs
        assert batched[1].timeline == []
        assert _payload(batched) == _payload(reference)


@pytest.mark.skipif(
    not _native_available(), reason="no C compiler for the batch kernel"
)
class TestEarlyFinish:
    """Cells retiring epochs apart drop out without a controller tick."""

    def _mixed_roster(self):
        def finite_pair(i, length):
            return [
                TraceWorkload(
                    "fg",
                    lambda n=length, s=11 + i: make_trace(
                        "chase", n, 2 * MB, tid=0, seed=s
                    ),
                    tid=0,
                    think_cycles=6,
                    repeat=False,
                ),
                TraceWorkload(
                    "bg",
                    lambda n=length: make_trace("stream", n, 8 * MB, tid=4),
                    tid=4,
                    think_cycles=2,
                    repeat=False,
                ),
            ]

        roster = [
            # Retires after ~2400 combined accesses, far short of its
            # 20_000 budget: the host loop sees progressed == issued and
            # drops it without a tick, exactly like run_dynamic's break.
            DynamicRosterCell(
                workloads=finite_pair(0, 1_200),
                controller=DynamicPartitionController("fg", "bg"),
                epoch_accesses=700,
                total_accesses=20_000,
            ),
            DynamicRosterCell(
                workloads=_pair(1),
                controller=DynamicPartitionController("fg", "bg"),
                epoch_accesses=700,
                total_accesses=14_000,
            ),
            DynamicRosterCell(
                workloads=_pair(2),
                controller=DynamicPartitionController("fg", "bg"),
                epoch_accesses=700,
                total_accesses=3_500,
            ),
        ]
        return roster

    def test_early_finishers_match_sequential(self):
        reference = run_dynamic_roster(self._mixed_roster(), sequential=True)
        batched = run_dynamic_roster(self._mixed_roster())
        assert _payload(batched) == _payload(reference)
        epochs = [r.epochs for r in batched]
        # The roster genuinely retires out of step.
        assert len(set(epochs)) == 3
        assert batched[0].stats["fg"].accesses == 1_200


class TestSingleEpoch:
    """A roster whose budget fits in exactly one epoch window.

    The controller never gets a second sample, so the banked counter
    deltas see one window per cell — the degenerate shape that feeds
    ``mpki_windows`` a single bank row — and the batched path must
    still match per-cell replay byte for byte.
    """

    def _roster(self):
        return _roster(n=3, epoch_accesses=4_000, total_accesses=4_000)

    def test_single_epoch_roster_matches_sequential(self):
        reference = run_dynamic_roster(self._roster(), sequential=True)
        assert all(r.epochs == 1 for r in reference)
        assert all(r.timeline == [] for r in reference)
        batched = run_dynamic_roster(self._roster(), threads=2)
        assert _payload(batched) == _payload(reference)
        assert _payload(_without_native(
            lambda: run_dynamic_roster(self._roster())
        )) == _payload(reference)


class TestValidation:
    def test_shared_controller_instance_rejected(self):
        controller = DynamicPartitionController("fg", "bg")
        cells = [
            DynamicRosterCell(workloads=_pair(i), controller=controller)
            for i in range(2)
        ]
        with pytest.raises(ValidationError, match="own controller"):
            run_dynamic_roster(cells)

    def test_empty_roster_is_empty(self):
        assert run_dynamic_roster([]) == []

    def test_workloadless_cell_rejected(self):
        cell = DynamicRosterCell(
            workloads=[], controller=DynamicPartitionController("fg", "bg")
        )
        with pytest.raises(ValidationError, match="workloads"):
            run_dynamic_roster([cell])


@pytest.mark.skipif(
    not _native_available(), reason="no C compiler for the batch kernel"
)
class TestControllerProperty:
    """Any controller parameterization: batched == sequential."""

    @settings(max_examples=6, deadline=None)
    @given(
        thr3=st.floats(min_value=0.0005, max_value=0.5),
        min_fg_mb=st.sampled_from([0.5, 1.0, 2.0]),
        epoch_accesses=st.integers(min_value=300, max_value=1_500),
        comparison=st.sampled_from(["baseline", "per-step"]),
    )
    def test_random_thresholds_stay_lockstep(
        self, thr3, min_fg_mb, epoch_accesses, comparison
    ):
        def roster():
            return _roster(
                n=3,
                epoch_accesses=epoch_accesses,
                total_accesses=8 * epoch_accesses,
                thr3=thr3,
                min_fg_mb=min_fg_mb,
                comparison=comparison,
            )

        reference = _payload(run_dynamic_roster(roster(), sequential=True))
        assert _payload(run_dynamic_roster(roster(), threads=2)) == reference
