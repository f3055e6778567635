"""The batched native replay kernel: one C call per roster / way sweep.

The contract under test is bit-identity: ``run_packed_roster`` must
return exactly what a fresh :class:`TraceEngine` + ``run_packed`` per
cell returns — for any thread count, and with the native kernels
disabled entirely. The same harness covers the set-sharded batch
profiler and the measured ``TraceBackend`` sweep built on top.
"""

import os

import pytest

from repro.cache.llc import WayMask
from repro.cache.profile import LLC_NUM_WAYS, WaySweep
from repro.sim.trace_engine import (
    RosterCell,
    TraceEngine,
    TraceWorkload,
    run_packed_roster,
)
from repro.util.errors import ValidationError
from repro.workloads.trace import (
    PointerChaseTrace,
    StreamingTrace,
    ZipfTrace,
)
from repro.workloads.tracepack import get_pack

KB = 1024


@pytest.fixture(scope="module", autouse=True)
def _module_pack_cache(tmp_path_factory):
    from repro.workloads import tracepack

    saved_packs = tracepack._OPEN_PACKS
    saved_env = os.environ.get("REPRO_TRACE_CACHE")
    tracepack._OPEN_PACKS = {}
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("traces"))
    yield
    tracepack._OPEN_PACKS = saved_packs
    if saved_env is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = saved_env


def _native_available():
    from repro.cache import native

    return native.batch_walk_fn() is not None


def _native_profiler_available():
    from repro.cache import native

    return native.batch_profile_fn() is not None


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


def _workload(name, maker, tid, think=2, repeat=True):
    return TraceWorkload(name, maker, tid=tid, think_cycles=think,
                         repeat=repeat)


def _pair(fg_n=900, bg_n=700):
    return [
        _workload(
            "fg",
            lambda: ZipfTrace(fg_n, 256 * KB, alpha=0.9, tid=0, seed=7),
            0, think=6,
        ),
        _workload(
            "bg",
            lambda: StreamingTrace(bg_n, 512 * KB, tid=4),
            4, think=2,
        ),
    ]


def _split_masks(fg_ways):
    # fg on core 0 (tid 0), bg on core 2 (tid 4), disjoint contiguous.
    return {
        0: WayMask.contiguous(fg_ways, 0),
        2: WayMask.contiguous(LLC_NUM_WAYS - fg_ways, fg_ways),
    }


def _mixed_cells():
    """Masked pairs over different splits, a shared pair, a 3-domain
    cell, a 4-tenant group whose last two tenants share one cluster
    mask, and a 1-domain cell — each with its own issue budget."""
    cells = [
        RosterCell(
            workloads=_pair(),
            masks=_split_masks(fg_ways),
            total_accesses=4_000,
        )
        for fg_ways in (2, 5, 9)
    ]
    cells.append(RosterCell(workloads=_pair(1100, 500), total_accesses=3_000))
    cells.append(RosterCell(
        workloads=[
            _workload(
                "a",
                lambda: ZipfTrace(500, 128 * KB, alpha=0.8, tid=0, seed=3),
                0,
            ),
            _workload(
                "b", lambda: StreamingTrace(400, 256 * KB, tid=2), 2
            ),
            _workload(
                "c",
                lambda: PointerChaseTrace(300, 128 * KB, tid=4, seed=5),
                4, think=1,
            ),
        ],
        total_accesses=2_500,
    ))
    cells.append(RosterCell(
        workloads=[
            _workload(
                "z",
                lambda: ZipfTrace(500, 256 * KB, alpha=0.9, tid=0, seed=1),
                0, think=6,
            ),
            _workload("s1", lambda: StreamingTrace(400, 512 * KB, tid=2), 2),
            _workload(
                "ch",
                lambda: PointerChaseTrace(300, 128 * KB, tid=4, seed=2),
                4, think=4,
            ),
            _workload("s2", lambda: StreamingTrace(450, 384 * KB, tid=6), 6),
        ],
        masks={
            0: WayMask.contiguous(6, 0),
            1: WayMask.contiguous(3, 6),
            2: WayMask.contiguous(3, 9),
            3: WayMask.contiguous(3, 9),
        },
        total_accesses=3_000,
    ))
    cells.append(RosterCell(
        workloads=[
            _workload(
                "solo",
                lambda: ZipfTrace(600, 256 * KB, alpha=1.1, tid=6, seed=9),
                6,
            )
        ],
        total_accesses=2_000,
    ))
    return cells


class TestRosterValidation:
    def test_empty_roster_is_empty(self):
        assert run_packed_roster([]) == []

    def test_cell_without_workloads_rejected(self):
        with pytest.raises(ValidationError):
            run_packed_roster([RosterCell(workloads=[])])

    def test_duplicate_names_rejected(self):
        pair = _pair()
        clash = [pair[0], _workload("fg", pair[1].trace_factory, 4)]
        with pytest.raises(ValidationError):
            run_packed_roster([RosterCell(workloads=clash)])


@pytest.mark.skipif(
    not _native_available(), reason="no C compiler for the batch kernel"
)
class TestBatchedRoster:
    def test_batch_matches_sequential_for_mixed_cells(self):
        batched = run_packed_roster(_mixed_cells())
        sequential = run_packed_roster(_mixed_cells(), sequential=True)
        assert batched == sequential

    def test_disabling_native_gives_identical_results(self):
        batched = run_packed_roster(_mixed_cells())
        fallback = _without_native(
            lambda: run_packed_roster(_mixed_cells())
        )
        assert batched == fallback

    def test_thread_count_never_changes_results(self):
        reference = run_packed_roster(_mixed_cells(), threads=1)
        for threads in (2, 4):
            assert run_packed_roster(
                _mixed_cells(), threads=threads
            ) == reference

    def test_env_thread_knob_is_equivalent_to_the_argument(
        self, monkeypatch
    ):
        explicit = run_packed_roster(_mixed_cells(), threads=3)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert run_packed_roster(_mixed_cells()) == explicit

    def test_bad_env_thread_knob_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "many")
        with pytest.raises(ValidationError):
            run_packed_roster(_mixed_cells())

    def test_one_call_for_the_whole_roster(self):
        from repro.perf import engine_counters as ec

        cells = _mixed_cells()
        before = ec.engine_counters().snapshot()
        run_packed_roster(cells)
        after = ec.engine_counters().snapshot()
        assert after[ec.BATCH_CALLS] == before[ec.BATCH_CALLS] + 1
        assert after[ec.BATCH_CELLS] == before[ec.BATCH_CELLS] + len(cells)

    def test_masked_cell_matches_fresh_engine_with_masks(self):
        fg_ways = 4
        cell = RosterCell(
            workloads=_pair(), masks=_split_masks(fg_ways),
            total_accesses=4_000,
        )
        (batched,) = run_packed_roster([cell])

        engine = TraceEngine(prefetchers_on=False)
        for core, mask in _split_masks(fg_ways).items():
            engine.hierarchy.set_way_mask(core, mask)
        direct = engine.run_packed(_pair(), total_accesses=4_000)
        assert batched == direct

    def test_prefetchers_fall_back_to_sequential(self):
        cells = [RosterCell(workloads=_pair(), total_accesses=2_000)]
        with_pf = run_packed_roster(cells, prefetchers_on=True)

        engine = TraceEngine(prefetchers_on=True)
        direct = engine.run_packed(_pair(), total_accesses=2_000)
        assert with_pf[0] == direct


class TestBatchProfiler:
    def _pack(self):
        return get_pack(ZipfTrace(3_000, 512 * KB, alpha=0.9, seed=13))

    def test_native_profile_matches_python_single_domain(self):
        if not _native_profiler_available():
            pytest.skip("no C compiler for the batch profiler")
        sweep = WaySweep(num_sets=256, num_ways=8, indexing="hash")
        pack = self._pack()
        native_curves = sweep.run_pack(pack)
        python_curves = _without_native(lambda: sweep.run_pack(pack))
        assert native_curves[0].histogram == python_curves[0].histogram
        assert native_curves[0].accesses == python_curves[0].accesses

    def test_native_profile_matches_python_four_domains(self):
        import numpy as np

        if not _native_profiler_available():
            pytest.skip("no C compiler for the batch profiler")
        sweep = WaySweep(
            num_sets=256, num_ways=8, indexing="hash", num_domains=4
        )
        pack = self._pack()
        # A deterministic 4-way interleaving of the stream.
        domains = np.arange(len(pack.line), dtype=np.int64) % 4
        native_curves = sweep.run_pack(pack, domains=domains)
        python_curves = _without_native(
            lambda: sweep.run_pack(pack, domains=domains)
        )
        for d in range(4):
            assert native_curves[d].histogram == python_curves[d].histogram
            assert native_curves[d].accesses == python_curves[d].accesses

    def test_shard_count_never_changes_histograms(self, monkeypatch):
        if not _native_available():
            pytest.skip("no C compiler for the batch kernel")
        sweep = WaySweep(num_sets=256, num_ways=8, indexing="hash")
        pack = self._pack()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        one = sweep.run_pack(pack)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        four = sweep.run_pack(pack)
        assert one[0].histogram == four[0].histogram


class TestMeasuredSweep:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.analysis.experiments import trace_pair_spec

        return trace_pair_spec(
            "zipf", "stream", accesses=6_000,
            footprint_mb=0.5, bg_footprint_mb=1.0, seed=3,
        )

    def test_capability_reflects_the_mode(self):
        from repro.backend import TraceBackend

        assert not TraceBackend().capabilities().sweep_is_measured
        assert TraceBackend(
            measured_sweep=True
        ).capabilities().sweep_is_measured

    def test_measured_sweep_equals_per_split_co_run(self, spec):
        from repro.backend import TraceBackend, WaySplit

        backend = TraceBackend(total_accesses=6_000, measured_sweep=True)
        sweep = backend.sweep(spec)
        assert [w for w, _ in sweep] == list(range(1, LLC_NUM_WAYS))
        for fg_ways, measured in sweep:
            direct = backend.co_run(
                spec, WaySplit.disjoint(fg_ways, LLC_NUM_WAYS)
            )
            assert measured.fg_cost == direct.fg_cost
            assert measured.bg_rate == direct.bg_rate
            assert measured.raw == direct.raw
            assert measured.extra["source"] == "measured"
