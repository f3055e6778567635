"""The address-level co-execution engine."""

import os

import pytest

from repro.cache.block import MemoryAccess
from repro.cache.llc import WayMask
from repro.perf import engine_counters as ec
from repro.sim.trace_engine import TraceEngine, TraceWorkload, measure_isolation
from repro.util.errors import ValidationError
from repro.util.units import KB, MB
from repro.workloads.trace import PointerChaseTrace, StreamingTrace, ZipfTrace


def chase(tid=0, ws=2 * MB, length=20_000):
    return TraceWorkload(
        name=f"chase{tid}",
        trace_factory=lambda: PointerChaseTrace(length, ws, tid=tid, seed=5),
        tid=tid,
        think_cycles=4,
    )


class ReadWriteStream(StreamingTrace):
    """A stream that stores to every third line: no shipped generator
    emits writes, so this is the only way to build a write-bearing pack."""

    def __iter__(self):
        for i, acc in enumerate(super().__iter__()):
            yield MemoryAccess(address=acc.address, is_write=i % 3 == 0,
                               pc=acc.pc, tid=acc.tid)


def _with_native(enabled, fn):
    """Run ``fn`` with the native kernels enabled or force-disabled."""
    from repro.cache import native

    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "1" if enabled else "0"
    native.reset()
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native.reset()


def stream(tid=2, length=20_000):
    return TraceWorkload(
        name=f"stream{tid}",
        trace_factory=lambda: StreamingTrace(length, 32 * MB, tid=tid),
        tid=tid,
        think_cycles=1,
    )


class TestSoloRuns:
    def test_stats_accumulate(self):
        engine = TraceEngine(prefetchers_on=False)
        stats = engine.run([chase()], total_accesses=5000)["chase0"]
        assert stats.accesses == 5000
        assert stats.cycles > 0
        assert sum(stats.hits_by_level.values()) == 5000

    def test_small_working_set_hits_cache(self):
        engine = TraceEngine(prefetchers_on=False)
        small = TraceWorkload(
            "small",
            lambda: PointerChaseTrace(20_000, 16 * KB, tid=0, seed=3),
            tid=0,
        )
        stats = engine.run([small], total_accesses=20_000)["small"]
        assert stats.avg_latency < 10  # mostly L1 after warm-up

    def test_huge_working_set_misses(self):
        engine = TraceEngine(prefetchers_on=False)
        big = TraceWorkload(
            "big",
            lambda: PointerChaseTrace(20_000, 64 * MB, tid=0, seed=3),
            tid=0,
        )
        stats = engine.run([big], total_accesses=20_000)["big"]
        assert stats.avg_latency > 100  # mostly DRAM

    def test_nonrepeating_trace_retires(self):
        engine = TraceEngine(prefetchers_on=False)
        short = TraceWorkload(
            "short",
            lambda: StreamingTrace(100, 1 * MB, tid=0),
            tid=0,
            repeat=False,
        )
        stats = engine.run([short], total_accesses=10_000)["short"]
        assert stats.accesses == 100


class TestCoRuns:
    def test_both_make_progress(self):
        engine = TraceEngine(prefetchers_on=False)
        stats = engine.run([chase(0), stream(2)], total_accesses=20_000)
        assert stats["chase0"].accesses > 2000
        assert stats["stream2"].accesses > 2000

    def test_virtual_time_interleaving_is_fair(self):
        """Equal think times -> comparable virtual progress."""
        engine = TraceEngine(prefetchers_on=False)
        a = chase(0)
        b = chase(2)
        b.name = "chase2b"
        stats = engine.run([a, b], total_accesses=20_000)
        cycles = [stats[a.name].cycles, stats[b.name].cycles]
        assert max(cycles) / min(cycles) < 1.2

    def test_duplicate_names_rejected(self):
        engine = TraceEngine()
        with pytest.raises(ValidationError):
            engine.run([chase(0), chase(0)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TraceEngine().run([])


class TestIsolationMeasurement:
    def test_partitioning_protects_fg_latency(self):
        """The paper's core claim at line granularity: a streaming
        co-runner inflates a cache-resident foreground's latency under
        sharing; a way partition restores it."""
        fg = TraceWorkload(
            "fg",
            lambda: ZipfTrace(80_000, 6 * MB, alpha=0.9, tid=0, seed=7),
            tid=0,
            think_cycles=6,
        )
        bg = TraceWorkload(
            "bg",
            lambda: StreamingTrace(50_000, 32 * MB, tid=4),
            tid=4,
            think_cycles=0,
        )
        out = measure_isolation(
            fg,
            bg,
            fg_mask=WayMask.contiguous(9, 0),
            bg_mask=WayMask.contiguous(3, 9),
            total_accesses=300_000,
        )
        # Sharing lets the stream evict the foreground's hot lines...
        assert out["shared"]["miss_ratio"] > out["alone"]["miss_ratio"] * 3
        assert out["shared"]["avg_latency"] > out["alone"]["avg_latency"] * 1.3
        # ...and the way partition confines the damage.
        assert out["partitioned"]["miss_ratio"] < out["shared"]["miss_ratio"] * 0.5
        assert out["partitioned"]["avg_latency"] < out["shared"]["avg_latency"] * 0.8

    def test_kernel_default_matches_object_model(self, monkeypatch):
        """The packed warm-then-measure passes on one kernel-form
        hierarchy return exactly the dicts the object model's run()
        gives for the same passes."""
        fg = TraceWorkload(
            "fg",
            lambda: ZipfTrace(6_000, 1 * MB, alpha=0.9, tid=0, seed=7),
            tid=0,
            think_cycles=6,
        )
        bg = TraceWorkload(
            "bg",
            lambda: StreamingTrace(4_000, 4 * MB, tid=4),
            tid=4,
            think_cycles=0,
        )
        kwargs = dict(
            fg_mask=WayMask.contiguous(9, 0),
            bg_mask=WayMask.contiguous(3, 9),
            total_accesses=15_000,
        )
        kernel = measure_isolation(fg, bg, **kwargs)
        monkeypatch.setattr(
            TraceEngine, "run_packed",
            lambda self, workloads, total_accesses: self.run(
                workloads, total_accesses
            ),
        )
        assert measure_isolation(fg, bg, **kwargs) == kernel

    def test_same_core_rejected(self):
        with pytest.raises(ValidationError):
            measure_isolation(chase(0), chase(1))


class TestRunPacked:
    """run_packed must be bit-identical to run() on every path."""

    @pytest.fixture(autouse=True)
    def _private_pack_cache(self, monkeypatch, tmp_path):
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

    @staticmethod
    def _engine(partition=True):
        engine = TraceEngine(prefetchers_on=False)
        if partition:
            engine.hierarchy.set_way_mask(0, WayMask.contiguous(9, 0))
            engine.hierarchy.set_way_mask(2, WayMask.contiguous(3, 9))
        return engine

    @staticmethod
    def _signature(engine, stats):
        hierarchy = engine.hierarchy
        levels = (
            list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]
        )
        return (
            stats,
            [sorted(level.stats.snapshot().items()) for level in levels],
            [sorted(level.stats.per_domain_accesses.items()) for level in levels],
            [sorted(level.stats.per_domain_misses.items()) for level in levels],
            hierarchy.llc.storage.occupancy_by_way(),
            sorted(hierarchy.llc.storage.resident_lines()),
        )

    def _pair_workloads(self, length=9_000):
        return [
            TraceWorkload(
                "fg",
                lambda: ZipfTrace(length, 2 * MB, alpha=0.9, tid=0, seed=7),
                tid=0,
                think_cycles=6,
            ),
            TraceWorkload(
                "bg",
                lambda: StreamingTrace(length, 8 * MB, tid=4),
                tid=4,
                think_cycles=2,
            ),
        ]

    def _assert_identical(self, workloads, total_accesses, partition=True):
        engine = self._engine(partition)
        baseline = self._signature(
            engine, engine.run(workloads, total_accesses=total_accesses)
        )
        engine = self._engine(partition)
        packed = self._signature(
            engine, engine.run_packed(workloads, total_accesses=total_accesses)
        )
        assert packed == baseline

    def test_pair_co_run_identical(self):
        """Two domains on the epoch replay (native when available)."""
        self._assert_identical(self._pair_workloads(), 16_000)

    def test_pair_co_run_identical_without_native(self, monkeypatch):
        """REPRO_NATIVE=0 must fall back to the Python epoch driver with
        the exact same results."""
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            assert native.multi_walk_fn() is None
            self._assert_identical(self._pair_workloads(), 16_000)
        finally:
            native.reset()

    def test_single_workload_identical(self):
        workloads = [self._pair_workloads()[0]]
        self._assert_identical(workloads, 8_000, partition=False)

    def test_three_workloads_identical(self):
        """Three domains take the same epoch replay (native multiwalk
        when available, else the Python epoch driver)."""
        workloads = self._pair_workloads() + [
            TraceWorkload(
                "extra",
                lambda: PointerChaseTrace(6_000, 1 * MB, tid=6, seed=3),
                tid=6,
                think_cycles=4,
            )
        ]
        self._assert_identical(workloads, 18_000)

    def test_sweep_with_and_without_packs_agree(self):
        from repro.sim.trace_engine import way_allocation_sweep

        workloads = self._pair_workloads(length=6_000)
        packed_stats, packed_curves = way_allocation_sweep(
            workloads, total_accesses=10_000, use_packs=True
        )
        plain_stats, plain_curves = way_allocation_sweep(
            workloads, total_accesses=10_000, use_packs=False
        )
        assert packed_stats == plain_stats
        assert packed_curves == plain_curves

    def _group_workloads(self, domains, length=6_000):
        extra = [
            TraceWorkload(
                "chase",
                lambda: PointerChaseTrace(length, 1 * MB, tid=2, seed=3),
                tid=2,
                think_cycles=4,
            ),
            TraceWorkload(
                "stream2",
                lambda: StreamingTrace(length, 4 * MB, tid=6),
                tid=6,
                think_cycles=2,
            ),
        ]
        return (self._pair_workloads(length=length) + extra)[:domains]

    @pytest.mark.parametrize("native_on", [True, False],
                             ids=["native", "python"])
    @pytest.mark.parametrize("domains", [1, 2, 3, 4])
    def test_profiled_sweep_packs_match_generator(self, domains, native_on):
        """A profiled co-run replays its packs on the native kernel, which
        feeds the attached profiler itself (``REPRO_NATIVE=0`` puts every
        pass on the Python epoch driver), and must equal the generator
        path in stats and every curve."""
        from repro.cache import native
        from repro.perf import engine_counters as ec
        from repro.sim.trace_engine import way_allocation_sweep

        if native_on and _with_native(True, native.multi_walk_fn) is None:
            pytest.skip("no C compiler for the native kernel")
        workloads = self._group_workloads(domains)

        def sweep(use_packs):
            return way_allocation_sweep(
                workloads, total_accesses=9_000, warmup_accesses=2_000,
                use_packs=use_packs,
            )

        base = ec.engine_counters().snapshot()
        packed = _with_native(native_on, lambda: sweep(True))
        delta = ec.engine_counters().delta(base)
        plain = _with_native(native_on, lambda: sweep(False))
        assert delta.get(ec.PACK_REPLAYS, 0) == 2 * domains  # warm-up + pass
        # Native: no pass falls back; Python: both passes are counted.
        assert delta.get(ec.PYTHON_REPLAYS, 0) == (0 if native_on else 2)
        assert packed[0] == plain[0]
        assert packed[1] == plain[1]

    @staticmethod
    def _llc_profiler(engine, **overrides):
        from repro.cache.profile import WayProfiler

        llc = engine.hierarchy.llc.storage
        geometry = dict(
            num_sets=llc.num_sets,
            num_ways=llc.num_ways,
            indexing=llc.indexing,
            num_domains=engine.hierarchy.num_cores,
        )
        geometry.update(overrides)
        return WayProfiler(**geometry)

    def test_profiler_state_carries_across_packed_calls(self):
        """One profiler observes two run_packed calls with a mask change
        in between: its stacks carry over from the first call into the
        second, and every curve, window and stack equals the Python
        driver's (``REPRO_NATIVE=0``)."""
        from repro.cache import native
        from repro.perf import engine_counters as ec

        if _with_native(True, native.multi_walk_fn) is None:
            pytest.skip("no C compiler for the native kernel")
        workloads = self._group_workloads(3)

        def two_calls():
            engine = self._engine()
            profiler = self._llc_profiler(engine)
            engine.hierarchy.llc_profiler = profiler
            first = engine.run_packed(workloads, total_accesses=7_000)
            window = profiler.snapshot()
            engine.hierarchy.set_way_mask(0, WayMask.contiguous(4, 0))
            engine.hierarchy.set_way_mask(2, WayMask.contiguous(8, 4))
            second = engine.run_packed(workloads, total_accesses=5_000)
            return (
                first,
                self._signature(engine, second),
                profiler.curves(),
                {d: profiler.delta_curve(window, d) for d in range(4)},
                profiler._stacks,
            )

        base = ec.engine_counters().snapshot()
        native_run = _with_native(True, two_calls)
        assert ec.engine_counters().delta(base).get(ec.PYTHON_REPLAYS) == 0
        python_run = _with_native(False, two_calls)
        assert ec.engine_counters().delta(base).get(ec.PYTHON_REPLAYS) == 2
        assert native_run == python_run
        assert native_run[2][0].accesses > native_run[3][0].accesses > 0

    @pytest.mark.parametrize(
        "overrides",
        [{"num_sets": 4096}, {"indexing": "mod"}],
        ids=["other-num-sets", "mod-on-hashed-llc"],
    )
    def test_mismatched_profiler_served_by_python_driver(self, overrides):
        """A profiler that does not index like the LLC is declined by the
        native kernel, replays on PythonEpochReplay, and still equals
        run() in stats and curves."""
        from repro.perf import engine_counters as ec

        workloads = self._group_workloads(2)

        def profiled(method):
            engine = self._engine()
            profiler = self._llc_profiler(engine, **overrides)
            engine.hierarchy.llc_profiler = profiler
            stats = getattr(engine, method)(workloads, total_accesses=8_000)
            return self._signature(engine, stats), profiler.curves()

        base = ec.engine_counters().snapshot()
        packed = profiled("run_packed")
        assert ec.engine_counters().delta(base).get(ec.PYTHON_REPLAYS) == 1
        assert packed == profiled("run")

    def test_write_bearing_packs_match_run(self):
        """A pack that carries writes is served by run() itself."""
        from repro.workloads import tracepack

        workloads = [
            TraceWorkload(
                "rw",
                lambda: ReadWriteStream(7_000, 2 * MB, tid=0),
                tid=0,
                think_cycles=3,
            ),
            self._pair_workloads()[1],
        ]
        pack = tracepack.get_pack(workloads[0].trace_factory())
        assert pack.writes_list() is not None
        self._assert_identical(workloads, 14_000)

    @pytest.mark.parametrize("native_on", [True, False])
    def test_run_packed_run_chain_on_one_hierarchy(self, native_on):
        """run() turns the levels it walks into the object model; the
        next run_packed hands them back to the flat form and is served
        by a pack driver; a last run() converts them again. The chain
        equals three run() calls on a second hierarchy."""
        from repro.cache.cache import CacheLevel

        workloads = self._pair_workloads(length=5_000)
        engine = self._engine()
        reference = self._engine()
        chain = []
        for step in ("run", "run_packed", "run"):
            base = ec.engine_counters().snapshot()
            stats = _with_native(
                native_on,
                lambda: getattr(engine, step)(workloads, total_accesses=6_000),
            )
            delta = ec.engine_counters().delta(base)
            if step == "run_packed":
                assert delta.get(ec.PACK_REPLAYS, 0) == len(workloads)
                assert not any(
                    isinstance(lvl, CacheLevel) for lvl in _levels(engine)
                )
            else:
                assert isinstance(engine.hierarchy.llc.storage, CacheLevel)
            chain.append(self._signature(engine, stats))
            assert chain[-1] == self._signature(
                reference, reference.run(workloads, total_accesses=6_000)
            )

    def test_declined_replay_converts_nothing(self):
        """A dirty L1 left by a write declines the pack replay before
        any level is converted, and run_packed falls back to run()."""
        from repro.cache.cache import CacheLevel
        from repro.cache.kernel import _epoch_replay_supported

        engine, reference = self._engine(), self._engine()
        for e in (engine, reference):
            e.hierarchy.access(MemoryAccess(address=0x4000, is_write=True))
        before = [type(lvl) for lvl in _levels(engine)]
        assert before.count(CacheLevel) == 3  # core 0's L1, L2 and the LLC
        assert not _epoch_replay_supported(engine.hierarchy, [0, 2])
        assert [type(lvl) for lvl in _levels(engine)] == before
        base = ec.engine_counters().snapshot()
        workloads = self._pair_workloads(length=2_000)
        assert self._signature(
            engine, engine.run_packed(workloads, 3_000)
        ) == self._signature(reference, reference.run(workloads, 3_000))
        assert ec.engine_counters().delta(base).get(ec.PACK_REPLAYS, 0) == 0


def _levels(engine):
    h = engine.hierarchy
    return [h.llc.storage, *h.l1, *h.l2]
