"""The interval-engine backend: policies over ``Machine.run_pair``.

Wraps :class:`repro.sim.engine.Machine` (and its IntervalMemo and shared
solo cache) behind :class:`~repro.backend.protocol.SimBackend`. The
mapping is exactly what the pre-refactor policy code did — the same
``paper_pair_allocations`` masks, the same ``run_pair`` calls in the
same order — so policy outcomes through this backend are bit-identical
to the seed implementation.
"""

from repro.backend.protocol import (
    BackendCapabilities,
    CoRunMeasurement,
    GroupMeasurement,
    GroupSplit,
    SimBackend,
    SoloMeasurement,
    TenantSet,
    WaySplit,
    WayUtility,
)
from repro.runtime.harness import paper_pair_allocations
from repro.util.errors import ValidationError

PAPER_THREADS = 4


class AnalyticalBackend(SimBackend):
    """Shared/fair/biased/dynamic over the statistical interval engine.

    ``fg_cost`` is the foreground runtime in seconds; ``bg_rate`` is the
    background's instructions per second while the foreground ran
    (``PairResult.bg_rate_ips``). ``raw`` is the full
    :class:`~repro.sim.engine.PairResult`, energy included.
    """

    def __init__(self, machine=None):
        if machine is None:
            from repro.sim.engine import Machine

            machine = Machine()
        self.machine = machine

    def capabilities(self):
        return BackendCapabilities(
            name="analytical",
            llc_ways=self.machine.config.llc_ways,
            fg_cost_unit="s",
            bg_rate_unit="instr/s",
            sweep_is_measured=True,
            supports_dynamic=True,
            supports_energy=True,
            supports_operating_points=True,
        )

    def _grid_options(self, options):
        """The grid solver's supported option subset, or None.

        ``run_pair_grid`` covers the continuous-background, uncontrolled
        steady-state case (what sweeps and campaigns run) on a stock
        memory system. Anything else — a finite background, the dynamic
        controller, timelines, custom step sizes, or a DRAM/ring domain
        the grid would not see (``apply_qos`` installs one) — falls back
        to the scalar engine.
        """
        if not self._stock_memory_system():
            return None
        known = {"bg_continuous": True, "prefetchers_on": True}
        merged = dict(known, **options)
        if set(merged) != set(known) or merged["bg_continuous"] is not True:
            return None
        if not isinstance(merged["prefetchers_on"], bool):
            return None
        return merged

    def _stock_memory_system(self):
        """True while DRAM and ring are both plain ``BandwidthDomain``
        objects of the configured capacity. The grid resolves contention
        from the config alone, so any other installed domain declines it."""
        from repro.cpu.bandwidth import BandwidthDomain

        memory = self.machine.memory_system
        config = self.machine.config
        return all(
            type(domain) is BandwidthDomain and domain.capacity_bps == cap
            for domain, cap in (
                (memory.dram, config.dram_bandwidth_bps),
                (memory.ring, config.ring_bandwidth_bps),
            )
        )

    def solo(self, app, threads=None):
        """The app alone in the paper's co-run slot, via the solo cache."""
        if threads is None:
            threads = 1 if app.scalability.single_threaded else PAPER_THREADS
        result = self.machine.run_solo_cached(
            app, threads=threads, ways=self.machine.config.llc_ways
        )
        return SoloMeasurement(
            backend="analytical", name=app.name, cost=result.runtime_s,
            raw=result,
        )

    def co_run(self, spec, split):
        llc_ways = self.machine.config.llc_ways
        fg_alloc, bg_alloc = paper_pair_allocations(
            spec.fg, spec.bg, split.fg_ways, split.bg_ways, llc_ways
        )
        pair = self.machine.run_pair(
            spec.fg, spec.bg, fg_alloc, bg_alloc, **spec.options
        )
        return CoRunMeasurement(
            backend="analytical",
            fg_name=spec.fg_name,
            bg_name=spec.bg_name,
            fg_ways=split.fg_ways,
            bg_ways=split.bg_ways,
            fg_cost=pair.fg.runtime_s,
            bg_rate=pair.bg_rate_ips,
            raw=pair,
        )

    def co_run_grid(self, items):
        """Vectorized batch of co-runs via :mod:`repro.sim.gridsolve`.

        ``items`` are ``(spec, split)`` pairs or ``(spec, split, config)``
        triples (per-cell operating points). Cells whose options the
        grid solver covers are solved in one vectorized call; the rest
        run through the scalar :meth:`co_run`. Results are returned in
        item order and are bit-identical to the sequential walk.
        """
        from repro.sim.gridsolve import GridCell, run_pair_grid

        items = list(items)
        cells = {}
        for i, item in enumerate(items):
            spec, split = item[0], item[1]
            config = item[2] if len(item) == 3 else None
            options = self._grid_options(spec.options)
            if options is None:
                continue
            cfg = config or self.machine.config
            fg_alloc, bg_alloc = paper_pair_allocations(
                spec.fg, spec.bg, split.fg_ways, split.bg_ways, cfg.llc_ways
            )
            cells[i] = GridCell(
                fg=spec.fg,
                bg=spec.bg,
                fg_allocation=fg_alloc,
                bg_allocation=bg_alloc,
                config=config,
                prefetchers_on=options["prefetchers_on"],
            )
        order = sorted(cells)
        pairs = run_pair_grid(
            [cells[i] for i in order],
            tuning=self.machine.tuning,
            config=self.machine.config,
        )
        solved = dict(zip(order, pairs))

        results = []
        for i, item in enumerate(items):
            spec, split = item[0], item[1]
            pair = solved.get(i)
            if pair is None:
                config = item[2] if len(item) == 3 else None
                if config is not None:
                    raise ValidationError(
                        "per-cell operating points require grid-solvable "
                        f"options on a stock memory system; got "
                        f"{spec.options!r}"
                    )
                results.append(self.co_run(spec, split))
                continue
            results.append(
                CoRunMeasurement(
                    backend="analytical",
                    fg_name=spec.fg_name,
                    bg_name=spec.bg_name,
                    fg_ways=split.fg_ways,
                    bg_ways=split.bg_ways,
                    fg_cost=pair.fg.runtime_s,
                    bg_rate=pair.bg_rate_ips,
                    raw=pair,
                )
            )
        return results

    def sweep(self, spec):
        """All disjoint splits in one vectorized grid call.

        Falls back to the per-split default when the grid solver does
        not model the request (finite backgrounds, controllers,
        timelines, or a non-stock memory system such as bandwidth QoS).
        """
        if self._grid_options(spec.options) is None:
            return super().sweep(spec)
        llc_ways = self.machine.config.llc_ways
        splits = [
            WaySplit.disjoint(fg_ways, llc_ways)
            for fg_ways in range(1, llc_ways)
        ]
        measurements = self.co_run_grid([(spec, split) for split in splits])
        return [
            (split.fg_ways, m) for split, m in zip(splits, measurements)
        ]

    def dynamic(self, spec, controller=None):
        """One dynamic-controller co-run (Algorithm 6.2, 100 ms periods).

        Self-pairs are cloned under an aliased name by the engine, so the
        controller is keyed on the aliased background name.
        """
        from repro.core.dynamic import DynamicPartitionController

        fg, bg = spec.fg, spec.bg
        bg_name = bg.name if bg.name != fg.name else f"{bg.name}#2"
        if controller is None:
            controller = DynamicPartitionController(
                fg_name=fg.name,
                bg_name=bg_name,
                llc_ways=self.machine.config.llc_ways,
                way_mb=self.machine.config.way_mb,
            )
        masks = controller.masks()
        fg_alloc, bg_alloc = paper_pair_allocations(
            fg, bg, llc_ways=self.machine.config.llc_ways
        )
        options = dict(spec.options)
        options.setdefault("bg_continuous", True)
        pair = self.machine.run_pair(
            fg,
            bg,
            fg_alloc.with_mask(masks[fg.name]),
            bg_alloc.with_mask(masks[bg_name]),
            controller=controller,
            **options,
        )
        return CoRunMeasurement(
            backend="analytical",
            fg_name=fg.name,
            bg_name=bg_name,
            fg_ways=controller.fg_ways,
            bg_ways=self.machine.config.llc_ways - controller.fg_ways,
            fg_cost=pair.fg.runtime_s,
            bg_rate=pair.bg_rate_ips,
            raw=pair,
            extra={"controller": controller, "actions": controller.actions},
        )

    # -- N-tenant groups ----------------------------------------------------

    def _group_allocations(self, group, mask_bits):
        """One :class:`~repro.sim.allocation.Allocation` per tenant.

        Each tenant is pinned to its own physical core (up to the
        machine's core count) with ``1`` thread for single-threaded
        models and ``2`` (both hyperthreads) otherwise, and its fills
        restricted to its mask.
        """
        from repro.cache.llc import WayMask
        from repro.sim.allocation import Allocation

        num_cores = self.machine.config.num_cores
        if len(group.tenants) > num_cores:
            raise ValidationError(
                f"the analytical machine has {num_cores} cores; cannot "
                f"pin {len(group.tenants)} tenants"
            )
        llc_ways = self.machine.config.llc_ways
        allocations = []
        for core, (app, bits) in enumerate(zip(group.tenants, mask_bits)):
            threads = 1 if app.scalability.single_threaded else 2
            allocations.append(Allocation(
                threads=threads,
                cores=(core,),
                mask=WayMask.from_bits(bits, llc_ways),
            ))
        return allocations

    def _group_run_options(self, group):
        allowed = {"step_s", "timeline"}
        unknown = set(group.options) - allowed
        if unknown:
            raise ValidationError(
                f"group runs do not support options {sorted(unknown)}"
            )
        return dict(group.options)

    def group_measurement(self, group, split, result, extra=None):
        """The GroupMeasurement for one finished ``Machine.run_group``."""
        fg_runtime = result.fg.runtime_s
        names = tuple(group.names)
        costs = [result.fg.runtime_s]
        rates = [None]
        for name in names[1:]:
            bg = result.backgrounds[name]
            costs.append(bg.runtime_s)
            rates.append(
                bg.instructions / fg_runtime if fg_runtime else 0.0
            )
        return GroupMeasurement(
            backend="analytical",
            names=names,
            split=split,
            costs=tuple(costs),
            rates=tuple(rates),
            raw=result,
            extra=extra or {},
        )

    def co_run_group(self, group, split):
        """Co-run N tenants under per-tenant way masks.

        Pair-shaped 2-tenant groups delegate to :meth:`co_run` (the
        grid-capable pair machinery, bit-identical to the seed path);
        larger groups run through ``Machine.run_group`` — the scalar
        N-tenant interval solve.
        """
        measurement = self._pair_group_measurement(group, split)
        if measurement is not None:
            return measurement
        allocations = self._group_allocations(group, split.mask_bits)
        options = self._group_run_options(group)
        result = self.machine.run_group(
            group.tenants[0], group.tenants[1:],
            allocations[0], allocations[1:], **options
        )
        return self.group_measurement(group, split, result)

    def dynamic_group(self, group, controller=None):
        """N tenants under a dynamic controller via ``Machine.run_group``.

        2-tenant groups delegate to :meth:`dynamic` (the seed pair
        path). For larger groups the default controller treats tenant 0
        as the foreground and the rest as peers sharing the complement.
        """
        if len(group.tenants) == 2:
            return SimBackend.dynamic_group(self, group, controller=controller)
        from repro.core.dynamic import DynamicPartitionController

        names = tuple(group.names)
        if controller is None:
            controller = DynamicPartitionController(
                fg_name=names[0],
                bg_name=names[1:],
                llc_ways=self.machine.config.llc_ways,
                way_mb=self.machine.config.way_mb,
            )
        masks = controller.masks()
        llc_ways = self.machine.config.llc_ways
        split = GroupSplit(
            tuple(masks[name].bits for name in names), llc_ways
        )
        allocations = self._group_allocations(group, split.mask_bits)
        options = self._group_run_options(group)
        result = self.machine.run_group(
            group.tenants[0], group.tenants[1:],
            allocations[0], allocations[1:],
            controller=controller, **options
        )
        final = controller.masks()
        final_split = GroupSplit(
            tuple(final[name].bits for name in names), llc_ways
        )
        return self.group_measurement(
            group, final_split, result,
            extra={"controller": controller, "actions": controller.actions},
        )

    def way_utility(self, group):
        """Per-tenant way-utility curves from cached solo runs at each
        allocation (the backend's solo methodology, one run per way
        count)."""
        llc_ways = self.machine.config.llc_ways
        out = {}
        for app, name in zip(group.tenants, group.names):
            threads = 1 if app.scalability.single_threaded else PAPER_THREADS
            hits = []
            for ways in range(1, llc_ways + 1):
                result = self.machine.run_solo_cached(
                    app, threads=threads, ways=ways
                )
                hits.append(
                    max(0.0, result.llc_accesses - result.llc_misses)
                )
            full = self.machine.run_solo_cached(
                app, threads=threads, ways=llc_ways
            )
            out[name] = WayUtility(
                name=name,
                hits_by_ways=tuple(hits),
                accesses=float(full.llc_accesses),
            )
        return out

    # Convenience used by the CLI and tests: a spec from application names.
    @staticmethod
    def pair_spec(fg, bg, **options):
        from repro.backend.protocol import PairSpec
        from repro.workloads import get_application

        if isinstance(fg, str):
            fg = get_application(fg)
        if isinstance(bg, str):
            bg = get_application(bg)
        return PairSpec(fg=fg, bg=bg, options=options)

    @staticmethod
    def group_spec(names, **options):
        """A TenantSet from application names (or models), aliasing
        duplicates exactly as ``Machine.run_group`` does ("#2", ...)."""
        from repro.workloads import get_application

        apps = [
            get_application(n) if isinstance(n, str) else n for n in names
        ]
        seen, aliased = set(), []
        for app in apps:
            name = app.name
            suffix = 2
            while name in seen:
                name = f"{app.name}#{suffix}"
                suffix += 1
            seen.add(name)
            aliased.append(name)
        return TenantSet(tenants=apps, options=options, names=tuple(aliased))


__all__ = ["AnalyticalBackend", "GroupSplit", "TenantSet", "WaySplit"]
