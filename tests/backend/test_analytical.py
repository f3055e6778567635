"""The analytical backend must be a transparent view of ``Machine``.

Every assertion here is exact (``==`` on floats): the backend makes the
same ``paper_pair_allocations`` + ``run_pair`` calls the pre-backend
policy code made, so there is nothing to be approximately equal about.
"""

import pytest

from repro.backend import AnalyticalBackend, PairSpec, WaySplit
from repro.core.policies import (
    choose_biased_split,
    policy_dynamic,
    policy_fair,
    policy_shared,
    run_biased,
    run_fair,
    run_shared,
)
from repro.runtime.harness import paper_pair_allocations
from repro.workloads import get_application

FG = "471.omnetpp"
BG = "canneal"


@pytest.fixture(scope="module")
def fg():
    return get_application(FG)


@pytest.fixture(scope="module")
def bg():
    return get_application(BG)


@pytest.fixture(scope="module")
def backend(machine):
    return AnalyticalBackend(machine)


@pytest.fixture(scope="module")
def spec(fg, bg):
    return AnalyticalBackend.pair_spec(fg, bg)


class TestCapabilities:
    def test_reports_the_interval_engine(self, backend, machine):
        caps = backend.capabilities()
        assert caps.name == "analytical"
        assert caps.llc_ways == machine.config.llc_ways
        assert caps.fg_cost_unit == "s"
        assert caps.bg_rate_unit == "instr/s"
        assert caps.sweep_is_measured
        assert caps.supports_dynamic
        assert caps.supports_energy

    def test_pair_spec_resolves_names(self):
        spec = AnalyticalBackend.pair_spec("fop", "batik")
        assert spec.fg_name == "fop"
        assert spec.bg_name == "batik"


class TestCoRunEquality:
    def test_co_run_is_exactly_run_pair(self, backend, machine, spec, fg, bg):
        m = backend.co_run(spec, WaySplit(9, 3))
        fg_alloc, bg_alloc = paper_pair_allocations(
            fg, bg, 9, 3, machine.config.llc_ways
        )
        pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc)
        assert m.fg_cost == pair.fg.runtime_s
        assert m.bg_rate == pair.bg_rate_ips
        assert m.raw.fg.runtime_s == pair.fg.runtime_s
        assert m.raw.fg.socket_energy_j == pair.fg.socket_energy_j

    def test_solo_uses_the_shared_solo_cache(self, backend, machine, fg):
        solo = backend.solo(fg)
        direct = machine.run_solo_cached(
            fg, threads=4, ways=machine.config.llc_ways
        )
        assert solo.cost == direct.runtime_s
        assert solo.name == fg.name


class TestPolicyEquality:
    """Backend-first and machine-first entry points agree to the bit."""

    def test_shared(self, backend, machine, spec, fg, bg):
        via_backend = policy_shared(backend, spec)
        via_machine = run_shared(machine, fg, bg)
        assert via_backend.fg_runtime_s == via_machine.fg_runtime_s
        assert via_backend.bg_rate_ips == via_machine.bg_rate_ips
        assert via_backend.fg_ways == via_machine.fg_ways == 12

    def test_fair(self, backend, machine, spec, fg, bg):
        via_backend = policy_fair(backend, spec)
        via_machine = run_fair(machine, fg, bg)
        assert via_backend.fg_runtime_s == via_machine.fg_runtime_s
        assert via_backend.fg_ways == via_machine.fg_ways == 6

    def test_biased(self, backend, machine, spec, fg, bg):
        via_machine = run_biased(machine, fg, bg)
        pick = choose_biased_split(backend.sweep(spec))
        assert pick[0] == via_machine.fg_ways
        assert pick[1].fg_cost == via_machine.fg_runtime_s

    def test_sweep_entries_are_measured_co_runs(self, backend, spec):
        sweep = backend.sweep(spec)
        assert [w for w, _ in sweep] == list(range(1, 12))
        assert all(m.raw is not None for _, m in sweep)
        assert all(m.fg_cost == m.raw.fg.runtime_s for _, m in sweep)

    def test_biased_choice_is_order_independent(self, backend, spec):
        sweep = backend.sweep(spec)
        pick = choose_biased_split(sweep)
        assert choose_biased_split(list(reversed(sweep))) == pick
        assert choose_biased_split(sweep[1::2] + sweep[::2]) == pick


class TestDynamic:
    def test_controller_trail_rides_on_the_measurement(self, backend, spec):
        outcome = policy_dynamic(backend, spec)
        assert outcome.policy == "dynamic"
        extra = outcome.measurement.extra
        assert extra["controller"].fg_name == spec.fg_name
        assert extra["actions"] == extra["controller"].actions
        assert outcome.fg_ways == extra["controller"].fg_ways
        assert outcome.fg_ways + outcome.bg_ways == 12

    def test_self_pair_background_is_aliased(self, backend):
        fop = get_application("fop")
        outcome = policy_dynamic(backend, PairSpec(fg=fop, bg=fop))
        assert outcome.bg_name == "fop#2"


class TestBandwidthQosDeclinesGrid:
    """The grid solver resolves DRAM contention from the config, so a
    QoS-wrapped DRAM channel must send sweeps to the scalar engine."""

    @pytest.fixture
    def qos_backend(self):
        from repro.sim.engine import Machine

        return AnalyticalBackend(Machine())

    @staticmethod
    def _costs(measurements):
        return [(m.fg_ways, m.fg_cost, m.bg_rate) for m in measurements]

    def test_sweep_under_qos_equals_scalar_co_runs(self, qos_backend):
        from repro.core import QosContract, apply_qos
        from repro.perf import engine_counters as ec

        victim = get_application("462.libquantum")
        hog = get_application("stream_uncached")
        spec = AnalyticalBackend.pair_spec(victim, hog)
        contract = QosContract(victim.name, reserved_fraction=0.35,
                               latency_priority=True)
        restore = apply_qos(qos_backend.machine, [contract])
        try:
            base = ec.engine_counters().snapshot()
            sweep = qos_backend.sweep(spec)
            grid_calls = ec.engine_counters().delta(base).get(
                ec.GRID_CALLS, 0
            )
            scalar = [qos_backend.co_run(spec, WaySplit.disjoint(w, 12))
                      for w, _ in sweep]
            batch = qos_backend.co_run_grid(
                [(spec, WaySplit.disjoint(w, 12)) for w, _ in sweep]
            )
        finally:
            restore()
        assert grid_calls == 0
        assert self._costs(m for _, m in sweep) == self._costs(scalar)
        assert self._costs(batch) == self._costs(scalar)

        # Restored to the stock channel, the grid serves the sweep again
        # and QoS no longer shows in the numbers.
        base = ec.engine_counters().snapshot()
        stock = qos_backend.sweep(spec)
        assert ec.engine_counters().delta(base).get(ec.GRID_CALLS, 0) > 0
        assert self._costs(m for _, m in stock) != self._costs(scalar)

    # Every mutation a Machine (or the run options it is handed) accepts,
    # with the path co_run_grid must take under it.
    _MUTATIONS = {
        "stock": "grid",
        "apply_qos": "declines",
        "msr_prefetchers_off": "grid",
        "operating_points": "grid",
        "machine_config": "grid",
        "memo_off": "grid",
        "occupancy_tol0": "grid",
        "occupancy_tol_loose": "grid",
        "finite_background": "declines",
    }

    @staticmethod
    def _mutated(mutation):
        """``(machine, options, configs, restore)`` for one mutation;
        ``configs`` are the per-cell operating points (None: the
        machine's own)."""
        from repro.core import QosContract, apply_qos
        from repro.cpu.config import SandyBridgeConfig
        from repro.sim.engine import Machine
        from repro.sim.tuning import EngineTuning

        base = SandyBridgeConfig()
        machine, options, configs = Machine(), {}, (None,)
        restore = lambda: None  # noqa: E731
        if mutation == "apply_qos":
            restore = apply_qos(machine, [QosContract(
                "462.libquantum", reserved_fraction=0.35,
                latency_priority=True,
            )])
        elif mutation == "msr_prefetchers_off":
            # All four MISC_FEATURE_CONTROL prefetcher-disable bits set.
            options = {"prefetchers_on": False}
        elif mutation == "operating_points":
            configs = (base.at_frequency(2.0e9), base.at_frequency(3.0e9))
        elif mutation == "machine_config":
            machine = Machine(config=base.at_frequency(2.3e9))
        elif mutation == "memo_off":
            machine = Machine(memoize=False)
        elif mutation == "occupancy_tol0":
            machine = Machine(tuning=EngineTuning(occupancy_tol=0.0))
        elif mutation == "occupancy_tol_loose":
            machine = Machine(tuning=EngineTuning(occupancy_tol=1e-3))
        elif mutation == "finite_background":
            options = {"bg_continuous": False}
        return machine, options, configs, restore

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_grid_equals_scalar_or_declines(self, mutation):
        """co_run_grid either reproduces per-cell scalar co_run bit for
        bit, or declines: the grid-cells counter does not move."""
        from repro.perf import engine_counters as ec
        from repro.sim.engine import Machine

        machine, options, configs, restore = self._mutated(mutation)
        backend = AnalyticalBackend(machine)
        specs = [
            AnalyticalBackend.pair_spec(fg, bg, **options)
            for fg, bg in (("462.libquantum", "stream_uncached"),
                           ("471.omnetpp", "canneal"))
        ]
        items = [
            (spec, WaySplit.disjoint(w, 12), config)
            for config in configs for spec in specs for w in (1, 6, 11)
        ]
        try:
            base = ec.engine_counters().snapshot()
            batch = backend.co_run_grid(
                item if item[2] is not None else item[:2] for item in items
            )
            grid_cells = ec.engine_counters().delta(base).get(
                ec.GRID_CELLS, 0
            )
            scalar = []
            for spec, split, config in items:
                reference = backend if config is None else AnalyticalBackend(
                    Machine(config=config, tuning=machine.tuning)
                )
                scalar.append(reference.co_run(spec, split))
        finally:
            restore()
        expected = self._MUTATIONS[mutation]
        assert grid_cells == (len(items) if expected == "grid" else 0)
        assert self._costs(batch) == self._costs(scalar)
        assert [m.raw for m in batch] == [m.raw for m in scalar]
