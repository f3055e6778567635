"""Smoke and shape tests for the per-figure experiment drivers."""

import pytest

from repro.analysis import experiments as ex

SUBSET = ["429.mcf", "ferret", "batik", "swaptions", "471.omnetpp"]


class TestCharacterizationDrivers:
    def test_fig01_returns_curves(self, characterizer):
        curves = ex.fig01_thread_scalability(characterizer, SUBSET)
        assert set(curves) == set(SUBSET)
        assert curves["ferret"][1] == pytest.approx(1.0)

    def test_tab01_structure(self, characterizer):
        table = ex.tab01_scalability_classes(characterizer, SUBSET)
        assert "SPEC" in table
        assert "429.mcf" in table["SPEC"]["low"]

    def test_fig02_representatives(self, characterizer):
        data = ex.fig02_llc_sensitivity(characterizer)
        assert set(data) == {"swaptions", "tomcat", "471.omnetpp"}
        # Single-threaded omnetpp only has a 1-thread series.
        assert list(data["471.omnetpp"]) == [1]
        # Runtime decreases (or stays) with more ways for omnetpp.
        series = data["471.omnetpp"][1]
        assert series[12] <= series[2]

    def test_tab02_bold_flags(self, characterizer):
        table = ex.tab02_llc_utility(characterizer, SUBSET)
        assert "471.omnetpp" in table["bold"]
        assert "swaptions" not in table["bold"]

    def test_fig03_and_fig04(self, characterizer):
        pf = ex.fig03_prefetch_sensitivity(characterizer, SUBSET)
        bw = ex.fig04_bandwidth_sensitivity(characterizer, SUBSET)
        assert all(0.5 < v <= 1.2 for v in pf.values())
        assert all(v >= 0.99 for v in bw.values())

    def test_fig05_clustering(self, characterizer):
        out = ex.fig05_clustering(characterizer)
        assert out["num_clusters"] >= 6
        # fluidanimate is excluded (power-of-2 irregularity, Section 3.5).
        assert all(
            "fluidanimate" not in members for members in out["clusters"].values()
        )
        # The paper's six representatives span several distinct clusters.
        labels = out["result"].labels
        rep_clusters = {labels[name] for name in out["paper_representatives"].values()}
        assert len(rep_clusters) >= 4


class TestAllocationSpaceDrivers:
    def test_fig06_grid(self, characterizer):
        grid = ex.fig06_allocation_space(
            characterizer,
            apps=["batik"],
            thread_counts=(1, 4),
            way_counts=(2, 12),
        )["batik"]
        assert set(grid) == {(1, 2), (1, 12), (4, 2), (4, 12)}
        assert grid[(4, 12)]["runtime_s"] < grid[(1, 2)]["runtime_s"]
        assert grid[(1, 2)]["mpki"] > grid[(1, 12)]["mpki"]

    def test_fig07_contours_normalized(self, characterizer):
        space = ex.fig06_allocation_space(
            characterizer, apps=["batik"], thread_counts=(1, 4), way_counts=(2, 12)
        )
        contours = ex.fig07_energy_contours(space)["batik"]
        assert min(contours.values()) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in contours.values())


class TestMultiprogramDrivers:
    def test_fig08_matrix(self, machine):
        matrix = ex.fig08_pairwise_slowdowns(machine, ["batik", "swaptions"])
        assert len(matrix) == 4
        assert matrix[("batik", "batik")] >= 1.0
        assert all(v >= 0.99 for v in matrix.values())

    def test_fig09_rows(self, study):
        rows = ex.fig09_partitioning_policies(study)
        assert len(rows) == 36
        assert set(rows[("C1", "C2")]) == {"shared", "fair", "biased"}

    def test_fig10_and_fig11(self, study):
        energy = ex.fig10_consolidation_energy(study)
        speedup = ex.fig11_weighted_speedup(study)
        assert len(energy) == len(speedup) == 21
        assert all(0.5 <= v["biased"] <= 2.5 for v in energy.values())
        assert all(0.9 <= v["biased"] <= 2.1 for v in speedup.values())

    def test_fig12_series(self, machine):
        series = ex.fig12_mcf_phases(machine, way_counts=(2, 12))
        assert "2 ways" in series and "dynamic" in series
        static = [p["mpki"] for p in series["2 ways"]]
        assert max(static) > 2 * min(static)  # phases visible
        dynamic_ways = {p["ways"] for p in series["dynamic"]}
        assert len(dynamic_ways) >= 3  # the controller moved

    def test_fig13_rows(self, study):
        rows = ex.fig13_dynamic_background_throughput(study)
        assert len(rows) == 36
        assert all("bg_throughput_dynamic" in v for v in rows.values())


class TestTraceDomains:
    @pytest.fixture(autouse=True)
    def _private_pack_cache(self, monkeypatch, tmp_path):
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

    def test_background_roster_bounds(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            ex.background_factories(1)
        with pytest.raises(ValidationError):
            ex.background_factories(5)

    def test_background_roster_shape(self):
        rows = ex.background_factories(4)
        assert [name for name, _, _, _ in rows] == ["bg", "bg2", "bg3"]
        tids = [tid for _, _, tid, _ in rows]
        assert len(set(tids)) == 3 and 0 not in tids
        for _, factory, tid, _ in rows:
            trace = factory()
            assert next(iter(trace)).tid == tid

    def test_way_utility_domain_count_controls_curves(self):
        from functools import partial

        from repro.util.units import MB
        from repro.workloads.trace import make_trace

        fg = partial(make_trace, "zipf", 6_000, 1 * MB, alpha=0.9,
                     tid=0, seed=7)
        data = ex.trace_way_utility(fg_factory=fg, domains=3)
        assert set(data["curves"]) == {"fg", "bg", "bg2"}

    @pytest.mark.parametrize("footprint_mb", [0.001, 0.5, 4.0, 6.3])
    def test_stencil_factory_maps_footprint_to_grid(self, footprint_mb):
        """``footprint_mb`` sizes the stencil grid (within one row), it
        is not passed through as the row count."""
        from repro.util.units import MB

        trace = ex.trace_kind_factory("stencil", 500,
                                      footprint_mb=footprint_mb, tid=2)()
        row_bytes = trace.cols * trace.elem_bytes
        grid_bytes = trace.rows * row_bytes
        if footprint_mb * MB >= 3 * row_bytes:
            assert abs(grid_bytes - footprint_mb * MB) < row_bytes
        else:
            assert trace.rows == 3  # the smallest legal grid
        assert next(iter(trace)).tid == 2

    def test_verify_trace_domains_checks_every_factory(self):
        from functools import partial

        from repro.workloads.trace import make_trace

        factories = [
            partial(make_trace, "zipf", 4_000, 1 << 20, alpha=0.9,
                    tid=0, seed=7),
            partial(make_trace, "stream", 4_000, 2 << 20, tid=2),
        ]
        cells = ex.verify_trace_domains(factories, way_counts=[1, 6],
                                        workers=1)
        assert len(cells) == 2
        for rows in cells:
            assert [w for w, _, _ in rows] == [1, 6]
            assert all(profiled == brute for _, profiled, brute in rows)


class TestHeadline:
    def test_headline_shape(self, study):
        numbers = ex.headline_numbers(study)
        # Direction checks from the abstract.
        assert numbers["biased"]["avg_slowdown"] < numbers["shared"]["avg_slowdown"]
        assert numbers["biased"]["worst_slowdown"] < numbers["shared"]["worst_slowdown"]
        assert numbers["shared"]["energy_improvement"] > 0
        assert numbers["biased"]["weighted_speedup"] > 1.3
        assert numbers["dynamic"]["fg_gap_to_best_static"] < 0.02
        assert numbers["dynamic"]["bg_throughput_max"] > 1.1
