"""The command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestListApps:
    def test_lists_whole_workload(self):
        code, text = run_cli("list-apps")
        assert code == 0
        assert "429.mcf" in text
        assert text.count("\n") >= 46

    def test_suite_filter(self):
        code, text = run_cli("list-apps", "--suite", "micro")
        assert code == 0
        assert "ccbench" in text
        assert "429.mcf" not in text


class TestRunSolo:
    def test_prints_measurements(self):
        code, text = run_cli("run-solo", "fop", "--threads", "4")
        assert code == 0
        assert "runtime (s)" in text
        assert "MPKI" in text

    def test_unknown_app_is_an_error(self):
        code, _ = run_cli("run-solo", "doom")
        assert code == 1


class TestCharacterize:
    def test_classifies(self):
        code, text = run_cli("characterize", "swaptions")
        assert code == 0
        assert "low" in text


class TestDescribe:
    def test_shows_model(self):
        code, text = run_cli("describe", "429.mcf")
        assert code == 0
        assert "'llc_apki': 60.0" in text
        assert "model consistency: OK" in text

    def test_multiple_apps(self):
        code, text = run_cli("describe", "batik", "fop")
        assert code == 0
        assert "'batik'" in text and "'fop'" in text


class TestConsolidate:
    def test_compares_policies(self):
        code, text = run_cli("consolidate", "fop", "batik")
        assert code == 0
        for policy in ("shared", "fair", "biased"):
            assert policy in text

    def test_ucp_flag_adds_baseline(self):
        code, text = run_cli("consolidate", "fop", "batik", "--ucp")
        assert code == 0
        assert "ucp" in text

    def test_json_writes_a_run_set(self, tmp_path):
        from repro.analysis.store import load_runset

        path = tmp_path / "runs.json"
        code, text = run_cli(
            "consolidate", "fop", "batik", "--json", str(path)
        )
        assert code == 0
        assert "run set: 3 records" in text
        runset = load_runset(path)
        assert runset.backend == "analytical"
        assert sorted(r.policy for r in runset.records) == [
            "biased", "fair", "shared",
        ]


class TestDynamic:
    def test_single_background(self):
        code, text = run_cli("dynamic", "429.mcf", "fop")
        assert code == 0
        assert "reallocations" in text

    def test_multiple_backgrounds(self):
        code, text = run_cli("dynamic", "429.mcf", "batik", "dedup")
        assert code == 0
        assert "reallocations" in text

    def test_actions_truncates_the_trail(self):
        code, text = run_cli("dynamic", "canneal", "streamcluster",
                             "--actions", "2")
        assert code == 0
        assert "--actions 0 shows all" in text

    def test_actions_zero_shows_all(self):
        code, text = run_cli("dynamic", "canneal", "streamcluster",
                             "--actions", "0")
        assert code == 0
        assert "--actions 0 shows all" not in text


@pytest.fixture()
def _private_pack_cache(monkeypatch, tmp_path):
    from repro.workloads import tracepack

    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


class TestConsolidateTrace:
    def test_runs_the_policy_suite_on_traces(self, _private_pack_cache,
                                             tmp_path):
        from repro.analysis.store import load_runset

        path = tmp_path / "runs.json"
        code, text = run_cli(
            "consolidate", "zipf", "stream", "--backend", "trace",
            "--accesses", "12000", "--footprint-mb", "1",
            "--check", "--json", str(path),
        )
        assert code == 0
        assert "trace backend" in text
        assert "check: policy layer agrees with direct way-mask replay" in text
        runset = load_runset(path)
        assert runset.backend == "trace"
        assert sorted(r.policy for r in runset.records) == [
            "biased", "fair", "shared",
        ]
        for record in runset.records:
            assert record.units["fg_cost"] == "cycles/access"

    def test_application_names_rejected_on_the_trace_backend(self):
        code, _ = run_cli("consolidate", "fop", "stream",
                          "--backend", "trace")
        assert code == 1


class TestCompareRunsets:
    def _write(self, path, fg_ways=9, fg_cost=1.25):
        from repro.analysis.store import RunRecord, RunSet, save_runset

        record = RunRecord(
            policy="biased", backend="analytical", fg="fop", bg="batik",
            fg_ways=fg_ways, bg_ways=12 - fg_ways,
            metrics={"fg_cost": fg_cost, "fg_ways": float(fg_ways),
                     "bg_ways": float(12 - fg_ways)},
            units={"fg_cost": "s"},
        )
        save_runset(RunSet(records=[record], backend="analytical"), path)
        return path

    def test_identical_run_sets_agree(self, tmp_path):
        path = self._write(tmp_path / "runs.json")
        code, text = run_cli("compare", str(path), str(path))
        assert code == 0
        assert "comparable metrics agree" in text

    def test_moved_metrics_reported(self, tmp_path):
        before = self._write(tmp_path / "before.json")
        after = self._write(tmp_path / "after.json", fg_ways=6, fg_cost=2.5)
        code, text = run_cli("compare", str(before), str(after))
        assert code == 0
        assert "moved beyond tolerance" in text
        assert "biased:fop+batik" in text


class TestTraceDynamic:
    def test_prints_timeline_and_stats(self, _private_pack_cache):
        code, text = run_cli(
            "trace-dynamic", "--accesses", "6000",
            "--epoch-accesses", "3000", "--total-accesses", "36000",
        )
        assert code == 0
        assert "Trace-driven dynamic partitioning" in text
        assert "reallocations" in text
        assert "fg:" in text and "bg:" in text

    def test_engine_stat_reports_native_kernels(self, _private_pack_cache):
        code, text = run_cli(
            "trace-dynamic", "--accesses", "4000",
            "--epoch-accesses", "2000", "--total-accesses", "8000",
            "--engine-stat",
        )
        assert code == 0
        assert "native-kernel/batchwalk:" in text

    def test_json_writes_a_dynamic_run_record(self, _private_pack_cache,
                                              tmp_path):
        from repro.analysis.store import load_runset

        path = tmp_path / "dyn.json"
        code, text = run_cli(
            "trace-dynamic", "--accesses", "4000",
            "--epoch-accesses", "2000", "--total-accesses", "8000",
            "--json", str(path),
        )
        assert code == 0
        assert "run set: 1 records" in text
        runset = load_runset(path)
        (record,) = runset.records
        assert record.policy == "dynamic"
        assert record.backend == "trace"
        assert "dynamic_actions" in record.provenance


class TestTraceSweep:
    def test_domains_needs_co_run(self):
        code, _ = run_cli("trace-sweep", "--domains", "3")
        assert code == 1

    def test_three_domain_co_run(self, _private_pack_cache):
        code, text = run_cli(
            "trace-sweep", "--trace", "zipf", "--accesses", "6000",
            "--footprint-mb", "1", "--co-run", "--domains", "3",
        )
        assert code == 0
        assert "bg2" in text
        assert "bg3" not in text

    def test_json_writes_per_allocation_records(self, _private_pack_cache,
                                                tmp_path):
        from repro.analysis.store import load_runset

        path = tmp_path / "sweep.json"
        code, text = run_cli(
            "trace-sweep", "--trace", "zipf", "--accesses", "6000",
            "--footprint-mb", "1", "--json", str(path),
        )
        assert code == 0
        assert "run set: 12 records" in text
        runset = load_runset(path)
        assert [r.policy for r in runset.records] == [
            f"static-{ways:02d}" for ways in range(1, 13)
        ]
        assert all(r.units["fg_cost"] == "misses" for r in runset.records)


class TestFigure:
    def test_simple_figure(self):
        code, text = run_cli("figure", "3")
        assert code == 0
        assert "462.libquantum" in text

    def test_unknown_figure_is_an_error(self):
        code, _ = run_cli("figure", "99")
        assert code == 1

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli()
