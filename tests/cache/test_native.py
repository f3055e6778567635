"""The native-library loader: best-effort, but never silent.

Every unavailability path must leave a human-readable reason behind so
``kernel_status`` (and through it ``format_engine_stat`` / ``repro
trace-sweep --engine-stat``) can answer "why is native off?".
"""

import pytest

from repro.cache import native


@pytest.fixture(autouse=True)
def _fresh_loader(monkeypatch, tmp_path):
    """Private (cold) cache dir, the gate open, and a clean memo around
    every test."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    native.reset()
    yield
    native.reset()


def _require_compiler():
    if native._compiler() is None:
        pytest.skip("no C compiler on this host")


def _stub_compile(monkeypatch, fail=lambda flags: None):
    """Replace the compile step: ``fail(flags)`` returns a synthetic
    diagnostic, or ``None`` to run the real compile. Returns the list
    of ``(flags, target)`` compile attempts."""
    real = native._compile
    calls = []

    def compile_step(cc, flags, target, reason):
        calls.append((flags, target))
        failure = fail(flags)
        if failure is not None:
            return failure
        return real(cc, flags, target, reason)

    monkeypatch.setattr(native, "_compile", compile_step)
    return calls


def _forbid_subprocesses(monkeypatch):
    """Record (and refuse) every subprocess the loader tries to start."""
    started = []

    def run(*args, **kwargs):
        started.append(args[0] if args else kwargs.get("args"))
        raise AssertionError("the loader started a subprocess")

    monkeypatch.setattr(native.subprocess, "run", run)
    return started


class TestKernelStatus:
    def test_reports_every_kernel(self):
        status = native.kernel_status()
        assert set(status) == {"batchwalk"}

    def test_ok_when_compiled(self):
        if native.batch_walk_fn() is None:
            pytest.skip("no C compiler on this host")
        # Every entry point resolves from the one library.
        assert native.multi_walk_fn() is not None
        assert native.batch_profile_fn() is not None
        status = native.kernel_status()["batchwalk"]
        # The ok carries the threading mode, e.g. "ok [openmp]" or
        # "ok [serial; openmp build failed: ...]".
        assert status.startswith("ok [")
        mode = status[len("ok ["):].split("]")[0].split(";")[0]
        assert mode in ("openmp", "pthreads", "serial")

    def test_disabled_reason_names_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        assert native.multi_walk_fn() is None
        for reason in native.kernel_status().values():
            assert "REPRO_NATIVE" in reason and "'0'" in reason

    def test_missing_compiler_reason(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        status = native.kernel_status()
        assert status["batchwalk"] == (
            "no C compiler found ($CC, cc, gcc, clang)"
        )

    def test_compile_failure_reason_recorded_once(self, monkeypatch):
        calls = []
        real = native._build_library

        def broken():
            calls.append(1)
            return None, "cc failed: synthetic diagnostic"

        monkeypatch.setattr(native, "_build_library", broken)
        assert native.multi_walk_fn() is None
        assert native.batch_walk_fn() is None  # memoized, not retried
        assert calls == [1]
        assert (
            native.kernel_status()["batchwalk"]
            == "cc failed: synthetic diagnostic"
        )
        monkeypatch.setattr(native, "_build_library", real)
        # Still the memoized failure until an explicit reset.
        assert native.multi_walk_fn() is None
        native.reset()
        if native._compiler() is not None:
            assert native.multi_walk_fn() is not None

    def test_reason_lands_in_engine_stat(self, monkeypatch):
        from repro.perf.stat import format_engine_stat

        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        text = format_engine_stat()
        assert "native-kernel/batchwalk:" in text
        assert text.count("native-kernel/") == 1
        assert "native-batch/threading:" in text
        assert text.count("/threading:") == 1
        assert "REPRO_NATIVE" in text


class TestThreadingProbe:
    """The OpenMP -> pthreads -> serial chain, run on the real source:
    the strongest mode that compiles is kept, and the mode is read back
    from the loaded object."""

    def test_no_compiler_means_serial(self, monkeypatch):
        monkeypatch.setattr(native, "_compiler", lambda: None)
        assert native.batch_walk_fn() is None
        assert native.threading_status() == {
            "mode": "serial",
            "reason": "no C compiler found ($CC, cc, gcc, clang)",
        }

    def test_openmp_wins_cleanly(self, monkeypatch):
        _require_compiler()
        calls = _stub_compile(monkeypatch)
        status = native.threading_status()
        if status["mode"] != "openmp":
            pytest.skip(f"no OpenMP build on this host: {status['reason']}")
        assert status == {"mode": "openmp", "reason": None}
        # A cold start compiles the library exactly once.
        assert [flags for flags, _ in calls] == [("-fopenmp",)]
        assert native.kernel_status() == {"batchwalk": "ok [openmp]"}

    def test_openmp_failure_falls_back_to_pthreads(self, monkeypatch):
        _require_compiler()
        _stub_compile(
            monkeypatch,
            lambda flags: (
                "omp.h: No such file or directory"
                if "-fopenmp" in flags else None
            ),
        )
        reason = "openmp build failed: omp.h: No such file or directory"
        assert native.threading_status() == {
            "mode": "pthreads", "reason": reason,
        }
        # The reason is stored beside the object: a warm load in a
        # fresh memo still says why, without compiling anything.
        native.reset()
        started = _forbid_subprocesses(monkeypatch)
        assert native.threading_status() == {
            "mode": "pthreads", "reason": reason,
        }
        assert native.kernel_status() == {
            "batchwalk": f"ok [pthreads; {reason}]"
        }
        assert started == []

    def test_both_failures_fall_back_to_serial(self, monkeypatch):
        _require_compiler()
        _stub_compile(
            monkeypatch,
            lambda flags: f"cannot use {flags[0]}" if flags else None,
        )
        status = native.threading_status()
        assert status["mode"] == "serial"
        assert "openmp build failed: cannot use -fopenmp" in status["reason"]
        assert (
            "pthreads build failed: cannot use -pthread" in status["reason"]
        )
        native.reset()
        _forbid_subprocesses(monkeypatch)
        assert native.threading_status() == status

    def test_probe_memoized_per_process(self, monkeypatch):
        """The chain runs once per process, not once per accessor."""
        _require_compiler()
        calls = _stub_compile(monkeypatch)
        first = native.kernel_status()
        attempts = len(calls)
        assert attempts >= 1
        native.multi_walk_fn()
        native.batch_profile_fn()
        native.threading_status()
        assert native.kernel_status() == first
        assert len(calls) == attempts

    def test_warm_load_starts_no_compiler(self, monkeypatch):
        """Once the library is cached, a fresh process (a reset memo)
        loads it without starting any subprocess."""
        if native.batch_walk_fn() is None:
            pytest.skip("no C compiler on this host")
        status = native.kernel_status()
        native.reset()
        started = _forbid_subprocesses(monkeypatch)
        assert native.batch_walk_fn() is not None
        assert native.kernel_status() == status
        assert started == []

    def test_status_disabled_names_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        status = native.threading_status()
        assert status["mode"] == "serial"
        assert "REPRO_NATIVE" in status["reason"]
        assert "'0'" in status["reason"]

    def test_status_matches_the_compiled_object(self):
        if native.batch_walk_fn() is None:
            pytest.skip("batch kernel unavailable on this host")
        status = native.threading_status()
        fn = native._symbol("repro_batch_threading")
        compiled = {2: "openmp", 1: "pthreads", 0: "serial"}[int(fn())]
        assert status["mode"] == compiled

    def test_flags_land_in_the_cache_digest(self, monkeypatch):
        """An OpenMP build and a serial build must not share a .so."""
        monkeypatch.setattr(native, "_compiler", lambda: "cc")
        calls = _stub_compile(monkeypatch, lambda flags: "synthetic")
        assert native.batch_walk_fn() is None
        assert [flags for flags, _ in calls] == [
            flags for _, flags in native._MODES
        ]
        targets = [target for _, target in calls]
        assert len(set(targets)) == len(native._MODES)
        assert native.kernel_status()["batchwalk"] == (
            "openmp build failed: synthetic; "
            "pthreads build failed: synthetic; "
            "serial build failed: synthetic"
        )
