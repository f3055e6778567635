"""The vectorized pack profiler against the sequential WayProfiler."""

import numpy as np
import pytest

from repro.cache.profile import WayProfiler, WaySweep
from repro.cache.profile_np import profile_pack
from repro.util.errors import ConfigurationError
from repro.util.units import MB
from repro.workloads.tracepack import TracePack, compile_columns, get_pack
from repro.workloads.trace import StreamingTrace, ZipfTrace


@pytest.fixture(autouse=True)
def _private_cache(monkeypatch, tmp_path):
    from repro.workloads import tracepack

    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


def _zipf(tid=0):
    return ZipfTrace(3_000, 1 * MB, alpha=0.9, tid=tid, seed=5)


def _sequential_curves(pack, num_sets, num_ways, indexing, num_domains):
    """Ground truth: the per-access WayProfiler over the same stream."""
    profiler = WayProfiler(num_sets, num_ways, indexing, num_domains)
    lines = pack.lines_list()
    tids = pack.tid.tolist()
    for line, tid in zip(lines, tids):
        profiler.observe(line, tid >> 1 if num_domains > 1 else 0)
    return {d: profiler.curve(d) for d in range(num_domains)}


class TestProfilePack:
    @pytest.mark.parametrize("indexing", ["hash", "mod"])
    def test_matches_sequential_profiler_exactly(self, indexing):
        pack = get_pack(_zipf())
        grouped = profile_pack(pack, 512, 12, indexing)
        sequential = _sequential_curves(pack, 512, 12, indexing, 1)
        assert grouped[0].histogram == sequential[0].histogram
        assert grouped[0].accesses == sequential[0].accesses

    def test_multi_domain_histograms_match(self):
        fg = compile_columns(_zipf(tid=0))
        bg = compile_columns(StreamingTrace(2_000, 2 * MB, tid=4))
        columns = {
            name: np.concatenate([fg[name], bg[name]])
            for name in ("address", "pc", "tid", "rw")
        }
        pack = TracePack(columns, "mixed")
        grouped = profile_pack(pack, 256, 12, "hash", num_domains=3)
        sequential = _sequential_curves(pack, 256, 12, "hash", 3)
        for domain in range(3):
            assert grouped[domain].histogram == sequential[domain].histogram
            assert grouped[domain].accesses == sequential[domain].accesses

    def test_explicit_domain_column_overrides_tid(self):
        pack = get_pack(_zipf())
        domains = np.arange(len(pack)) % 2
        grouped = profile_pack(pack, 256, 8, "hash", 2, domains=domains)
        profiler = WayProfiler(256, 8, "hash", 2)
        for line, domain in zip(pack.lines_list(), domains.tolist()):
            profiler.observe(line, domain)
        for d in range(2):
            assert grouped[d].histogram == profiler.curve(d).histogram

    def test_empty_pack(self):
        trace = ZipfTrace(0, 1 * MB)
        pack = TracePack(compile_columns(trace), "empty")
        curve = profile_pack(pack, 64, 4, "mod")[0]
        assert curve.accesses == 0
        assert sum(curve.histogram) == 0

    def test_rejects_bad_configuration(self):
        pack = get_pack(_zipf())
        with pytest.raises(ConfigurationError):
            profile_pack(pack, 64, 0, "hash")
        with pytest.raises(ConfigurationError):
            profile_pack(pack, 64, 4, "hash", num_domains=0)


class TestSweepPack:
    def test_equals_run_single(self):
        """WaySweep.run_pack and run_single agree hit for hit."""
        sweep = WaySweep()
        from_generator = sweep.run_single(_zipf)
        from_pack = sweep.run_pack(get_pack(_zipf()))[0]
        for ways in range(1, 13):
            assert from_pack.hits(ways) == from_generator.hits(ways)
        assert from_pack.accesses == from_generator.accesses
