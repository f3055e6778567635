"""Seeded campaign manifests for the three benchmark workloads.

Each workload is a function of the seed alone: the same seed yields the
same manifest document, byte for byte. The measured program receives only
the generated manifest, never the seed.

Every cell starts with empty modelled caches (the campaign engine builds a
fresh hierarchy per cell), and none of these workloads has a hardware
reference: the only correctness reference is the repo's own per-cell path
(``verify_campaign``), so no error figure is reported.
"""

import random

# Trace kinds the trace workloads never draw, with the reason. The stencil
# factory passes the footprint in as the grid's row count (4,194,304 x 256
# elements), so materialising its pack needs a 15.9 GiB allocation and any
# campaign with a stencil pair fails. Re-adding stencil is its own
# benchmark change, after the factory is fixed.
EXCLUDED_TRACE_KINDS = {
    "stencil": (
        "trace_kind_factory('stencil', ...) passes the footprint as rows "
        "(4,194,304 x 256), so its pack needs a 15.9 GiB allocation"
    ),
}

# Seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 7919

WORKLOADS = ("analytical-consolidation", "trace-static", "trace-adaptive")

# Cells re-verified per run through the per-cell reference path: every
# `stride`-th cell of the expanded campaign.
VERIFY_STRIDE = {
    "analytical-consolidation": 1,
    "trace-static": 5,
    "trace-adaptive": 2,
}

def trace_kind_pool():
    from repro.workloads.trace import trace_kinds

    return [k for k in trace_kinds() if k not in EXCLUDED_TRACE_KINDS]


def _rng(workload, seed):
    return random.Random(f"{workload}:{int(seed)}")


def _cycle_pairs(rng, names, steps=(1,)):
    """Seeded pairs in which every name is foreground and background
    once per step: a shuffled ring, each name paired with the ones
    ``steps`` places after it. Each seed draws different pairs over the
    same multiset of names, so the work per seed stays comparable."""
    order = list(names)
    rng.shuffle(order)
    n = len(order)
    return [[order[i], order[(i + step) % n]]
            for step in steps for i in range(n)]


def _analytical(rng):
    """All 45 registry apps, each once as foreground and once as
    background, so every seed spans the Table 2 LLC-utility and
    bandwidth classes in the same proportions."""
    from repro.workloads.registry import all_application_names

    return {
        "name": "analytical-consolidation",
        "backends": ["analytical"],
        "policies": ["shared", "fair", "biased", "dynamic"],
        "pairs": _cycle_pairs(rng, all_application_names()),
    }


def _geometry(rng, accesses, footprint_mb, bg_footprint_mb):
    return {
        "accesses": accesses,
        "footprint_mb": footprint_mb,
        "bg_footprint_mb": bg_footprint_mb,
        "alpha": rng.choice([0.85, 0.9, 0.95]),
        "seed": rng.randrange(1, 1000),
    }


def _static(rng):
    """Fixed splits over footprints below and above the 6 MB LLC."""
    kinds = trace_kind_pool()
    return {
        "name": "trace-static",
        "backends": ["trace"],
        "policies": ["shared", "fair", "static-3", "static-6", "static-9"],
        "pairs": _cycle_pairs(rng, kinds, steps=(1, 2)),
        "geometries": [
            _geometry(rng, 100_000, 2.0, 4.0),
            _geometry(rng, 100_000, 10.0, 16.0),
        ],
    }


def _adaptive(rng):
    """Measured sweeps, small-epoch controllers, 3-4 tenant groups.

    The 3-tenant roster always holds the first three kinds of the pool,
    in seeded order: which kind sits out changes the cost of a group
    cell more than the order does.
    """
    kinds = trace_kind_pool()
    roster4 = rng.sample(kinds, len(kinds))
    roster3 = rng.sample(kinds[:3], 3)
    joiner, leaver = roster3[1], roster3[2]
    return {
        "name": "trace-adaptive",
        "backends": ["trace"],
        "policies": ["biased", "dynamic", "cluster"],
        "pairs": _cycle_pairs(rng, kinds),
        "tenants": [roster3, roster4],
        "geometries": [_geometry(rng, 40_000, 3.0, 8.0)],
        "controllers": [{"epoch_accesses": 2_000, "total_accesses": 40_000}],
        "churn": [[
            {"tenant": joiner, "epoch": 1, "action": "join"},
            {"tenant": leaver, "epoch": 4, "action": "leave"},
        ]],
    }


_GENERATORS = {
    "analytical-consolidation": _analytical,
    "trace-static": _static,
    "trace-adaptive": _adaptive,
}


def manifest_for(workload, seed):
    """The manifest document (plain JSON data) of one workload and seed."""
    return _GENERATORS[workload](_rng(workload, seed))


def warmup_manifest(manifest):
    """A minimal campaign with the same shard kinds as ``manifest``.

    One workload per axis and tiny traces: running it (and verifying it)
    builds every lazily built structure the timed campaign's shard kinds
    use, without compiling any pack the timed campaign needs.
    """
    warm = {
        "name": f"{manifest['name']}-warmup",
        "backends": manifest["backends"],
        "policies": manifest["policies"],
        "pairs": manifest["pairs"][:1],
    }
    if manifest.get("tenants"):
        warm["tenants"] = manifest["tenants"]
        warm["churn"] = manifest.get("churn", [])
    if manifest.get("geometries"):
        geometry = dict(manifest["geometries"][0])
        geometry["accesses"] = 4_000
        geometry["seed"] = geometry["seed"] + 1_000
        warm["geometries"] = [geometry]
    if manifest.get("controllers"):
        warm["controllers"] = [{"epoch_accesses": 1_000,
                                "total_accesses": 4_000}]
    return warm
