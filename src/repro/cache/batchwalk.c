/* Batched replay: one call, many independent replays, parallel inside C.
 *
 * This translation unit is the whole native library: it #includes
 * multiwalk.c, so `repro_multi_walk` (one resumable co-run) is exported
 * from the same object as the two batched entry points, which share
 * one worker pool:
 *
 *   repro_batch_walk     advances the cells named in a caller-owned
 *                        active list `[count, idx0, idx1, ...]` of a
 *                        roster of independent multiwalk cells (whole
 *                        co-runs, the allocations of a measured way
 *                        sweep, or dynamic-partitioning cells between
 *                        two controller steps), each up to its own
 *                        cfg[CFG_STOP] target.  Every cell owns a
 *                        contiguous bank of the full flat state
 *                        multiwalk.c operates on (LLC tags/sharers/
 *                        valid/PLRU, all-core L1/L2 tags + recency, dom,
 *                        cfg, bi, sched), laid out cell-major with
 *                        uniform strides, so cell r's replay is
 *                        `repro_multi_walk` over `base + r * stride`
 *                        slices — bit-identical to calling the epoch
 *                        kernel once per cell, in any thread order.  All
 *                        walk state stays in the caller's banks between
 *                        calls: a static roster names every cell once,
 *                        a dynamic roster calls again per epoch after
 *                        rewriting dom way-mask words flush-free and
 *                        raising the stop targets.
 *
 *   repro_batch_profile  R UMON profiling streams (one per domain) over
 *                        shared trace columns: the bounded stack-distance
 *                        update of profile.WayProfiler, parallelized by
 *                        sharding the *set index* space.  Sets are
 *                        independent under set-associative LRU, and each
 *                        (cell, shard) work item writes its own
 *                        histogram slot, so the per-cell histogram — the
 *                        fixed-order sum over shard slots, reduced by
 *                        the Python caller — is invariant to both the
 *                        shard count and the thread schedule.
 *
 * Threading is compile-time selected: the loader builds this file with
 * `-fopenmp` first, then a pthread worker loop (-DREPRO_BATCH_PTHREADS),
 * then the serial batched loop, and keeps the strongest build that
 * compiles.  All three paths write results only into caller-owned
 * per-item output slots (each cell's own dom/sched/histogram bank),
 * never into shared accumulators, so the reduction order is
 * deterministic and the output is thread-count-invariant by
 * construction.  `repro_batch_threading` reports which path was
 * compiled in (2 = OpenMP, 1 = pthreads, 0 = serial), so the loader
 * reports the object that actually loaded, not the flags it asked for.
 */

#include "multiwalk.c"

#if defined(_OPENMP)
#include <omp.h>
#elif defined(REPRO_BATCH_PTHREADS)
#include <pthread.h>
#endif

typedef void (*batch_item_fn)(void *ctx, i64 item);

#if defined(_OPENMP)

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    i64 it;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
    for (it = 0; it < total; it++)
        fn(ctx, it);
}

enum { BATCH_THREADING = 2 };

#elif defined(REPRO_BATCH_PTHREADS)

typedef struct {
    void *ctx;
    batch_item_fn fn;
    i64 total;
    i64 next;  /* atomically claimed work-item counter */
} PoolState;

static void *
pool_worker(void *arg)
{
    PoolState *p = (PoolState *)arg;
    for (;;) {
        i64 it = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED);
        if (it >= p->total)
            return 0;
        p->fn(p->ctx, it);
    }
}

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    PoolState pool = { ctx, fn, total, 0 };
    pthread_t workers[63];
    i64 spawned = 0;
    i64 want = threads - 1;  /* the calling thread drains items too */
    if (want > 63)
        want = 63;
    for (i64 t = 0; t < want; t++) {
        if (pthread_create(&workers[spawned], 0, pool_worker, &pool) != 0)
            break;  /* fewer workers; every item still runs */
        spawned++;
    }
    pool_worker(&pool);
    for (i64 t = 0; t < spawned; t++)
        pthread_join(workers[t], 0);
}

enum { BATCH_THREADING = 1 };

#else

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    (void)threads;
    for (i64 it = 0; it < total; it++)
        fn(ctx, it);
}

enum { BATCH_THREADING = 0 };

#endif

i64
repro_batch_threading(void)
{
    return BATCH_THREADING;
}

/* bcfg[] scalar layout (must match kernel.build_native_batch_replay) */
enum {
    B_CELLS, B_THREADS, B_NMAX, B_LLC_SETS, B_W,
    B_L1_SETS, B_L2_SETS, B_NUM_CORES,
    BCFG_SLOTS,
};

typedef struct {
    const i64 *active;             /* [count, cell indices...] */
    const i64 *cfg;                /* R x CFG_SLOTS */
    i64 *dom;                      /* R x n_max x DOM_STRIDE */
    const i64 *const *lines;       /* R x n_max column pointers */
    const i64 *const *sets;
    i64 *llc_tags, *llc_sharers, *llc_valid, *llc_plru;
    const i64 *pset, *pclr, *pleft, *pright;
    const i32 *l1_touch, *l1_fill, *l2_touch, *l2_fill;
    i64 *l1_tags, *l1_valid, *l1_state;
    i64 *l2_tags, *l2_valid, *l2_plru;
    i64 *bi, *sched;
    i64 nmax, dom_stride;
    i64 llc_tw, llc_s;             /* per-cell LLC tag/set-word strides */
    i64 l1_tw, l1_s, l2_tw, l2_s;  /* per-cell inner-cache strides */
    i64 bi_s;
} WalkBatch;

/* Build the batch view over the caller-owned banks.  The cell strides
 * are pure functions of bcfg, so every call sees exactly the same
 * per-cell slices. */
static WalkBatch
make_walk_batch(
    const i64 *bcfg,
    const i64 *active,
    const i64 *cfg,
    i64 *dom,
    const i64 *const *lines, const i64 *const *sets,
    i64 *llc_tags, i64 *llc_sharers, i64 *llc_valid, i64 *llc_plru,
    const i64 *pset, const i64 *pclr, const i64 *pleft, const i64 *pright,
    const i32 *l1_touch, const i32 *l1_fill,
    const i32 *l2_touch, const i32 *l2_fill,
    i64 *l1_tags, i64 *l1_valid, i64 *l1_state,
    i64 *l2_tags, i64 *l2_valid, i64 *l2_plru,
    i64 *bi,
    i64 *sched)
{
    i64 nmax = bcfg[B_NMAX];
    i64 llc_sets = bcfg[B_LLC_SETS];
    i64 W = bcfg[B_W];
    i64 l1_sets = bcfg[B_L1_SETS];
    i64 l2_sets = bcfg[B_L2_SETS];
    i64 num_cores = bcfg[B_NUM_CORES];
    WalkBatch B = {
        active,
        cfg, dom, lines, sets,
        llc_tags, llc_sharers, llc_valid, llc_plru,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        l1_tags, l1_valid, l1_state,
        l2_tags, l2_valid, l2_plru,
        bi, sched,
        nmax, nmax * DOM_STRIDE,
        llc_sets * W, llc_sets,
        num_cores * l1_sets * 8, num_cores * l1_sets,
        num_cores * l2_sets * 8, num_cores * l2_sets,
        2 * num_cores,
    };
    return B;
}

/* Work item `it` replays active cell active[1 + it]. */
static void
walk_cell(void *arg, i64 it)
{
    const WalkBatch *B = (const WalkBatch *)arg;
    i64 r = B->active[1 + it];
    repro_multi_walk(
        B->cfg + r * CFG_SLOTS,
        B->dom + r * B->dom_stride,
        B->lines + r * B->nmax, B->sets + r * B->nmax,
        B->llc_tags + r * B->llc_tw, B->llc_sharers + r * B->llc_tw,
        B->llc_valid + r * B->llc_s, B->llc_plru + r * B->llc_s,
        B->pset, B->pclr, B->pleft, B->pright,
        B->l1_touch, B->l1_fill, B->l2_touch, B->l2_fill,
        B->l1_tags + r * B->l1_tw, B->l1_valid + r * B->l1_s,
        B->l1_state + r * B->l1_s,
        B->l2_tags + r * B->l2_tw, B->l2_valid + r * B->l2_s,
        B->l2_plru + r * B->l2_s,
        B->bi + r * B->bi_s,
        B->sched + r * SCHED_SLOTS,
        NULL, NULL, NULL, NULL, 0);  /* no UMON in batched replays */
}

i64
repro_batch_walk(
    const i64 *bcfg,
    const i64 *active,
    const i64 *cfg,
    i64 *dom,
    const i64 *const *lines, const i64 *const *sets,
    i64 *llc_tags, i64 *llc_sharers, i64 *llc_valid, i64 *llc_plru,
    const i64 *pset, const i64 *pclr, const i64 *pleft, const i64 *pright,
    const i32 *l1_touch, const i32 *l1_fill,
    const i32 *l2_touch, const i32 *l2_fill,
    i64 *l1_tags, i64 *l1_valid, i64 *l1_state,
    i64 *l2_tags, i64 *l2_valid, i64 *l2_plru,
    i64 *bi,
    i64 *sched)
{
    i64 R = bcfg[B_CELLS];
    i64 threads = bcfg[B_THREADS];
    i64 count = active[0];
    if (R < 1 || count < 1)
        return 0;
    if (threads < 1)
        threads = 1;
    if (threads > count)
        threads = count;

    WalkBatch B = make_walk_batch(
        bcfg, active, cfg, dom, lines, sets,
        llc_tags, llc_sharers, llc_valid, llc_plru,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        l1_tags, l1_valid, l1_state,
        l2_tags, l2_valid, l2_plru,
        bi, sched);
    run_items(&B, walk_cell, count, threads);

    i64 issued = 0;
    for (i64 k = 0; k < count; k++)
        issued += sched[active[1 + k] * SCHED_SLOTS + SCHED_ISSUED];
    return issued;
}

/* pcfg[] scalar layout (must match profile_np._profile_pack_native) */
enum {
    P_CELLS, P_THREADS, P_SHARDS, P_SETS, P_WAYS,
    PCFG_SLOTS,
};

typedef struct {
    const i64 *const *lines;  /* R per-domain column pointers */
    const i64 *const *sets;
    const i64 *cell_n;        /* per-cell access counts */
    i64 *stack_lines;         /* R x num_sets x W */
    i64 *stack_depth;         /* R x num_sets */
    i64 *hist;                /* (R x shards) x (W + 1) output slots */
    i64 num_sets, W, shards;
} ProfileBatch;

/* WayProfiler.observe over one (cell, set-shard) work item: bounded
 * LRU stack per set, histogram[d] on a hit at depth d, histogram[W] on
 * a miss past every allocation.  Shards partition the set index space,
 * so work items of the same cell touch disjoint stacks, and within a
 * set the accesses are replayed in program order — exactly the
 * sequential profiler's updates. */
static void
profile_item(void *arg, i64 item)
{
    const ProfileBatch *P = (const ProfileBatch *)arg;
    i64 shards = P->shards;
    i64 r = item / shards;
    i64 shard = item % shards;
    const i64 *lcol = P->lines[r];
    const i64 *scol = P->sets[r];
    i64 n = P->cell_n[r];
    i64 W = P->W;
    i64 *stk_base = P->stack_lines + r * P->num_sets * W;
    i64 *dep_base = P->stack_depth + r * P->num_sets;
    i64 *hist = P->hist + item * (W + 1);
    for (i64 i = 0; i < n; i++) {
        i64 s = scol[i];
        if (s % shards != shard)
            continue;
        i64 line = lcol[i];
        i64 *stk = stk_base + s * W;
        i64 depth = dep_base[s];
        i64 d = 0;
        while (d < depth && stk[d] != line)
            d++;
        if (d < depth) {
            hist[d]++;
            for (; d > 0; d--)
                stk[d] = stk[d - 1];
            stk[0] = line;
        } else {
            hist[W]++;
            i64 nd = depth + 1;
            if (nd > W)
                nd = W;  /* bounded stack: the deepest entry falls off */
            for (i64 j = nd - 1; j > 0; j--)
                stk[j] = stk[j - 1];
            stk[0] = line;
            dep_base[s] = nd;
        }
    }
}

i64
repro_batch_profile(
    const i64 *pcfg,
    const i64 *const *lines, const i64 *const *sets,
    const i64 *cell_n,
    i64 *stack_lines, i64 *stack_depth,
    i64 *hist)
{
    i64 R = pcfg[P_CELLS];
    i64 threads = pcfg[P_THREADS];
    i64 shards = pcfg[P_SHARDS];
    if (R < 1)
        return 0;
    if (shards < 1)
        shards = 1;
    i64 total = R * shards;
    if (threads < 1)
        threads = 1;
    if (threads > total)
        threads = total;

    ProfileBatch P = {
        lines, sets, cell_n,
        stack_lines, stack_depth, hist,
        pcfg[P_SETS], pcfg[P_WAYS], shards,
    };
    run_items(&P, profile_item, total, threads);
    return total;
}
