/* The flat-array cycle kernel behind repro.cpu.pipeline.simulate.
 *
 * The reference repro/cpu/pipeline.py Pipeline rewritten as one
 * event-driven loop over nothing but integers -- flat per-instruction
 * columns, packed cache sets, scalar bus/TLB/MSHR state.  The driver
 * (repro/cpu/kerneldriver.py) marshals the trace, machine config and
 * p-thread program into the C_* config block and flat columns, and
 * rebuilds SimStats from the O_* counter block plus the ordered
 * missed/misspc uid streams and (on deadlock) the fetch-state snapshot
 * this kernel returns.  Built opportunistically by
 * repro/cpu/nativebuild.py and loaded through ctypes; every constant
 * below must stay value-identical to kerneldriver's (KERNEL_ABI is
 * checked at load time).  tests/cpu/test_golden_sim_backends.py gates bit-identical
 * SimStats against the reference.
 *
 * Where the loop departs from the reference's per-cycle stage closures.
 * Each departure is unobservable only while the condition given for it
 * keeps holding:
 *  - main-thread instructions are identified by their sequence number
 *    (uid == seq), so completion times and pending counts live in flat
 *    per-seq arrays; p-instructions take uids from n_main up;
 *  - ready uids are appended unsorted and sorted once per issue cycle:
 *    the reference pops a min-heap, yielding the same ascending prefix
 *    and the same remainder.  Wakeup waiter order is free, since each
 *    wakeup independently decrements a pending counter;
 *  - completions landing at exactly now + 1 bypass the event heap (the
 *    events_t1 side list): anything issued at now makes the cycle
 *    active, so they are always drained at the next iteration, before
 *    any jump logic can observe the heap;
 *  - the frontend pipe holds only dispatch-ready times: fetch appends
 *    sequence numbers in strictly increasing order and nothing flushes
 *    the pipe (a redirect only stalls fetch; the trace is the correct
 *    path), so the head entry's sequence number is always fp_head;
 *  - NOPs complete at dispatch and can never have waiters: dispatch is
 *    in-order, so any reader dispatches later and sees the completion
 *    already set, and the reference's next-cycle event fires into an
 *    empty wakeup list;
 *  - when no stage can act and no load is MSHR-deferred, the loop jumps
 *    to the earliest *future* event.  The reference keeps stale
 *    candidates (a frontend-pipe head whose ready time has passed but
 *    which is blocked on ROB/RS/registers) that pin its jump to
 *    now + 1; a structurally blocked stage can only unblock through
 *    commit or issue, and with `ready` empty both first need a
 *    completion event, so the skipped cycles are attributed
 *    identically.  With a deferred load the loop steps like the
 *    reference: a store-allocated MSHR expires at a fill time with no
 *    completion event, so a per-cycle retry can succeed between events;
 *  - MSHR expiry installs fills in insertion order (the entry arrays
 *    below are kept insertion-ordered, like the reference's dict);
 *  - l2_misses_by_pc insertion order is preserved by returning demand
 *    miss uids as an ordered stream the driver replays.
 *
 * The kernel reads only the sealed trace columns, the C_* config block
 * and the p-thread spawn columns; it derives everything else itself,
 * each from the reference's own definition:
 *  - the hybrid direction predictor (repro/branch/predictors.py) is
 *    called at fetch, where the reference calls predict_and_update,
 *    before a branch hint overrides its answer: each main branch is
 *    fetched exactly once, in sequence order, so its state evolves as
 *    in the reference;
 *  - the BTB (repro/branch/btb.py) is consulted for every correctly
 *    predicted taken branch, in fetch order;
 *  - the functional warm-up (Pipeline._warm_caches) runs on the
 *    kernel's own caches before the timed loop: each fetch line once,
 *    in first-seen order, then each data address; no TLB is touched;
 *  - fetch line ids are (pc * inst_bytes) >> line_shift, computed where
 *    fetch compares them.
 *
 * Data-structure substitutions vs the reference's Python containers,
 * each order-preserving:
 *  - wakeup dict-of-lists  -> per-producer FIFO linked lists in a pool;
 *  - completion heap       -> binary heap on (t, uid) lexicographic;
 *  - MSHR insertion dict   -> insertion-ordered parallel arrays;
 *  - prefetched/partial sets -> open-addressing int64 hash sets;
 *  - predictor tables      -> one byte per 2-bit counter;
 *  - BTB OrderedDict       -> chained hash + doubly-linked LRU list;
 *  - rob/frontend/pth deques -> fixed-capacity rings.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KERNEL_ABI 4
#define NOT_DONE (-1LL)
#define NO_FILL (1LL << 62)

enum { K_ALU, K_MUL, K_LOAD, K_STORE, K_BRANCH, K_NOP };
enum { CTRL_NONE, CTRL_BRANCH, CTRL_JUMP };
enum { STATUS_OK, STATUS_DEADLOCK, STATUS_SAFETY };

enum {
    F_RETRY = 1, F_L1_HIT = 2, F_L2_ACC = 4, F_MEM_ACC = 8,
    F_MERGED = 16, F_MERGED_PF = 32, F_PF_HIT = 64,
};

/* cfg block indices -- order matches kerneldriver's C_* exactly. */
enum {
    C_N_MAIN, C_WIDTH, C_COMMIT_WIDTH, C_FRONTEND_DEPTH, C_RS_CAPACITY,
    C_ROB_CAPACITY, C_PHYS_BUDGET, C_PIPE_CAPACITY, C_PTH_BLOCK_INTERVAL,
    C_INT_ALUS, C_LOAD_PORTS, C_STORE_PORTS, C_MUL_LATENCY,
    C_ISSUE_POOL_LIMIT, C_MAIN_RS_CAP, C_FREE_CONTEXTS, C_SAFETY_LIMIT,
    C_INST_BYTES, C_LINE_SHIFT, C_L2_LINE_SHIFT, C_HAS_SPAWNS,
    C_HAS_HINTS, C_BPRED_ENTRIES, C_BTB_ENTRIES, C_PTHREAD_FILL_L1,
    C_NO_PRODUCER, C_DO_WARM,
    C_IC_OFFSET_BITS, C_IC_INDEX_BITS, C_IC_INDEX_MASK, C_IC_ASSOC,
    C_IC_NSETS, C_IC_HIT_LAT,
    C_DC_OFFSET_BITS, C_DC_INDEX_BITS, C_DC_INDEX_MASK, C_DC_ASSOC,
    C_DC_NSETS, C_DC_HIT_LAT,
    C_L2_OFFSET_BITS, C_L2_INDEX_BITS, C_L2_INDEX_MASK, C_L2_ASSOC,
    C_L2_NSETS, C_L2_HIT_LAT,
    C_ITLB_ENTRIES, C_DTLB_ENTRIES, C_PAGE_SHIFT, C_TLB_MISS_LAT,
    C_MSHR_ENTRIES, C_MEMORY_LATENCY,
    C_L2BUS_CYC_DLINE, C_L2BUS_CYC_ILINE, C_MEMBUS_CYC_L2LINE,
    C_N_SPAWNS, C_N_PINSTS, C_DEP_LEN, C_LIVE_LEN,
    C_LEN,
};

/* out block indices -- order matches kerneldriver's O_* exactly. */
enum {
    O_CYCLES, O_COMMITTED, O_BRANCHES, O_MISPREDICTIONS, O_BTB_MISSES,
    O_DEMAND_L2, O_PTHREAD_L2, O_COVERED_FULL, O_COVERED_PARTIAL,
    O_USEFUL, O_HINTS_USED, O_PINSTS_FETCHED, O_PINSTS_EXECUTED,
    O_SPAWNS_ATTEMPTED, O_SPAWNS_STARTED, O_SPAWNS_DROPPED,
    O_AC_COMMITTED, O_AC_DISP_MAIN, O_AC_DISP_PTH, O_AC_FETCH_MAIN,
    O_AC_FETCH_PTH, O_AC_BPRED, O_AC_DMEM_MAIN, O_AC_DMEM_PTH,
    O_AC_L2_MAIN, O_AC_L2_PTH, O_AC_ALU_MAIN, O_AC_ALU_PTH,
    O_BD_MEM, O_BD_L2, O_BD_EXEC, O_BD_COMMIT, O_BD_FETCH,
    O_SL_RETIRE, O_SL_FETCH, O_SL_BRANCH, O_SL_LOAD, O_SL_ROB,
    O_SL_RS, O_SL_PTH, O_SL_EXEC,
    O_STATUS, O_DEAD_ROB_LEN, O_DEAD_HEAD_SEQ, O_DEAD_HEAD_DONE,
    O_N_MISSED, O_N_MISSPC, O_N_FA,
    O_LEN,
};

/* int64 input-pointer table -- order matches kerneldriver._run_native. */
enum {
    I_PC, I_ADDR, I_SRC1, I_SRC2, I_NEXT_PC,
    I_SP_TRIGGER, I_SP_STATIC, I_SP_INST_LO, I_SP_INST_HI,
    I_PI_ADDR, I_PI_HINT_SEQ, I_PI_DEP_LO, I_PI_DEP_HI, I_DEP_FLAT,
    I_PI_LIVE_LO, I_PI_LIVE_HI, I_LIVE_FLAT,
    I_LEN,
};

/* uint8 input-pointer table. */
enum {
    B_KIND, B_CTRL, B_WRITES, B_TAKEN, B_PI_KIND, B_PI_HINT_TAKEN,
    B_LEN,
};

/* ---------------------------------------------------------------- */
/* Caches: flat ways[set*assoc + i] packed tag<<1|dirty, LRU-first.  */

typedef struct {
    int64_t *ways;
    int64_t *occ;
    int64_t ob, ib, im, assoc;
} Cache;

static int cache_access(Cache *c, int64_t addr, int64_t wbit) {
    int64_t line = addr >> c->ob;
    int64_t tag2 = (line >> c->ib) << 1;
    int64_t *w = c->ways + (line & c->im) * c->assoc;
    int64_t n = c->occ[line & c->im];
    for (int64_t i = 0; i < n; i++) {
        int64_t e = w[i];
        if ((e & ~1LL) == tag2) {
            memmove(w + i, w + i + 1, (size_t)(n - 1 - i) * sizeof(int64_t));
            w[n - 1] = e | wbit;
            return 1;
        }
    }
    return 0;
}

static int64_t cache_fill(Cache *c, int64_t addr, int64_t wbit) {
    int64_t line = addr >> c->ob;
    int64_t index = line & c->im;
    int64_t tag2 = (line >> c->ib) << 1;
    int64_t *w = c->ways + index * c->assoc;
    int64_t n = c->occ[index];
    for (int64_t i = 0; i < n; i++) {
        int64_t e = w[i];
        if ((e & ~1LL) == tag2) { /* already present (racing fills) */
            memmove(w + i, w + i + 1, (size_t)(n - 1 - i) * sizeof(int64_t));
            w[n - 1] = e | wbit;
            return -1;
        }
    }
    int64_t victim_line = -1;
    if (n >= c->assoc) {
        int64_t v = w[0];
        memmove(w, w + 1, (size_t)(n - 1) * sizeof(int64_t));
        n -= 1;
        if (v & 1)
            victim_line = (((v >> 1) << c->ib) | index) << c->ob;
    }
    w[n] = tag2 | wbit;
    c->occ[index] = n + 1;
    return victim_line;
}

/* MemoryHierarchy.warm_inst / warm_data: a functional touch, no timing. */
static void cache_warm(Cache *l1, Cache *l2, int64_t addr) {
    if (!cache_access(l1, addr, 0)) {
        if (!cache_access(l2, addr, 0)) cache_fill(l2, addr, 0);
        cache_fill(l1, addr, 0);
    }
}

/* ---------------------------------------------------------------- */
/* TLBs: LRU-first page array.                                      */

typedef struct {
    int64_t *pages;
    int64_t len, entries;
} Tlb;

static int64_t tlb_access(Tlb *t, int64_t page, int64_t miss_lat) {
    int64_t n = t->len;
    for (int64_t i = 0; i < n; i++) {
        if (t->pages[i] == page) {
            memmove(t->pages + i, t->pages + i + 1,
                    (size_t)(n - 1 - i) * sizeof(int64_t));
            t->pages[n - 1] = page;
            return 0;
        }
    }
    if (n >= t->entries) {
        memmove(t->pages, t->pages + 1, (size_t)(n - 1) * sizeof(int64_t));
        n -= 1;
    }
    t->pages[n] = page;
    t->len = n + 1;
    return miss_lat;
}

/* ---------------------------------------------------------------- */
/* Open-addressing int64 hash set (linear probe, tombstones).       */

#define HS_EMPTY INT64_MIN
#define HS_TOMB (INT64_MIN + 1)

typedef struct {
    int64_t *keys;
    uint64_t mask;
} HSet;

static uint64_t hs_hash(int64_t x) {
    uint64_t h = (uint64_t)x * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 32);
}

static int hs_contains(HSet *s, int64_t key) {
    uint64_t i = hs_hash(key) & s->mask;
    for (;;) {
        int64_t k = s->keys[i];
        if (k == key) return 1;
        if (k == HS_EMPTY) return 0;
        i = (i + 1) & s->mask;
    }
}

static void hs_add(HSet *s, int64_t key) {
    uint64_t i = hs_hash(key) & s->mask;
    uint64_t slot = (uint64_t)-1;
    for (;;) {
        int64_t k = s->keys[i];
        if (k == key) return;
        if (k == HS_TOMB && slot == (uint64_t)-1) slot = i;
        if (k == HS_EMPTY) {
            s->keys[slot == (uint64_t)-1 ? i : slot] = key;
            return;
        }
        i = (i + 1) & s->mask;
    }
}

static void hs_discard(HSet *s, int64_t key) {
    uint64_t i = hs_hash(key) & s->mask;
    for (;;) {
        int64_t k = s->keys[i];
        if (k == key) { s->keys[i] = HS_TOMB; return; }
        if (k == HS_EMPTY) return;
        i = (i + 1) & s->mask;
    }
}

/* ---------------------------------------------------------------- */
/* Hybrid predictor: bimodal + gshare + 2-bit chooser (McFarling).  */

#define BPRED_HISTORY_MASK ((1LL << 12) - 1)

typedef struct {
    uint8_t *bimodal, *gshare, *chooser;   /* 2-bit counters, start 2 */
    int64_t mask, history;
} Bpred;

static void counter_update(uint8_t *c, int64_t taken) {
    if (taken) { if (*c < 3) *c += 1; }
    else if (*c > 0) *c -= 1;
}

static int64_t bpred_predict_and_update(Bpred *p, int64_t pc, int64_t taken) {
    int64_t bi = pc & p->mask;
    int64_t gi = (pc ^ p->history) & p->mask;
    int64_t bimodal = p->bimodal[bi] >= 2;
    int64_t gshare = p->gshare[gi] >= 2;
    int64_t predicted = p->chooser[bi] >= 2 ? gshare : bimodal;
    if (gshare == taken && bimodal != taken) {
        if (p->chooser[bi] < 3) p->chooser[bi] += 1;
    } else if (bimodal == taken && gshare != taken) {
        if (p->chooser[bi] > 0) p->chooser[bi] -= 1;
    }
    counter_update(&p->bimodal[bi], taken);
    counter_update(&p->gshare[gi], taken);
    p->history = ((p->history << 1) | taken) & BPRED_HISTORY_MASK;
    return predicted;
}

/* ---------------------------------------------------------------- */
/* BTB: chained hash map + doubly-linked LRU (OrderedDict).         */

typedef struct {
    int64_t *pc, *target;
    int32_t *prev, *next;   /* LRU links: head oldest, tail newest */
    int32_t *hnext;         /* hash-chain links */
    int32_t *bucket;        /* bucket heads */
    uint64_t bmask;
    int32_t head, tail, count, cap;
} Btb;

static int32_t btb_find(Btb *b, int64_t pc) {
    int32_t n = b->bucket[hs_hash(pc) & b->bmask];
    while (n != -1) {
        if (b->pc[n] == pc) return n;
        n = b->hnext[n];
    }
    return -1;
}

static void btb_lru_unlink(Btb *b, int32_t n) {
    int32_t p = b->prev[n], q = b->next[n];
    if (p != -1) b->next[p] = q; else b->head = q;
    if (q != -1) b->prev[q] = p; else b->tail = p;
}

static void btb_lru_push_tail(Btb *b, int32_t n) {
    b->prev[n] = b->tail;
    b->next[n] = -1;
    if (b->tail != -1) b->next[b->tail] = n; else b->head = n;
    b->tail = n;
}

static void btb_chain_remove(Btb *b, int32_t n) {
    uint64_t i = hs_hash(b->pc[n]) & b->bmask;
    int32_t cur = b->bucket[i], prev = -1;
    while (cur != -1) {
        if (cur == n) {
            if (prev == -1) b->bucket[i] = b->hnext[cur];
            else b->hnext[prev] = b->hnext[cur];
            return;
        }
        prev = cur;
        cur = b->hnext[cur];
    }
}

static int64_t btb_lookup(Btb *b, int64_t pc) {
    int32_t n = btb_find(b, pc);
    if (n == -1) return -1;
    btb_lru_unlink(b, n);        /* move_to_end */
    btb_lru_push_tail(b, n);
    return b->target[n];
}

static void btb_update(Btb *b, int64_t pc, int64_t target) {
    int32_t n = btb_find(b, pc);
    if (n != -1) {
        b->target[n] = target;
        btb_lru_unlink(b, n);
        btb_lru_push_tail(b, n);
        return;
    }
    if (b->count >= b->cap) {    /* evict LRU head */
        n = b->head;
        btb_lru_unlink(b, n);
        btb_chain_remove(b, n);
    } else {
        n = b->count++;
    }
    b->pc[n] = pc;
    b->target[n] = target;
    uint64_t i = hs_hash(pc) & b->bmask;
    b->hnext[n] = b->bucket[i];
    b->bucket[i] = (int32_t)n;
    btb_lru_push_tail(b, n);
}

/* ---------------------------------------------------------------- */
/* Binary min-heap on (t, uid) lexicographic.                       */

typedef struct { int64_t t, uid; } Ev;

static void heap_push(Ev *h, int64_t *n, int64_t t, int64_t uid) {
    int64_t i = (*n)++;
    h[i].t = t;
    h[i].uid = uid;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h[p].t < t || (h[p].t == t && h[p].uid <= uid)) break;
        h[i] = h[p];
        h[p].t = t; h[p].uid = uid;
        i = p;
    }
}

static Ev heap_pop(Ev *h, int64_t *n) {
    Ev top = h[0];
    int64_t m = --(*n);
    Ev last = h[m];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, s = i;
        int64_t st = last.t, su = last.uid;
        if (l < m && (h[l].t < st || (h[l].t == st && h[l].uid < su))) {
            s = l; st = h[l].t; su = h[l].uid;
        }
        if (r < m && (h[r].t < st || (h[r].t == st && h[r].uid < su))) {
            s = r;
        }
        if (s == i) break;
        h[i] = h[s];
        i = s;
    }
    h[i] = last;
    return top;
}

static void isort64(int64_t *a, int64_t n) {
    for (int64_t i = 1; i < n; i++) {
        int64_t v = a[i], j = i - 1;
        while (j >= 0 && a[j] > v) { a[j + 1] = a[j]; j--; }
        a[j + 1] = v;
    }
}

static uint64_t pow2_at_least(uint64_t n) {
    uint64_t p = 16;
    while (p < n) p <<= 1;
    return p;
}

/* ---------------------------------------------------------------- */
/* MSHR + memory-access state shared by the access helpers.         */

typedef struct {
    Cache ic, dc, l2;
    Tlb itlb, dtlb;
    int64_t *m_line, *m_ent;        /* insertion-ordered MSHR entries */
    int64_t mshr_n, mshr_entries, mshr_next_fill;
    int64_t l2bus_free, membus_free;
    HSet prefetched;
    int64_t dc_hitlat, ic_hitlat, l2_hitlat;
    int64_t memory_latency, tlb_miss_lat, page_shift;
    int64_t l2bus_cyc_dline, l2bus_cyc_iline, membus_cyc_l2line;
    int64_t pthread_fill_l1;
} Mem;

static void mshr_sync(Mem *m, int64_t t) {
    if (t < m->mshr_next_fill) return;
    int64_t n = m->mshr_n, j = 0, next = NO_FILL;
    for (int64_t i = 0; i < n; i++) {
        int64_t e = m->m_ent[i];
        int64_t ft = e >> 3;
        if (ft <= t) {
            int64_t line = m->m_line[i];
            int64_t victim = cache_fill(&m->l2, line, 0);
            if (victim != -1) {
                int64_t start = ft > m->membus_free ? ft : m->membus_free;
                m->membus_free = start + m->membus_cyc_l2line;
            }
            if (e & 2) cache_fill(&m->dc, line, e & 1);
            if (e & 4) hs_add(&m->prefetched, line);
            else hs_discard(&m->prefetched, line);
        } else {
            m->m_line[j] = m->m_line[i];
            m->m_ent[j] = e;
            if (ft < next) next = ft;
            j++;
        }
    }
    m->mshr_n = j;
    m->mshr_next_fill = next;
}

static int64_t data_access(Mem *m, int64_t addr, int64_t now,
                           int is_write, int is_pth) {
    int64_t t = now + tlb_access(&m->dtlb, addr >> m->page_shift,
                                 m->tlb_miss_lat);
    int fill_l1 = !is_pth || m->pthread_fill_l1;
    mshr_sync(m, t);
    int64_t wbit = is_write ? 1 : 0;
    if (cache_access(&m->dc, addr, wbit))
        return ((t + m->dc_hitlat) << 8) | F_L1_HIT;
    t += m->dc_hitlat;
    int64_t line = (addr >> m->l2.ob) << m->l2.ob;
    mshr_sync(m, t);
    for (int64_t i = 0; i < m->mshr_n; i++) {
        if (m->m_line[i] == line) {
            int64_t e = m->m_ent[i];
            int64_t flags = F_MERGED;
            if (!is_pth && (e & 4)) flags |= F_MERGED_PF;
            m->m_ent[i] = e | (fill_l1 ? 2 : 0) | wbit;
            int64_t floor_t = t + m->l2_hitlat;
            int64_t outstanding = e >> 3;
            int64_t complete = outstanding > floor_t ? outstanding : floor_t;
            return (complete << 8) | flags;
        }
    }
    if (cache_access(&m->l2, addr, 0)) {
        int64_t req = t + m->l2_hitlat;
        int64_t start = req > m->l2bus_free ? req : m->l2bus_free;
        int64_t done = start + m->l2bus_cyc_dline;
        m->l2bus_free = done;
        if (fill_l1) cache_fill(&m->dc, addr, wbit);
        int64_t flags = F_L2_ACC;
        if (!is_pth && hs_contains(&m->prefetched, line)) {
            hs_discard(&m->prefetched, line);
            flags |= F_PF_HIT;
        }
        return (done << 8) | flags;
    }
    if (m->mshr_n >= m->mshr_entries)
        return (t << 8) | F_RETRY;
    int64_t mem_done = t + m->l2_hitlat + m->memory_latency;
    int64_t start = mem_done > m->membus_free ? mem_done : m->membus_free;
    int64_t fill_time = start + m->membus_cyc_l2line;
    m->membus_free = fill_time;
    m->m_line[m->mshr_n] = line;
    m->m_ent[m->mshr_n] =
        (fill_time << 3) | (is_pth ? 4 : 0) | (fill_l1 ? 2 : 0) | wbit;
    m->mshr_n++;
    if (fill_time < m->mshr_next_fill) m->mshr_next_fill = fill_time;
    return (fill_time << 8) | F_L2_ACC | F_MEM_ACC;
}

static int64_t inst_fetch(Mem *m, int64_t addr, int64_t now) {
    int64_t t = now + tlb_access(&m->itlb, addr >> m->page_shift,
                                 m->tlb_miss_lat);
    if (cache_access(&m->ic, addr, 0))
        return ((t + m->ic_hitlat) << 8) | F_L1_HIT;
    t += m->ic_hitlat;
    if (cache_access(&m->l2, addr, 0)) {
        int64_t req = t + m->l2_hitlat;
        int64_t start = req > m->l2bus_free ? req : m->l2bus_free;
        int64_t done = start + m->l2bus_cyc_iline;
        m->l2bus_free = done;
        cache_fill(&m->ic, addr, 0);
        return (done << 8) | F_L2_ACC;
    }
    int64_t mem_done = t + m->l2_hitlat + m->memory_latency;
    int64_t start = mem_done > m->membus_free ? mem_done : m->membus_free;
    int64_t fill_time = start + m->membus_cyc_l2line;
    m->membus_free = fill_time;
    cache_fill(&m->l2, addr, 0);
    cache_fill(&m->ic, addr, 0);
    return (fill_time << 8) | F_L2_ACC | F_MEM_ACC;
}

/* ---------------------------------------------------------------- */

int64_t repro_kernel_abi(void) { return KERNEL_ABI; }

#define MAX_ALLOCS 64

typedef struct {
    void *ptrs[MAX_ALLOCS];
    int n;
} Arena;

static void *arena_alloc(Arena *a, size_t bytes) {
    if (a->n >= MAX_ALLOCS) return NULL;
    void *p = malloc(bytes ? bytes : 1);
    if (p) a->ptrs[a->n++] = p;
    return p;
}

static void arena_free(Arena *a) {
    for (int i = 0; i < a->n; i++) free(a->ptrs[i]);
}

int repro_kernel_simulate(
    int64_t *cfg,
    int64_t **I,
    uint8_t **B,
    int64_t *out,
    int64_t *missed_out,
    int64_t *misspc_out,
    int64_t *fa_out
) {
    Arena ar = { {0}, 0 };
#define ALLOC64(var, count) \
    int64_t *var = (int64_t *)arena_alloc(&ar, (size_t)(count) * 8); \
    if (!var) { arena_free(&ar); return 1; }
#define ALLOC32(var, count) \
    int32_t *var = (int32_t *)arena_alloc(&ar, (size_t)(count) * 4); \
    if (!var) { arena_free(&ar); return 1; }
#define ALLOC8(var, count) \
    uint8_t *var = (uint8_t *)arena_alloc(&ar, (size_t)(count)); \
    if (!var) { arena_free(&ar); return 1; }

    const int64_t n_main = cfg[C_N_MAIN];
    const int64_t width = cfg[C_WIDTH];
    const int64_t commit_width = cfg[C_COMMIT_WIDTH];
    const int64_t frontend_depth = cfg[C_FRONTEND_DEPTH];
    const int64_t rs_capacity = cfg[C_RS_CAPACITY];
    const int64_t rob_capacity = cfg[C_ROB_CAPACITY];
    const int64_t phys_budget = cfg[C_PHYS_BUDGET];
    const int64_t pipe_capacity = cfg[C_PIPE_CAPACITY];
    const int64_t pth_block_interval = cfg[C_PTH_BLOCK_INTERVAL];
    const int64_t int_alus = cfg[C_INT_ALUS];
    const int64_t load_ports = cfg[C_LOAD_PORTS];
    const int64_t store_ports = cfg[C_STORE_PORTS];
    const int64_t mul_latency = cfg[C_MUL_LATENCY];
    const int64_t issue_pool_limit = cfg[C_ISSUE_POOL_LIMIT];
    const int64_t main_rs_cap = cfg[C_MAIN_RS_CAP];
    const int64_t safety_limit = cfg[C_SAFETY_LIMIT];
    const int64_t inst_bytes = cfg[C_INST_BYTES];
    const int64_t line_shift = cfg[C_LINE_SHIFT];
    const int64_t l2_line_shift = cfg[C_L2_LINE_SHIFT];
    const int64_t has_spawns = cfg[C_HAS_SPAWNS];
    const int64_t has_hints = cfg[C_HAS_HINTS];
    const int64_t bpred_entries = cfg[C_BPRED_ENTRIES];
    const int64_t btb_entries = cfg[C_BTB_ENTRIES];
    const int64_t no_producer = cfg[C_NO_PRODUCER];
    const int64_t n_spawns = cfg[C_N_SPAWNS];
    const int64_t n_pinsts = cfg[C_N_PINSTS];
    int64_t free_contexts = cfg[C_FREE_CONTEXTS];

    const int64_t *pc_arr = I[I_PC];
    const int64_t *addr_arr = I[I_ADDR];
    const int64_t *src1_arr = I[I_SRC1];
    const int64_t *src2_arr = I[I_SRC2];
    const int64_t *next_pc_arr = I[I_NEXT_PC];
    const int64_t *sp_trigger = I[I_SP_TRIGGER];
    const int64_t *sp_static = I[I_SP_STATIC];
    const int64_t *sp_inst_lo = I[I_SP_INST_LO];
    const int64_t *sp_inst_hi = I[I_SP_INST_HI];
    const int64_t *pi_addr = I[I_PI_ADDR];
    const int64_t *pi_hint_seq = I[I_PI_HINT_SEQ];
    const int64_t *pi_dep_lo = I[I_PI_DEP_LO];
    const int64_t *pi_dep_hi = I[I_PI_DEP_HI];
    const int64_t *dep_flat = I[I_DEP_FLAT];
    const int64_t *pi_live_lo = I[I_PI_LIVE_LO];
    const int64_t *pi_live_hi = I[I_PI_LIVE_HI];
    const int64_t *live_flat = I[I_LIVE_FLAT];
    const uint8_t *kind_arr = B[B_KIND];
    const uint8_t *ctrl_arr = B[B_CTRL];
    const uint8_t *writes_arr = B[B_WRITES];
    const uint8_t *taken_arr = B[B_TAKEN];
    const uint8_t *pi_kind = B[B_PI_KIND];
    const uint8_t *pi_hint_taken = B[B_PI_HINT_TAKEN];

    /* ---- memory subsystem -------------------------------------- */
    Mem mem;
    memset(&mem, 0, sizeof(mem));
    mem.ic.ob = cfg[C_IC_OFFSET_BITS]; mem.ic.ib = cfg[C_IC_INDEX_BITS];
    mem.ic.im = cfg[C_IC_INDEX_MASK]; mem.ic.assoc = cfg[C_IC_ASSOC];
    mem.dc.ob = cfg[C_DC_OFFSET_BITS]; mem.dc.ib = cfg[C_DC_INDEX_BITS];
    mem.dc.im = cfg[C_DC_INDEX_MASK]; mem.dc.assoc = cfg[C_DC_ASSOC];
    mem.l2.ob = cfg[C_L2_OFFSET_BITS]; mem.l2.ib = cfg[C_L2_INDEX_BITS];
    mem.l2.im = cfg[C_L2_INDEX_MASK]; mem.l2.assoc = cfg[C_L2_ASSOC];
    const int64_t ic_nsets = cfg[C_IC_NSETS];
    const int64_t dc_nsets = cfg[C_DC_NSETS];
    const int64_t l2_nsets = cfg[C_L2_NSETS];
    ALLOC64(ic_ways, ic_nsets * mem.ic.assoc);
    ALLOC64(ic_occ, ic_nsets);
    ALLOC64(dc_ways, dc_nsets * mem.dc.assoc);
    ALLOC64(dc_occ, dc_nsets);
    ALLOC64(l2_ways, l2_nsets * mem.l2.assoc);
    ALLOC64(l2_occ, l2_nsets);
    mem.ic.ways = ic_ways; mem.ic.occ = ic_occ;
    mem.dc.ways = dc_ways; mem.dc.occ = dc_occ;
    mem.l2.ways = l2_ways; mem.l2.occ = l2_occ;
    memset(ic_occ, 0, (size_t)ic_nsets * 8);
    memset(dc_occ, 0, (size_t)dc_nsets * 8);
    memset(l2_occ, 0, (size_t)l2_nsets * 8);
    if (cfg[C_DO_WARM] && n_main) {
        /* Pipeline._warm_caches; `seen` is a byte map over line ids. */
        int64_t lo = (pc_arr[0] * inst_bytes) >> line_shift, hi = lo;
        for (int64_t i = 1; i < n_main; i++) {
            int64_t line = (pc_arr[i] * inst_bytes) >> line_shift;
            if (line < lo) lo = line;
            if (line > hi) hi = line;
        }
        ALLOC8(seen, hi - lo + 1);
        memset(seen, 0, (size_t)(hi - lo + 1));
        for (int64_t i = 0; i < n_main; i++) {
            int64_t line = (pc_arr[i] * inst_bytes) >> line_shift;
            if (!seen[line - lo]) {
                seen[line - lo] = 1;
                cache_warm(&mem.ic, &mem.l2, pc_arr[i] * inst_bytes);
            }
            if (addr_arr[i] >= 0) cache_warm(&mem.dc, &mem.l2, addr_arr[i]);
        }
    }
    ALLOC64(itlb_pages, cfg[C_ITLB_ENTRIES]);
    ALLOC64(dtlb_pages, cfg[C_DTLB_ENTRIES]);
    mem.itlb.pages = itlb_pages; mem.itlb.entries = cfg[C_ITLB_ENTRIES];
    mem.dtlb.pages = dtlb_pages; mem.dtlb.entries = cfg[C_DTLB_ENTRIES];
    mem.mshr_entries = cfg[C_MSHR_ENTRIES];
    ALLOC64(m_line, mem.mshr_entries);
    ALLOC64(m_ent, mem.mshr_entries);
    mem.m_line = m_line; mem.m_ent = m_ent;
    mem.mshr_next_fill = NO_FILL;
    {
        uint64_t pcap = pow2_at_least((uint64_t)(4 * (n_pinsts + 16)));
        ALLOC64(pf_keys, (int64_t)pcap);
        for (uint64_t i = 0; i < pcap; i++) pf_keys[i] = HS_EMPTY;
        mem.prefetched.keys = pf_keys;
        mem.prefetched.mask = pcap - 1;
    }
    mem.dc_hitlat = cfg[C_DC_HIT_LAT];
    mem.ic_hitlat = cfg[C_IC_HIT_LAT];
    mem.l2_hitlat = cfg[C_L2_HIT_LAT];
    mem.memory_latency = cfg[C_MEMORY_LATENCY];
    mem.tlb_miss_lat = cfg[C_TLB_MISS_LAT];
    mem.page_shift = cfg[C_PAGE_SHIFT];
    mem.l2bus_cyc_dline = cfg[C_L2BUS_CYC_DLINE];
    mem.l2bus_cyc_iline = cfg[C_L2BUS_CYC_ILINE];
    mem.membus_cyc_l2line = cfg[C_MEMBUS_CYC_L2LINE];
    mem.pthread_fill_l1 = cfg[C_PTHREAD_FILL_L1];

    /* ---- branch predictor and BTB ------------------------------ */
    Bpred bp;
    ALLOC8(bp_tables, 3 * bpred_entries);
    memset(bp_tables, 2, (size_t)(3 * bpred_entries));
    bp.bimodal = bp_tables;
    bp.gshare = bp_tables + bpred_entries;
    bp.chooser = bp_tables + 2 * bpred_entries;
    bp.mask = bpred_entries - 1;
    bp.history = 0;
    Btb btb;
    memset(&btb, 0, sizeof(btb));
    btb.head = btb.tail = -1;
    if (n_main) {
        uint64_t nb = pow2_at_least((uint64_t)(2 * btb_entries + 2));
        ALLOC64(btb_pc, btb_entries);
        ALLOC64(btb_target, btb_entries);
        ALLOC32(btb_prev, btb_entries);
        ALLOC32(btb_next, btb_entries);
        ALLOC32(btb_hnext, btb_entries);
        ALLOC32(btb_bucket, (int64_t)nb);
        for (uint64_t i = 0; i < nb; i++) btb_bucket[i] = -1;
        btb.pc = btb_pc; btb.target = btb_target;
        btb.prev = btb_prev; btb.next = btb_next;
        btb.hnext = btb_hnext; btb.bucket = btb_bucket;
        btb.bmask = nb - 1;
        btb.cap = (int32_t)btb_entries;
    }

    /* ---- scheduler state --------------------------------------- */
    const int64_t uid_space = n_main + n_pinsts;
    ALLOC64(completion, n_main);
    memset(completion, 0xFF, (size_t)n_main * 8);       /* NOT_DONE */
    ALLOC64(pending_main, n_main);
    memset(pending_main, 0, (size_t)n_main * 8);
    ALLOC64(p_completion, n_pinsts);
    ALLOC64(p_pending, n_pinsts);
    ALLOC64(p_addr_dyn, n_pinsts);
    ALLOC64(p_ctx, n_pinsts);
    ALLOC64(p_spec, n_pinsts);
    ALLOC8(p_kind_dyn, n_pinsts);
    int64_t p_len = 0;

    /* wakeup: per-producer FIFO linked lists over a node pool */
    const int64_t wk_pool_cap =
        2 * n_main + cfg[C_DEP_LEN] + cfg[C_LIVE_LEN] + 8;
    ALLOC32(wk_head, uid_space + 1);
    ALLOC32(wk_tail, uid_space + 1);
    memset(wk_head, 0xFF, (size_t)(uid_space + 1) * 4);  /* -1 */
    memset(wk_tail, 0xFF, (size_t)(uid_space + 1) * 4);
    ALLOC64(wk_uid, wk_pool_cap);
    ALLOC32(wk_next, wk_pool_cap);
    int64_t wk_n = 0;

    const int64_t ready_cap = main_rs_cap + rs_capacity + 16;
    ALLOC64(ready, ready_cap);
    int64_t n_ready = 0;
    ALLOC64(deferred, issue_pool_limit + 8);
    int64_t n_deferred = 0;
    ALLOC64(pool, issue_pool_limit + 8);
    ALLOC64(retry, issue_pool_limit + 8);

    const int64_t heap_cap =
        rob_capacity + n_pinsts + issue_pool_limit + 64;
    Ev *cheap = (Ev *)arena_alloc(&ar, (size_t)heap_cap * sizeof(Ev));
    if (!cheap) { arena_free(&ar); return 1; }
    int64_t n_heap = 0;
    ALLOC64(events_t1, issue_pool_limit + 8);
    int64_t n_events_t1 = 0;

    ALLOC64(rob, rob_capacity);
    int64_t rob_head_i = 0, rob_len = 0;
    ALLOC64(frontend_pipe, pipe_capacity + 1);
    const int64_t fp_cap = pipe_capacity + 1;
    int64_t fp_head_i = 0, fp_len = 0, fp_tail_i = 0, fp_head = 0;
    const int64_t pp_cap = pipe_capacity + width + 1;
    ALLOC64(pp_at, pp_cap);
    ALLOC32(pp_ci, pp_cap);
    ALLOC32(pp_idx, pp_cap);
    int64_t pp_head_i = 0, pp_len = 0, pp_tail_i = 0;

    int64_t rs_used_main = 0, rs_used_pth = 0, phys_used = 0;
    int64_t next_seq = 0, fetch_line = -1;
    int64_t line_ready_at = 0, fetch_hold_until = 0;
    int64_t pending_redirect = -1, redirect_clear_at = NOT_DONE;

    ALLOC8(load_kind, n_main);
    memset(load_kind, 0, (size_t)n_main);
    HSet partial;
    {
        uint64_t pcap = pow2_at_least((uint64_t)(2 * (n_main + 16)));
        ALLOC64(pt_keys, (int64_t)pcap);
        for (uint64_t i = 0; i < pcap; i++) pt_keys[i] = HS_EMPTY;
        partial.keys = pt_keys;
        partial.mask = pcap - 1;
    }
    int64_t *hint_time = NULL;
    uint8_t *hint_dir = NULL;
    if (has_hints) {
        ALLOC64(ht, n_main);
        memset(ht, 0xFF, (size_t)n_main * 8);            /* NOT_DONE */
        ALLOC8(hd, n_main);
        memset(hd, 0, (size_t)n_main);
        hint_time = ht;
        hint_dir = hd;
    }

    ALLOC64(ctx_spawn, n_spawns + 1);
    ALLOC64(ctx_uid_base, n_spawns + 1);
    ALLOC64(ctx_fetch_idx, n_spawns + 1);
    ALLOC64(ctx_next_fetch, n_spawns + 1);
    ALLOC64(ctx_in_flight, n_spawns + 1);
    ALLOC64(ctx_fetched_all, n_spawns + 1);
    ALLOC64(fetch_active, n_spawns + 1);
    int64_t n_ctx = 0, n_fetch_active = 0, sp_next = 0;

    int64_t next_uid = n_main;
    int64_t now = 0, committed = 0;

    int64_t st_branches = 0, st_mispredictions = 0, st_btb_misses = 0;
    int64_t st_demand_l2 = 0, st_pthread_l2 = 0;
    int64_t st_covered_full = 0, st_covered_partial = 0, st_useful = 0;
    int64_t st_hints_used = 0;
    int64_t st_pinsts_fetched = 0, st_pinsts_executed = 0;
    int64_t st_spawns_attempted = 0, st_spawns_started = 0;
    int64_t st_spawns_dropped = 0;
    int64_t ac_committed = 0, ac_dispatched_main = 0, ac_dispatched_pth = 0;
    int64_t ac_fetch_main = 0, ac_fetch_pth = 0, ac_bpred = 0;
    int64_t ac_dmem_main = 0, ac_dmem_pth = 0;
    int64_t ac_l2_main = 0, ac_l2_pth = 0;
    int64_t ac_alu_main = 0, ac_alu_pth = 0;
    int64_t bd_mem = 0, bd_l2 = 0, bd_exec = 0, bd_commit = 0, bd_fetch = 0;
    int64_t sl_retire = 0, sl_fetch = 0, sl_branch = 0, sl_load = 0;
    int64_t sl_rob = 0, sl_rs = 0, sl_pth = 0, sl_exec = 0;

    int64_t n_missed = 0, n_misspc = 0;
    int64_t status = STATUS_OK, n_fa = 0;

    /* attribute_cycles(n, retired) -- written as a macro so the stall
     * classification reads the live loop locals, exactly like the
     * reference's attribute_cycles closure. */
#define ATTRIBUTE_CYCLES(n_cyc, retired) do {                            \
        int64_t r_ = (retired) < width ? (retired) : width;              \
        sl_retire += r_;                                                 \
        int64_t slots_ = width * (n_cyc) - r_;                           \
        if (!rob_len) {                                                  \
            bd_fetch += (n_cyc);                                         \
            if (pending_redirect != -1) sl_branch += slots_;             \
            else sl_fetch += slots_;                                     \
        } else {                                                         \
            int64_t head_ = rob[rob_head_i];                             \
            int64_t t_ = completion[head_];                              \
            if (t_ != NOT_DONE && t_ <= now) {                           \
                bd_commit += (n_cyc);                                    \
                sl_exec += slots_;                                       \
            } else if (kind_arr[head_] == K_LOAD && load_kind[head_]) {  \
                if (load_kind[head_] == 1) bd_mem += (n_cyc);            \
                else bd_l2 += (n_cyc);                                   \
                sl_load += slots_;                                       \
            } else {                                                     \
                bd_exec += (n_cyc);                                      \
                if (rob_len >= rob_capacity) sl_rob += slots_;           \
                else if (rs_used_pth &&                                  \
                         rs_used_main + rs_used_pth >= rs_capacity)      \
                    sl_pth += slots_;                                    \
                else if (rs_used_main >= main_rs_cap) sl_rs += slots_;   \
                else sl_exec += slots_;                                  \
            }                                                            \
        }                                                                \
    } while (0)

#define WAKE_ALL(producer_) do {                                         \
        int32_t node_ = wk_head[producer_];                              \
        if (node_ != -1) {                                               \
            wk_head[producer_] = -1;                                     \
            wk_tail[producer_] = -1;                                     \
            while (node_ != -1) {                                        \
                int64_t w_ = wk_uid[node_];                              \
                int64_t p_;                                              \
                if (w_ < n_main) {                                       \
                    p_ = --pending_main[w_];                             \
                } else {                                                 \
                    p_ = --p_pending[w_ - n_main];                       \
                }                                                        \
                if (p_ == 0) ready[n_ready++] = w_;                      \
                node_ = wk_next[node_];                                  \
            }                                                            \
        }                                                                \
    } while (0)

#define WAKE_REGISTER(producer_, waiter_) do {                           \
        int32_t nn_ = (int32_t)wk_n++;                                   \
        wk_uid[nn_] = (waiter_);                                         \
        wk_next[nn_] = -1;                                               \
        if (wk_tail[producer_] == -1) {                                  \
            wk_head[producer_] = nn_;                                    \
        } else {                                                         \
            wk_next[wk_tail[producer_]] = nn_;                           \
        }                                                                \
        wk_tail[producer_] = nn_;                                        \
    } while (0)

    while (committed < n_main) {
        /* ---- wakeup ------------------------------------------- */
        if (n_events_t1) {
            for (int64_t i = 0; i < n_events_t1; i++) {
                int64_t uid = events_t1[i];
                WAKE_ALL(uid);
            }
            n_events_t1 = 0;
        }
        while (n_heap && cheap[0].t <= now) {
            Ev ev = heap_pop(cheap, &n_heap);
            WAKE_ALL(ev.uid);
        }

        /* ---- commit ------------------------------------------- */
        int64_t ncommitted = 0;
        while (ncommitted < commit_width && rob_len) {
            int64_t head = rob[rob_head_i];
            int64_t t = completion[head];
            if (t == NOT_DONE || t > now) break;
            rob_head_i = rob_head_i + 1 == rob_capacity ? 0 : rob_head_i + 1;
            rob_len -= 1;
            if (writes_arr[head]) phys_used -= 1;
            committed += 1;
            ncommitted += 1;
        }
        if (ncommitted) ac_committed += ncommitted;
        int active = ncommitted > 0;

        /* ---- issue -------------------------------------------- */
        if (n_ready || n_deferred) {
            int64_t now1 = now + 1;
            int64_t alu_slots = int_alus;
            int64_t load_slots = load_ports;
            int64_t store_slots = store_ports;
            int64_t issued = 0;
            int64_t n_retry = 0;
            int64_t n_pool = n_deferred;
            memcpy(pool, deferred, (size_t)n_deferred * 8);
            n_deferred = 0;
            if (n_ready) {
                isort64(ready, n_ready);
                int64_t k = issue_pool_limit - n_pool;
                if (k > 0) {
                    if (k > n_ready) k = n_ready;
                    memcpy(pool + n_pool, ready, (size_t)k * 8);
                    n_pool += k;
                    n_ready -= k;
                    memmove(ready, ready + k, (size_t)n_ready * 8);
                }
            }
            for (int64_t pi = 0; pi < n_pool; pi++) {
                int64_t uid = pool[pi];
                if (uid < n_main) {
                    int64_t kind = kind_arr[uid];
                    if (kind == K_LOAD) {
                        if (load_slots <= 0 || issued >= width) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        int64_t r = data_access(&mem, addr_arr[uid], now,
                                                0, 0);
                        int64_t flags = r & 0xFF;
                        if (flags & F_RETRY) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        ac_dmem_main += 1;
                        if (flags & (F_L2_ACC | F_MEM_ACC)) ac_l2_main += 1;
                        if (flags & F_MEM_ACC) {
                            st_demand_l2 += 1;
                            missed_out[n_missed++] = uid;
                            misspc_out[n_misspc++] = uid;
                            load_kind[uid] = 1;
                        } else if (flags & F_MERGED) {
                            load_kind[uid] = 1;
                            if (flags & F_MERGED_PF) {
                                int64_t line = addr_arr[uid] >> l2_line_shift;
                                if (!hs_contains(&partial, line)) {
                                    hs_add(&partial, line);
                                    st_covered_partial += 1;
                                    st_useful += 1;
                                }
                                missed_out[n_missed++] = uid;
                            }
                        } else if (flags & F_L2_ACC) {
                            load_kind[uid] = 2;
                        }
                        if (flags & F_PF_HIT) {
                            st_covered_full += 1;
                            st_useful += 1;
                        }
                        int64_t t = r >> 8;
                        completion[uid] = t;
                        if (t == now1) events_t1[n_events_t1++] = uid;
                        else heap_push(cheap, &n_heap, t, uid);
                        load_slots -= 1;
                    } else if (kind == K_STORE) {
                        if (store_slots <= 0 || issued >= width) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        int64_t r = data_access(&mem, addr_arr[uid], now,
                                                1, 0);
                        int64_t flags = r & 0xFF;
                        if (flags & F_RETRY) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        ac_dmem_main += 1;
                        if (flags & (F_L2_ACC | F_MEM_ACC)) ac_l2_main += 1;
                        completion[uid] = now1;
                        events_t1[n_events_t1++] = uid;
                        store_slots -= 1;
                    } else {
                        if (alu_slots <= 0 || issued >= width) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        if (kind == K_MUL) {
                            int64_t t = now + mul_latency;
                            completion[uid] = t;
                            if (t == now1) events_t1[n_events_t1++] = uid;
                            else heap_push(cheap, &n_heap, t, uid);
                        } else {
                            if (kind == K_BRANCH && uid == pending_redirect)
                                redirect_clear_at = now1;
                            completion[uid] = now1;
                            events_t1[n_events_t1++] = uid;
                        }
                        ac_alu_main += 1;
                        alu_slots -= 1;
                    }
                    rs_used_main -= 1;
                } else {
                    int64_t pu = uid - n_main;
                    int64_t kind = p_kind_dyn[pu];
                    int64_t t;
                    if (kind == K_LOAD) {
                        if (load_slots <= 0 || issued >= width) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        int64_t r = data_access(&mem, p_addr_dyn[pu], now,
                                                0, 1);
                        int64_t flags = r & 0xFF;
                        if (flags & F_RETRY) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        ac_dmem_pth += 1;
                        if (flags & (F_L2_ACC | F_MEM_ACC)) ac_l2_pth += 1;
                        if (flags & F_MEM_ACC) st_pthread_l2 += 1;
                        t = r >> 8;
                        p_completion[pu] = t;
                        if (t == now1) events_t1[n_events_t1++] = uid;
                        else heap_push(cheap, &n_heap, t, uid);
                        load_slots -= 1;
                    } else {
                        if (alu_slots <= 0 || issued >= width) {
                            retry[n_retry++] = uid;
                            continue;
                        }
                        t = kind == K_MUL ? now + mul_latency : now1;
                        p_completion[pu] = t;
                        if (t == now1) events_t1[n_events_t1++] = uid;
                        else heap_push(cheap, &n_heap, t, uid);
                        ac_alu_pth += 1;
                        alu_slots -= 1;
                    }
                    st_pinsts_executed += 1;
                    int64_t j = p_spec[pu];
                    int64_t hs = pi_hint_seq[j];
                    if (hs >= 0) {
                        hint_time[hs] = t;
                        hint_dir[hs] = pi_hint_taken[j];
                    }
                    int64_t ci = p_ctx[pu];
                    ctx_in_flight[ci] -= 1;
                    if (ctx_fetched_all[ci] && ctx_in_flight[ci] == 0) {
                        int64_t s = ctx_spawn[ci];
                        phys_used -= sp_inst_hi[s] - sp_inst_lo[s];
                        free_contexts += 1;
                    }
                    rs_used_pth -= 1;
                }
                issued += 1;
            }
            memcpy(deferred + n_deferred, retry, (size_t)n_retry * 8);
            n_deferred += n_retry;
            if (issued) active = 1;
        }

        /* ---- dispatch ----------------------------------------- */
        int64_t n = 0;
        while (n < width && fp_len) {
            if (frontend_pipe[fp_head_i] > now) break;
            int64_t seq = fp_head;
            int64_t kind = kind_arr[seq];
            if (rob_len >= rob_capacity) break;
            int needs_rs = kind != K_NOP;
            if (needs_rs && rs_used_main >= main_rs_cap) break;
            int64_t writes = writes_arr[seq];
            if (writes && phys_used >= phys_budget) break;
            fp_head_i = fp_head_i + 1 == fp_cap ? 0 : fp_head_i + 1;
            fp_len -= 1;
            fp_head += 1;
            rob[(rob_head_i + rob_len) % rob_capacity] = seq;
            rob_len += 1;
            ac_dispatched_main += 1;
            if (writes) phys_used += 1;
            if (needs_rs) {
                rs_used_main += 1;
                int64_t pending = 0;
                int64_t producer = src1_arr[seq];
                if (producer != no_producer) {
                    int64_t t = completion[producer];
                    if (t == NOT_DONE || t > now) {
                        WAKE_REGISTER(producer, seq);
                        pending += 1;
                    }
                }
                producer = src2_arr[seq];
                if (producer != no_producer) {
                    int64_t t = completion[producer];
                    if (t == NOT_DONE || t > now) {
                        WAKE_REGISTER(producer, seq);
                        pending += 1;
                    }
                }
                if (pending) pending_main[seq] = pending;
                else ready[n_ready++] = seq;
            } else {
                /* NOPs complete instantly; never have waiters. */
                completion[seq] = now;
            }
            if (has_spawns) {
                while (sp_next < n_spawns && sp_trigger[sp_next] <= seq) {
                    if (sp_trigger[sp_next] < seq) {
                        sp_next += 1;
                        continue;
                    }
                    int64_t s = sp_next;
                    sp_next += 1;
                    st_spawns_attempted += 1;
                    if (free_contexts <= 0) {
                        st_spawns_dropped += 1;
                        continue;
                    }
                    int64_t k = sp_inst_hi[s] - sp_inst_lo[s];
                    if (phys_used + k > phys_budget) {
                        st_spawns_dropped += 1;
                        continue;
                    }
                    free_contexts -= 1;
                    phys_used += k;
                    int64_t ci = n_ctx++;
                    ctx_spawn[ci] = s;
                    ctx_uid_base[ci] = next_uid;
                    ctx_fetch_idx[ci] = 0;
                    ctx_next_fetch[ci] = now + 1;
                    ctx_in_flight[ci] = 0;
                    ctx_fetched_all[ci] = 0;
                    fetch_active[n_fetch_active++] = ci;
                    next_uid += k;
                    for (int64_t j = sp_inst_lo[s]; j < sp_inst_hi[s]; j++) {
                        p_kind_dyn[p_len] = pi_kind[j];
                        p_addr_dyn[p_len] = pi_addr[j];
                        p_ctx[p_len] = ci;
                        p_spec[p_len] = j;
                        p_completion[p_len] = NOT_DONE;
                        p_pending[p_len] = 0;
                        p_len += 1;
                    }
                    st_spawns_started += 1;
                }
            }
            n += 1;
        }
        while (n < width && pp_len) {
            int64_t ready_at = pp_at[pp_head_i];
            if (ready_at > now) break;
            if (rs_used_main + rs_used_pth >= rs_capacity) break;
            int64_t ci = pp_ci[pp_head_i];
            int64_t idx = pp_idx[pp_head_i];
            pp_head_i = pp_head_i + 1 == pp_cap ? 0 : pp_head_i + 1;
            pp_len -= 1;
            rs_used_pth += 1;
            ac_dispatched_pth += 1;
            int64_t s = ctx_spawn[ci];
            int64_t j = sp_inst_lo[s] + idx;
            int64_t uid_base = ctx_uid_base[ci];
            int64_t uid = uid_base + idx;
            int64_t pending = 0;
            int64_t base_off = uid_base - n_main;
            for (int64_t di = pi_dep_lo[j]; di < pi_dep_hi[j]; di++) {
                int64_t d = dep_flat[di];
                int64_t t = p_completion[base_off + d];
                if (t == NOT_DONE || t > now) {
                    int64_t producer = uid_base + d;
                    WAKE_REGISTER(producer, uid);
                    pending += 1;
                }
            }
            for (int64_t li = pi_live_lo[j]; li < pi_live_hi[j]; li++) {
                int64_t producer = live_flat[li];
                int64_t t = producer < n_main
                    ? completion[producer]
                    : p_completion[producer - n_main];
                if (t == NOT_DONE || t > now) {
                    WAKE_REGISTER(producer, uid);
                    pending += 1;
                }
            }
            if (pending) p_pending[uid - n_main] = pending;
            else ready[n_ready++] = uid;
            n += 1;
        }
        if (n) active = 1;

        /* ---- fetch -------------------------------------------- */
        int fetched_any = 0;
        if (n_fetch_active && pp_len < pipe_capacity) {
            for (int64_t pos = 0; pos < n_fetch_active; pos++) {
                int64_t ci = fetch_active[pos];
                if (ctx_next_fetch[ci] > now) continue;
                int64_t s = ctx_spawn[ci];
                int64_t body_len = sp_inst_hi[s] - sp_inst_lo[s];
                int64_t block_start = ctx_fetch_idx[ci];
                int64_t block_end = block_start + width;
                if (block_end > body_len) block_end = body_len;
                for (int64_t idx = block_start; idx < block_end; idx++) {
                    pp_at[pp_tail_i] = now + frontend_depth;
                    pp_ci[pp_tail_i] = (int32_t)ci;
                    pp_idx[pp_tail_i] = (int32_t)idx;
                    pp_tail_i = pp_tail_i + 1 == pp_cap ? 0 : pp_tail_i + 1;
                    pp_len += 1;
                    ctx_in_flight[ci] += 1;
                    st_pinsts_fetched += 1;
                }
                ctx_fetch_idx[ci] = block_end;
                ctx_next_fetch[ci] = now + pth_block_interval;
                if (block_end >= body_len) {
                    ctx_fetched_all[ci] = 1;
                    memmove(fetch_active + pos, fetch_active + pos + 1,
                            (size_t)(n_fetch_active - 1 - pos) * 8);
                    n_fetch_active -= 1;
                }
                ac_fetch_pth += 1;
                fetched_any = 1;
                break;
            }
        }
        if (!fetched_any && fp_len < pipe_capacity) {
            int fetch_ok = 1;
            if (pending_redirect != -1) {
                if (redirect_clear_at == NOT_DONE
                    || now <= redirect_clear_at) {
                    fetch_ok = 0;
                } else {
                    pending_redirect = -1;
                    redirect_clear_at = NOT_DONE;
                    fetch_line = -1;     /* refetch the target line */
                }
            }
            if (fetch_ok && now >= fetch_hold_until && next_seq < n_main) {
                int64_t line = (pc_arr[next_seq] * inst_bytes) >> line_shift;
                int line_miss = 0;
                if (line != fetch_line) {
                    int64_t r = inst_fetch(&mem, pc_arr[next_seq]
                                           * inst_bytes, now);
                    fetch_line = line;
                    if (!(r & F_L1_HIT)) {
                        line_ready_at = r >> 8;
                        /* The fetch slot is consumed by the miss. */
                        line_miss = 1;
                        fetched_any = 1;
                    } else {
                        line_ready_at = now;
                    }
                }
                if (!line_miss && now >= line_ready_at) {
                    ac_fetch_main += 1;
                    int64_t fetched = 0;
                    int64_t dispatch_at = now + frontend_depth;
                    while (fetched < width && next_seq < n_main
                           && fp_len < pipe_capacity) {
                        int64_t idx = next_seq;
                        int64_t pc = pc_arr[idx];
                        if ((pc * inst_bytes) >> line_shift != fetch_line)
                            break;
                        frontend_pipe[fp_tail_i] = dispatch_at;
                        fp_tail_i = fp_tail_i + 1 == fp_cap
                            ? 0 : fp_tail_i + 1;
                        fp_len += 1;
                        next_seq += 1;
                        fetched += 1;
                        int64_t ctrl = ctrl_arr[idx];
                        if (ctrl == CTRL_BRANCH) {
                            int64_t taken = taken_arr[idx];
                            st_branches += 1;
                            ac_bpred += 1;
                            int64_t predicted =
                                bpred_predict_and_update(&bp, pc, taken);
                            if (has_hints) {
                                int64_t ht = hint_time[idx];
                                if (ht != NOT_DONE && ht <= now) {
                                    st_hints_used += 1;
                                    predicted = hint_dir[idx];
                                }
                            }
                            if (predicted != taken) {
                                st_mispredictions += 1;
                                pending_redirect = idx;
                                redirect_clear_at = NOT_DONE;
                                break;
                            }
                            if (taken) {
                                int64_t branch_next_pc = next_pc_arr[idx];
                                int64_t target = btb_lookup(&btb, pc);
                                if (target != branch_next_pc) {
                                    st_btb_misses += 1;
                                    btb_update(&btb, pc, branch_next_pc);
                                    fetch_hold_until = now + 2;
                                }
                                fetch_line = (branch_next_pc * inst_bytes)
                                    >> line_shift;
                                int64_t r = inst_fetch(
                                    &mem, branch_next_pc * inst_bytes, now);
                                if (!(r & F_L1_HIT))
                                    line_ready_at = r >> 8;
                                break;
                            }
                        } else if (ctrl == CTRL_JUMP) {
                            int64_t jump_next_pc = next_pc_arr[idx];
                            fetch_line = (jump_next_pc * inst_bytes)
                                >> line_shift;
                            int64_t r = inst_fetch(
                                &mem, jump_next_pc * inst_bytes, now);
                            if (!(r & F_L1_HIT))
                                line_ready_at = r >> 8;
                            break;
                        }
                    }
                    if (fetched) fetched_any = 1;
                }
            }
        }
        if (fetched_any) active = 1;

        if (now > safety_limit) {
            status = STATUS_SAFETY;
            break;
        }

        if (committed >= n_main) {
            ATTRIBUTE_CYCLES(1, ncommitted);
            now += 1;
            break;
        }

        if (active || n_ready) {
            ATTRIBUTE_CYCLES(1, ncommitted);
            now += 1;
            continue;
        }

        /* Nothing can happen until the next event: jump. */
        int64_t cand[8];
        int n_cand;
        if (!n_deferred) {
            n_cand = 0;
            if (n_heap) cand[n_cand++] = cheap[0].t;
            if (fp_len && frontend_pipe[fp_head_i] > now)
                cand[n_cand++] = frontend_pipe[fp_head_i];
            if (pp_len && pp_at[pp_head_i] > now)
                cand[n_cand++] = pp_at[pp_head_i];
            if (pending_redirect != -1 && redirect_clear_at != NOT_DONE
                && redirect_clear_at + 1 > now)
                cand[n_cand++] = redirect_clear_at + 1;
            if (line_ready_at > now) cand[n_cand++] = line_ready_at;
            if (fetch_hold_until > now) cand[n_cand++] = fetch_hold_until;
            int64_t ctx_min = NO_FILL;
            for (int64_t i = 0; i < n_fetch_active; i++) {
                int64_t nf = ctx_next_fetch[fetch_active[i]];
                if (nf > now && nf < ctx_min) ctx_min = nf;
            }
            if (ctx_min != NO_FILL) cand[n_cand++] = ctx_min;
            if (n_cand) {
                int64_t target = cand[0];
                for (int i = 1; i < n_cand; i++)
                    if (cand[i] < target) target = cand[i];
                ATTRIBUTE_CYCLES(target - now, 0);
                now = target;
                continue;
            }
            /* Only stale candidates (if any) remain: fall through. */
        }
        n_cand = 0;
        if (n_heap) cand[n_cand++] = cheap[0].t;
        if (fp_len) cand[n_cand++] = frontend_pipe[fp_head_i];
        if (pp_len) cand[n_cand++] = pp_at[pp_head_i];
        if (pending_redirect != -1 && redirect_clear_at != NOT_DONE)
            cand[n_cand++] = redirect_clear_at + 1;
        if (line_ready_at > now) cand[n_cand++] = line_ready_at;
        if (fetch_hold_until > now) cand[n_cand++] = fetch_hold_until;
        int64_t ctx_min = NO_FILL;
        for (int64_t i = 0; i < n_fetch_active; i++) {
            int64_t nf = ctx_next_fetch[fetch_active[i]];
            if (nf < ctx_min) ctx_min = nf;
        }
        if (ctx_min != NO_FILL) cand[n_cand++] = ctx_min;
        if (!n_cand) {
            status = STATUS_DEADLOCK;
            for (int64_t i = 0; i < n_fetch_active; i++) {
                int64_t ci = fetch_active[i];
                int64_t s = ctx_spawn[ci];
                fa_out[6 * n_fa] = sp_static[s];
                fa_out[6 * n_fa + 1] = sp_trigger[s];
                fa_out[6 * n_fa + 2] = ctx_fetch_idx[ci];
                fa_out[6 * n_fa + 3] = ctx_next_fetch[ci];
                fa_out[6 * n_fa + 4] = ctx_in_flight[ci];
                fa_out[6 * n_fa + 5] = ctx_fetched_all[ci];
                n_fa += 1;
            }
            break;
        }
        int64_t target = cand[0];
        for (int i = 1; i < n_cand; i++)
            if (cand[i] < target) target = cand[i];
        if (target < now + 1) target = now + 1;
        ATTRIBUTE_CYCLES(target - now, 0);
        now = target;
    }

    memset(out, 0, O_LEN * 8);
    out[O_CYCLES] = now;
    out[O_COMMITTED] = committed;
    out[O_BRANCHES] = st_branches;
    out[O_MISPREDICTIONS] = st_mispredictions;
    out[O_BTB_MISSES] = st_btb_misses;
    out[O_DEMAND_L2] = st_demand_l2;
    out[O_PTHREAD_L2] = st_pthread_l2;
    out[O_COVERED_FULL] = st_covered_full;
    out[O_COVERED_PARTIAL] = st_covered_partial;
    out[O_USEFUL] = st_useful;
    out[O_HINTS_USED] = st_hints_used;
    out[O_PINSTS_FETCHED] = st_pinsts_fetched;
    out[O_PINSTS_EXECUTED] = st_pinsts_executed;
    out[O_SPAWNS_ATTEMPTED] = st_spawns_attempted;
    out[O_SPAWNS_STARTED] = st_spawns_started;
    out[O_SPAWNS_DROPPED] = st_spawns_dropped;
    out[O_AC_COMMITTED] = ac_committed;
    out[O_AC_DISP_MAIN] = ac_dispatched_main;
    out[O_AC_DISP_PTH] = ac_dispatched_pth;
    out[O_AC_FETCH_MAIN] = ac_fetch_main;
    out[O_AC_FETCH_PTH] = ac_fetch_pth;
    out[O_AC_BPRED] = ac_bpred;
    out[O_AC_DMEM_MAIN] = ac_dmem_main;
    out[O_AC_DMEM_PTH] = ac_dmem_pth;
    out[O_AC_L2_MAIN] = ac_l2_main;
    out[O_AC_L2_PTH] = ac_l2_pth;
    out[O_AC_ALU_MAIN] = ac_alu_main;
    out[O_AC_ALU_PTH] = ac_alu_pth;
    out[O_BD_MEM] = bd_mem;
    out[O_BD_L2] = bd_l2;
    out[O_BD_EXEC] = bd_exec;
    out[O_BD_COMMIT] = bd_commit;
    out[O_BD_FETCH] = bd_fetch;
    out[O_SL_RETIRE] = sl_retire;
    out[O_SL_FETCH] = sl_fetch;
    out[O_SL_BRANCH] = sl_branch;
    out[O_SL_LOAD] = sl_load;
    out[O_SL_ROB] = sl_rob;
    out[O_SL_RS] = sl_rs;
    out[O_SL_PTH] = sl_pth;
    out[O_SL_EXEC] = sl_exec;
    out[O_STATUS] = status;
    out[O_DEAD_ROB_LEN] = rob_len;
    out[O_DEAD_HEAD_SEQ] = rob_len ? rob[rob_head_i] : -1;
    out[O_DEAD_HEAD_DONE] = rob_len ? completion[rob[rob_head_i]] : NOT_DONE;
    out[O_N_MISSED] = n_missed;
    out[O_N_MISSPC] = n_misspc;
    out[O_N_FA] = n_fa;

    arena_free(&ar);
    return 0;
}
