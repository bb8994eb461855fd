/* C interpreter: the dispatch loop of interpret() in
 * repro/frontend/interpreter.py plus the p-thread body evaluation of
 * _expand_body in repro/ddmt/augment.py.  Both Python functions stay as
 * the pure-Python twins and golden oracle.  Built opportunistically by
 * repro/cpu/nativebuild.py and loaded through ctypes; INTERP_ABI is
 * checked at load time.  repro/frontend/nativeinterp.py drives it.
 *
 * Semantics (bit for bit with the Python interpreter):
 *  - registers and memory words are int64; ADD/SUB/MUL/SHL wrap, shift
 *    counts are b & 63, SHR is logical and SLT signed;
 *  - writes to r0 are discarded (the decoded rd is -1), unwritten
 *    memory reads as 0;
 *  - an address sum regs[rs1] + imm that overflows int64 has no int64
 *    answer: the run stops with ST_OVERFLOW and the caller reruns the
 *    program in Python.  Every other value fits by construction (the
 *    caller only encodes programs whose immediates, data words and
 *    initial registers fit).
 *
 * The trace columns belong to the caller.  The run stops with ST_FULL
 * before executing an instruction that has no column slot left; the
 * caller grows the columns and calls again with the new pointers, and
 * the handle resumes where it stopped.
 *
 * P-thread bodies are compiled by the caller into step rows, grouped by
 * trigger pc.  After an instruction at a trigger pc executes, every body
 * triggered there is evaluated against the current registers and
 * memory and appended to the spawn buffers (owned by the handle, grown
 * by doubling, exported column by column at the end).  Body deps are
 * static per step; live-ins are the spawn-time last writers of the
 * step's checkpoint registers, minus NO_PRODUCER.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INTERP_ABI 1
#define NUM_REGS 32
#define NO_PRODUCER (-1)

/* Dispatch categories (interpreter.py's _C_*). */
enum { C_ALU_IMM, C_ALU_RR, C_LOAD, C_BRANCH, C_STORE, C_LI, C_MOV,
       C_JUMP, C_NOP, C_HALT };

/* Program row, one per static pc. */
enum { P_CAT, P_CODE, P_RD, P_RS1, P_RS2, P_EXT, P_FN, P_W };

/* ALU and branch functions (nativeinterp.py's FN_BY_OP). */
enum { F_ADD, F_SUB, F_AND, F_OR, F_XOR, F_SHL, F_SHR, F_SLT, F_MUL,
       F_LI, F_MOV, F_BEQ, F_BNE, F_BLT, F_BGE };

/* Body row, one per compiled p-thread: steps [lo, hi). */
enum { B_POS, B_STATIC, B_STEP_LO, B_STEP_HI, B_W };

/* Step row.  Operands are (mode, value) pairs. */
enum { S_KIND, S_FN, S_AMODE, S_AVAL, S_BMODE, S_BVAL, S_PKIND, S_TARGET,
       S_DEP_LO, S_DEP_HI, S_LIVE_LO, S_LIVE_HI, S_W };
enum { STEP_ALU, STEP_LOAD, STEP_BRANCH };
enum { M_CONST, M_REG, M_STEP };

/* Exported spawn columns, in order (nativeinterp.py's SPAWN_INT64 and
 * SPAWN_INT8). */
enum { SQ_TRIGGER, SQ_STATIC, SQ_POS, SQ_INST_LO, SQ_INST_HI, SQ_W };
enum { PQ_ADDR, PQ_HINT_SEQ, PQ_DEP_LO, PQ_DEP_HI, PQ_LIVE_LO, PQ_LIVE_HI,
       PQ_W };
enum { PB_KIND, PB_HINT_TAKEN, PB_TARGET, PB_W };

enum { ST_HALT, ST_LIMIT, ST_FULL, ST_BAD_PC, ST_NEG_LOAD, ST_NEG_STORE,
       ST_OVERFLOW, ST_NOMEM };

typedef struct {
    int64_t *a;
    int64_t n, cap; /* in int64 items */
} Vec;

typedef struct {
    uint8_t *a;
    int64_t n, cap;
} Bytes;

typedef struct {
    int64_t *keys, *vals; /* keys[i] == MEM_EMPTY: free slot */
    int64_t n, mask;
    int shift;
} Mem;

typedef struct {
    const int64_t *prog;
    int64_t n_static, max_insts;
    int64_t regs[NUM_REGS], lw[NUM_REGS];
    int64_t pc, seq;
    Mem mem;
    /* compiled bodies: trig_off[pc]..trig_off[pc + 1] index bodies */
    const int64_t *trig_off, *bodies, *steps, *dep_tab, *live_tab;
    int64_t *vals;
    Vec sp, pq, dep, live;
    Bytes pb;
} Interp;

int64_t repro_interp_abi(void) { return INTERP_ABI; }

/* ------------------------------------------------------------------ */
/* Growable buffers.                                                   */
/* ------------------------------------------------------------------ */

static int vec_reserve(Vec *v, int64_t extra)
{
    int64_t cap = v->cap ? v->cap : 1024;
    int64_t *grown;
    if (v->n + extra <= v->cap)
        return 0;
    while (cap < v->n + extra)
        cap *= 2;
    grown = realloc(v->a, (size_t)cap * sizeof(int64_t));
    if (grown == NULL)
        return -1;
    v->a = grown;
    v->cap = cap;
    return 0;
}

static int bytes_reserve(Bytes *v, int64_t extra)
{
    int64_t cap = v->cap ? v->cap : 1024;
    uint8_t *grown;
    if (v->n + extra <= v->cap)
        return 0;
    while (cap < v->n + extra)
        cap *= 2;
    grown = realloc(v->a, (size_t)cap);
    if (grown == NULL)
        return -1;
    v->a = grown;
    v->cap = cap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Memory: open addressing on word addresses, load <= 3/4.  Only       */
/* aligned, non-negative addresses are ever read or written, so the    */
/* data image's other keys are unobservable and dropped, and -1 can    */
/* mark a free slot.                                                   */
/* ------------------------------------------------------------------ */

#define MEM_EMPTY (-1)

static int64_t mem_slot(const Mem *m, int64_t key)
{
    int64_t i = (int64_t)(((uint64_t)key * 0x9E3779B97F4A7C15ull) >> m->shift);
    while (m->keys[i] != MEM_EMPTY && m->keys[i] != key)
        i = (i + 1) & m->mask;
    return i;
}

/* Room for min_items keys at load <= 3/4. */
static int mem_alloc(Mem *m, int64_t min_items)
{
    int64_t cap = 1024;
    int shift = 64 - 10;
    while (3 * cap < 4 * min_items) {
        cap *= 2;
        shift--;
    }
    m->keys = malloc((size_t)cap * sizeof(int64_t));
    m->vals = malloc((size_t)cap * sizeof(int64_t));
    m->n = 0;
    m->mask = cap - 1;
    m->shift = shift;
    if (m->keys == NULL || m->vals == NULL)
        return -1;
    memset(m->keys, 0xff, (size_t)cap * sizeof(int64_t)); /* MEM_EMPTY */
    return 0;
}

static void mem_free(Mem *m)
{
    free(m->keys);
    free(m->vals);
    m->keys = m->vals = NULL;
}

static int mem_put(Mem *m, int64_t key, int64_t val);

static int mem_grow(Mem *m)
{
    Mem old = *m;
    int64_t i;
    if (mem_alloc(m, old.mask + 1) != 0) {
        mem_free(m);
        *m = old;
        return -1;
    }
    for (i = 0; i <= old.mask; i++) {
        if (old.keys[i] != MEM_EMPTY)
            mem_put(m, old.keys[i], old.vals[i]);
    }
    mem_free(&old);
    return 0;
}

static int mem_put(Mem *m, int64_t key, int64_t val)
{
    int64_t i = mem_slot(m, key);
    if (m->keys[i] == MEM_EMPTY) {
        if (4 * (m->n + 1) > 3 * (m->mask + 1)) {
            if (mem_grow(m) != 0)
                return -1;
            i = mem_slot(m, key);
        }
        m->keys[i] = key;
        m->n++;
    }
    m->vals[i] = val;
    return 0;
}

static int64_t mem_get(const Mem *m, int64_t key)
{
    int64_t i = mem_slot(m, key);
    return m->keys[i] == MEM_EMPTY ? 0 : m->vals[i];
}

/* ------------------------------------------------------------------ */
/* Semantics.                                                          */
/* ------------------------------------------------------------------ */

static int64_t alu(int64_t fn, int64_t a, int64_t b)
{
    const uint64_t ua = (uint64_t)a, ub = (uint64_t)b;
    switch (fn) {
    case F_ADD: return (int64_t)(ua + ub);
    case F_SUB: return (int64_t)(ua - ub);
    case F_AND: return a & b;
    case F_OR: return a | b;
    case F_XOR: return a ^ b;
    case F_SHL: return (int64_t)(ua << (ub & 63));
    case F_SHR: return (int64_t)(ua >> (ub & 63));
    case F_SLT: return a < b;
    case F_MUL: return (int64_t)(ua * ub);
    case F_LI: return b;
    default: return a; /* F_MOV */
    }
}

static int branch(int64_t fn, int64_t a, int64_t b)
{
    switch (fn) {
    case F_BEQ: return a == b;
    case F_BNE: return a != b;
    case F_BLT: return a < b;
    default: return a >= b; /* F_BGE */
    }
}

/* ------------------------------------------------------------------ */
/* Handle lifecycle.                                                   */
/* ------------------------------------------------------------------ */

void repro_interp_free(void *handle)
{
    Interp *h = handle;
    if (h == NULL)
        return;
    mem_free(&h->mem);
    free(h->vals);
    free(h->sp.a);
    free(h->pq.a);
    free(h->dep.a);
    free(h->live.a);
    free(h->pb.a);
    free(h);
}

/* trig_off == NULL: no p-thread bodies.  All arrays stay owned by the
 * caller; regs and the data image are copied, the program and body
 * tables must outlive the handle. */
void *repro_interp_new(
    const int64_t *prog, int64_t n_static, int64_t entry, int64_t max_insts,
    const int64_t *regs, const int64_t *data_keys, const int64_t *data_vals,
    int64_t n_data, const int64_t *trig_off, const int64_t *bodies,
    const int64_t *steps, const int64_t *dep_tab, const int64_t *live_tab,
    int64_t max_body)
{
    Interp *h = calloc(1, sizeof(Interp));
    int64_t i;
    if (h == NULL)
        return NULL;
    h->prog = prog;
    h->n_static = n_static;
    h->max_insts = max_insts;
    h->pc = entry;
    for (i = 0; i < NUM_REGS; i++) {
        h->regs[i] = regs[i];
        h->lw[i] = NO_PRODUCER;
    }
    if (mem_alloc(&h->mem, n_data) != 0)
        goto fail;
    for (i = 0; i < n_data; i++) {
        if (data_keys[i] < 0 || (data_keys[i] & 7))
            continue;
        if (mem_put(&h->mem, data_keys[i], data_vals[i]) != 0)
            goto fail;
    }
    h->trig_off = trig_off;
    h->bodies = bodies;
    h->steps = steps;
    h->dep_tab = dep_tab;
    h->live_tab = live_tab;
    if (trig_off != NULL) {
        h->vals = calloc((size_t)(max_body > 0 ? max_body : 1),
                         sizeof(int64_t));
        if (h->vals == NULL)
            goto fail;
    }
    return h;
fail:
    repro_interp_free(h);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Spawn expansion (_expand_body).                                     */
/* ------------------------------------------------------------------ */

static int64_t operand(const Interp *h, int64_t mode, int64_t val)
{
    if (mode == M_REG)
        return h->regs[val];
    if (mode == M_STEP)
        return h->vals[val];
    return val;
}

static int expand(Interp *h, int64_t pc, int64_t seq)
{
    int64_t b;
    for (b = h->trig_off[pc]; b < h->trig_off[pc + 1]; b++) {
        const int64_t *body = h->bodies + b * B_W;
        const int64_t lo = body[B_STEP_LO], hi = body[B_STEP_HI];
        int64_t s, *sp;
        if (vec_reserve(&h->sp, SQ_W) || vec_reserve(&h->pq, PQ_W * (hi - lo))
            || bytes_reserve(&h->pb, PB_W * (hi - lo)))
            return ST_NOMEM;
        sp = h->sp.a + h->sp.n;
        h->sp.n += SQ_W;
        sp[SQ_TRIGGER] = seq;
        sp[SQ_STATIC] = body[B_STATIC];
        sp[SQ_POS] = body[B_POS];
        sp[SQ_INST_LO] = h->pq.n / PQ_W;
        for (s = lo; s < hi; s++) {
            const int64_t *st = h->steps + s * S_W;
            const int64_t a = operand(h, st[S_AMODE], st[S_AVAL]);
            const int64_t bv = operand(h, st[S_BMODE], st[S_BVAL]);
            int64_t *pq = h->pq.a + h->pq.n;
            uint8_t *pb = h->pb.a + h->pb.n;
            int64_t value = 0, addr = -1, i;
            int taken = 0;
            if (st[S_KIND] == STEP_LOAD) {
                if (__builtin_add_overflow(a, bv, &addr))
                    return ST_OVERFLOW;
                addr &= ~(int64_t)7;
                if (addr >= 0)
                    value = mem_get(&h->mem, addr);
                else
                    addr = 0;
            } else if (st[S_KIND] == STEP_BRANCH) {
                taken = branch(st[S_FN], a, bv);
            } else {
                value = alu(st[S_FN], a, bv);
            }
            h->vals[s - lo] = value;
            if (vec_reserve(&h->dep, st[S_DEP_HI] - st[S_DEP_LO])
                || vec_reserve(&h->live, st[S_LIVE_HI] - st[S_LIVE_LO]))
                return ST_NOMEM;
            pq[PQ_ADDR] = addr;
            pq[PQ_HINT_SEQ] = -1;
            pq[PQ_DEP_LO] = h->dep.n;
            for (i = st[S_DEP_LO]; i < st[S_DEP_HI]; i++)
                h->dep.a[h->dep.n++] = h->dep_tab[i];
            pq[PQ_DEP_HI] = h->dep.n;
            pq[PQ_LIVE_LO] = h->live.n;
            for (i = st[S_LIVE_LO]; i < st[S_LIVE_HI]; i++) {
                const int64_t producer = h->lw[h->live_tab[i]];
                if (producer != NO_PRODUCER)
                    h->live.a[h->live.n++] = producer;
            }
            pq[PQ_LIVE_HI] = h->live.n;
            pb[PB_KIND] = (uint8_t)st[S_PKIND];
            pb[PB_HINT_TAKEN] = (uint8_t)taken;
            pb[PB_TARGET] = (uint8_t)st[S_TARGET];
            h->pq.n += PQ_W;
            h->pb.n += PB_W;
        }
        sp[SQ_INST_HI] = h->pq.n / PQ_W;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* The dispatch loop.                                                  */
/* ------------------------------------------------------------------ */

/* Runs until halt, the instruction limit, a full column (ST_FULL) or an
 * error.  info[0] = instructions in the columns, info[1] = the faulting
 * pc. */
int repro_interp_run(
    void *handle, int64_t *pc_col, int8_t *op_col, int64_t *src1_col,
    int64_t *src2_col, int64_t *addr_col, int8_t *taken_col,
    int64_t *next_col, int64_t cap, int64_t *info)
{
    Interp *h = handle;
    int64_t *regs = h->regs, *lw = h->lw;
    const int64_t n_static = h->n_static;
    int64_t pc = h->pc, seq = h->seq;
    int status = ST_LIMIT;

    while (seq < h->max_insts) {
        const int64_t *row;
        int64_t rd, rs1, rs2, ext, next_pc, src1 = -1, src2 = -1;
        int64_t addr = -1;
        int taken = 0, halted = 0;
        if (pc < 0 || pc >= n_static) {
            status = ST_BAD_PC;
            break;
        }
        if (seq == cap) {
            status = ST_FULL;
            break;
        }
        row = h->prog + pc * P_W;
        rd = row[P_RD];
        rs1 = row[P_RS1];
        rs2 = row[P_RS2];
        ext = row[P_EXT];
        next_pc = pc + 1;
        switch (row[P_CAT]) {
        case C_ALU_IMM:
            src1 = lw[rs1];
            if (rd >= 0) {
                regs[rd] = alu(row[P_FN], regs[rs1], ext);
                lw[rd] = seq;
            }
            break;
        case C_ALU_RR:
            src1 = lw[rs1];
            src2 = lw[rs2];
            if (rd >= 0) {
                regs[rd] = alu(row[P_FN], regs[rs1], regs[rs2]);
                lw[rd] = seq;
            }
            break;
        case C_LOAD:
            if (__builtin_add_overflow(regs[rs1], ext, &addr)) {
                status = ST_OVERFLOW;
                goto out;
            }
            addr &= ~(int64_t)7;
            if (addr < 0) {
                status = ST_NEG_LOAD;
                goto out;
            }
            src1 = lw[rs1];
            if (rd >= 0) {
                regs[rd] = mem_get(&h->mem, addr);
                lw[rd] = seq;
            }
            break;
        case C_BRANCH:
            src1 = lw[rs1];
            src2 = lw[rs2];
            if (branch(row[P_FN], regs[rs1], regs[rs2])) {
                taken = 1;
                next_pc = ext;
            }
            break;
        case C_STORE:
            if (__builtin_add_overflow(regs[rs1], ext, &addr)) {
                status = ST_OVERFLOW;
                goto out;
            }
            addr &= ~(int64_t)7;
            if (addr < 0) {
                status = ST_NEG_STORE;
                goto out;
            }
            src1 = lw[rs1];
            src2 = lw[rs2];
            if (mem_put(&h->mem, addr, regs[rs2]) != 0) {
                status = ST_NOMEM;
                goto out;
            }
            break;
        case C_LI:
            if (rd >= 0) {
                regs[rd] = ext;
                lw[rd] = seq;
            }
            break;
        case C_MOV:
            src1 = lw[rs1];
            if (rd >= 0) {
                regs[rd] = regs[rs1];
                lw[rd] = seq;
            }
            break;
        case C_JUMP:
            taken = 1;
            next_pc = ext;
            break;
        case C_NOP:
            break;
        default: /* C_HALT */
            halted = 1;
        }
        pc_col[seq] = pc;
        op_col[seq] = (int8_t)row[P_CODE];
        src1_col[seq] = src1;
        src2_col[seq] = src2;
        addr_col[seq] = addr;
        taken_col[seq] = (int8_t)taken;
        next_col[seq] = next_pc;
        seq++;
        if (h->trig_off != NULL && h->trig_off[pc] < h->trig_off[pc + 1]) {
            const int rc = expand(h, pc, seq - 1);
            if (rc >= 0) {
                status = rc;
                goto out;
            }
        }
        if (halted) {
            status = ST_HALT;
            break;
        }
        pc = next_pc;
    }
out:
    h->pc = pc;
    h->seq = seq;
    info[0] = seq;
    info[1] = pc;
    return status;
}

/* ------------------------------------------------------------------ */
/* Spawn export.                                                       */
/* ------------------------------------------------------------------ */

/* info[0..3] = spawns, p-insts, deps, live-ins. */
void repro_interp_spawn_counts(void *handle, int64_t *info)
{
    const Interp *h = handle;
    info[0] = h->sp.n / SQ_W;
    info[1] = h->pq.n / PQ_W;
    info[2] = h->dep.n;
    info[3] = h->live.n;
}

/* Column by column into caller arrays sized by repro_interp_spawn_counts:
 * q[0..SQ_W) spawn columns, q[SQ_W..SQ_W+PQ_W) p-inst int64 columns,
 * then dep and live; b[0..PB_W) p-inst byte columns. */
void repro_interp_spawn_export(void *handle, int64_t **q, int8_t **b)
{
    const Interp *h = handle;
    const int64_t n_sp = h->sp.n / SQ_W, n_pi = h->pq.n / PQ_W;
    int64_t i, c;
    for (c = 0; c < SQ_W; c++)
        for (i = 0; i < n_sp; i++)
            q[c][i] = h->sp.a[i * SQ_W + c];
    for (c = 0; c < PQ_W; c++)
        for (i = 0; i < n_pi; i++)
            q[SQ_W + c][i] = h->pq.a[i * PQ_W + c];
    for (c = 0; c < PB_W; c++)
        for (i = 0; i < n_pi; i++)
            b[c][i] = (int8_t)h->pb.a[i * PB_W + c];
    if (h->dep.n)
        memcpy(q[SQ_W + PQ_W], h->dep.a, (size_t)h->dep.n * sizeof(int64_t));
    if (h->live.n)
        memcpy(q[SQ_W + PQ_W + 1], h->live.a,
               (size_t)h->live.n * sizeof(int64_t));
}
