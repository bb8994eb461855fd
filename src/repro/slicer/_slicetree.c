/* C slice-tree miner: the per-occurrence loop of build_slice_tree in
 * repro/slicer/slicetree.py, which stays as the pure-Python twin and
 * golden oracle.  Built opportunistically by repro/cpu/nativebuild.py
 * and loaded through ctypes; SLICETREE_ABI is checked at load time.
 *
 * Inputs are the sealed trace columns pc/src1/src2 (read in place), the
 * root's ascending occurrence seqs, and one event flag per occurrence.
 * Every producer seq is NO_PRODUCER (-1) or smaller than its consumer.
 *
 * Per occurrence seq (index r):
 *  - the backward slice is the max_insts largest members of seq's
 *    producer closure inside [seq - window, seq].  Because producers
 *    precede consumers, scanning seqs in descending order and visiting
 *    each seq that an already visited member marked as its producer
 *    yields exactly the Python worklist's order.  Marks live in a window-relative stamp
 *    array (index seq - s, stamp r + 1), so nothing is cleared between
 *    occurrences, and the scan stops once no marked seq is pending;
 *  - the slice (minus seq itself) is inserted as a root-to-leaf path
 *    into a node table whose siblings are linked in first-seen order,
 *    the Python children dicts' insertion order;
 *  - each path node accumulates count/distance/root-gap sums.  The gap
 *    needs bisect_right(occ, s), which only falls as s descends within
 *    one slice, so a monotone pointer replaces the binary search.
 *
 * The node table grows by doubling with the nodes actually created;
 * export writes it column-major, nodes in creation order (a parent
 * always precedes its children).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SLICETREE_ABI 1

/* Exported columns, in order (must match slicetree.py's _NODE_FIELDS). */
enum {
    F_PC, F_PARENT, F_DEPTH, F_COUNT_TOTAL, F_COUNT_MISS, F_SUM_DISTANCE,
    F_SUM_DISTANCE_MISS, F_SUM_ROOT_GAP, F_LEN
};

enum { RC_OK = 0, RC_NOMEM = 1, RC_BADINPUT = 2 };

typedef struct {
    int64_t pc, parent, depth;
    int64_t first_child, last_child, next_sibling;
    int64_t count_total, count_miss;
    int64_t sum_distance, sum_distance_miss, sum_root_gap;
} Node;

typedef struct {
    Node *nodes;
    int64_t n, cap;
} Tree;

int64_t repro_slicetree_abi(void) { return SLICETREE_ABI; }

/* Child of `parent` with static pc `pc`, created (as the last sibling)
 * if absent; -1 when the table cannot grow. */
static int64_t child_of(Tree *t, int64_t parent, int64_t pc)
{
    int64_t c;
    for (c = t->nodes[parent].first_child; c >= 0;
         c = t->nodes[c].next_sibling) {
        if (t->nodes[c].pc == pc)
            return c;
    }
    if (t->n == t->cap) {
        int64_t cap = 2 * t->cap;
        Node *grown = realloc(t->nodes, (size_t)cap * sizeof(Node));
        if (grown == NULL)
            return -1;
        t->nodes = grown;
        t->cap = cap;
    }
    c = t->n++;
    memset(&t->nodes[c], 0, sizeof(Node));
    t->nodes[c].pc = pc;
    t->nodes[c].parent = parent;
    t->nodes[c].depth = t->nodes[parent].depth + 1;
    t->nodes[c].first_child = -1;
    t->nodes[c].last_child = -1;
    t->nodes[c].next_sibling = -1;
    if (t->nodes[parent].last_child < 0)
        t->nodes[parent].first_child = c;
    else
        t->nodes[t->nodes[parent].last_child].next_sibling = c;
    t->nodes[parent].last_child = c;
    return c;
}

void repro_slicetree_free(void *handle)
{
    Tree *t = handle;
    if (t != NULL) {
        free(t->nodes);
        free(t);
    }
}

int repro_slicetree_mine(
    const int64_t *pc, const int64_t *src1, const int64_t *src2,
    int64_t n_trace, const int64_t *occ, const uint8_t *missed,
    int64_t n_occ, int64_t window, int64_t max_insts, void **handle_out)
{
    Tree *t;
    int64_t *stamp = NULL;
    int64_t span, r;

    *handle_out = NULL;
    for (r = 0; r < n_occ; r++) {
        if (occ[r] < 0 || occ[r] >= n_trace || (r && occ[r] <= occ[r - 1]))
            return RC_BADINPUT;
    }
    t = calloc(1, sizeof(Tree));
    if (t == NULL)
        return RC_NOMEM;
    t->cap = 256;
    t->nodes = malloc((size_t)t->cap * sizeof(Node));
    if (t->nodes == NULL) {
        free(t);
        return RC_NOMEM;
    }
    memset(&t->nodes[0], 0, sizeof(Node));
    t->nodes[0].pc = n_occ ? pc[occ[0]] : 0;
    t->nodes[0].parent = -1;
    t->nodes[0].first_child = -1;
    t->nodes[0].last_child = -1;
    t->nodes[0].next_sibling = -1;
    t->n = 1;

    /* seq - s never exceeds min(window, n_trace - 1). */
    span = window < n_trace ? window : n_trace;
    if (span > 0 && max_insts > 1) {
        stamp = calloc((size_t)span + 1, sizeof(int64_t));
        if (stamp == NULL) {
            repro_slicetree_free(t);
            return RC_NOMEM;
        }
    }

    for (r = 0; r < n_occ; r++) {
        const int64_t seq = occ[r];
        const int miss = missed[r] != 0;
        const int64_t mark = r + 1;
        int64_t lo, s, node, gap_ptr, taken, pending;

        t->nodes[0].count_total++;
        if (miss)
            t->nodes[0].count_miss++;
        if (stamp == NULL)
            continue;

        lo = seq - window > 0 ? seq - window : 0;
        pending = 0;
#define MARK(p, consumer)                                             \
        do {                                                          \
            int64_t p_ = (p);                                         \
            if (p_ >= lo && p_ < (consumer) && stamp[seq - p_] != mark) { \
                stamp[seq - p_] = mark;                               \
                pending++;                                            \
            }                                                         \
        } while (0)
        MARK(src1[seq], seq);
        MARK(src2[seq], seq);

        node = 0;
        gap_ptr = r + 1; /* bisect_right(occ, seq) */
        taken = 1;       /* seq itself */
        for (s = seq - 1; pending > 0 && s >= lo; s--) {
            int64_t child, distance;
            if (stamp[seq - s] != mark)
                continue;
            pending--;
            while (gap_ptr > 0 && occ[gap_ptr - 1] > s)
                gap_ptr--;
            child = child_of(t, node, pc[s]);
            if (child < 0) {
                free(stamp);
                repro_slicetree_free(t);
                return RC_NOMEM;
            }
            distance = seq - s;
            t->nodes[child].count_total++;
            t->nodes[child].sum_distance += distance;
            t->nodes[child].sum_root_gap += r - gap_ptr + 1;
            if (miss) {
                t->nodes[child].count_miss++;
                t->nodes[child].sum_distance_miss += distance;
            }
            node = child;
            if (++taken >= max_insts)
                break;
            MARK(src1[s], s);
            MARK(src2[s], s);
        }
#undef MARK
    }
    free(stamp);
    *handle_out = t;
    return RC_OK;
}

int64_t repro_slicetree_nodes(void *handle)
{
    return ((Tree *)handle)->n;
}

void repro_slicetree_export(void *handle, int64_t *out)
{
    const Tree *t = handle;
    const int64_t n = t->n;
    int64_t i;
    for (i = 0; i < n; i++) {
        const Node *nd = &t->nodes[i];
        out[F_PC * n + i] = nd->pc;
        out[F_PARENT * n + i] = nd->parent;
        out[F_DEPTH * n + i] = nd->depth;
        out[F_COUNT_TOTAL * n + i] = nd->count_total;
        out[F_COUNT_MISS * n + i] = nd->count_miss;
        out[F_SUM_DISTANCE * n + i] = nd->sum_distance;
        out[F_SUM_DISTANCE_MISS * n + i] = nd->sum_distance_miss;
        out[F_SUM_ROOT_GAP * n + i] = nd->sum_root_gap;
    }
}
