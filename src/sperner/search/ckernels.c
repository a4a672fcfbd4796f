/*
 * Compiled search kernels, in plain C99 with no Python headers.
 *
 * Mirrors _kernels_py.py: same RNG draws in the same order, same
 * placements, same float expressions, same tie-breaks, values and node
 * counts.  A fixed seed therefore produces identical trajectories on
 * either backend; the tests rely on it.  Both DFS kernels check their
 * deadline every 4096 nodes, both annealers before every step.  Both
 * annealers skip work whose result is already known, by two rules.  A
 * removal only marks its family stale, and one refresh at the top of a
 * fill, the only reader of the comparable sets, recloses each stale
 * family; a recolor grows its component by whole closures and marks the
 * receiving family stale before its adds.  A fill walks only the open
 * masks, those near at most one family, since a mask near two stays
 * unplaceable while the fill only adds.  Every step starts from a fill's
 * maximal labeling (a rejected move restores the one it began from),
 * whose unlabeled masks are all near two families, so the add move only
 * makes the draw that would pick its mask.  The pool's labelings must be
 * cross-Sperner, so each start is too and its support is not empty: the
 * remove, move and recolor moves draw their member once, and as it is
 * near no family but its own, the move to another family tests it before
 * it acts.  The annealer places the proper masks of its ground,
 * 1..2**n - 2, since a cross-Sperner tuple of k >= 2 families holds
 * neither the empty set nor the whole ground.  It packs each family
 * bitset into max(1, 2**n / 64) 64-bit words, so it serves every ground
 * up to the package-wide MAX_GROUND.  A chain allocates 4(k + 1) + 8
 * such bitsets, a shuffle order of 2**n - 2 ints and two labelings of
 * 2**n bytes, 9.4 MB at n = 20 for k = 3.  Its values are exact unsigned
 * integers in VALUE_LIMBS 32-bit limbs, wide enough for every product of
 * up to ANNEAL_MAX_K counts, so it takes both measures at every (n, k).
 *
 * The exact DFS keeps each depth's pin row, the labels that earlier
 * choices force on later masks, as 64-bit words: one of free masks, one
 * of dead masks and one of the masks pinned to each opened family.  A
 * node counts its remaining masks with two popcounts, and a child is a
 * few word operations per family.  A mask pinned to a family can only
 * ever join that family, so the product bound gives each family its count
 * plus one popcount of its pin row, sorts those k potentials and
 * waterfills only the free masks onto them.  Each call sorts the mask
 * indices by mask once; a leaf reads its canonical key off that order and
 * takes the labeling when its value is higher, or equal with a smaller key.
 *
 * GCC on x86-64 with glibc builds the popcount loops, the DFS, the pair
 * scan and the annealer's, twice, with and without the POPCNT
 * instruction, and the loader picks one for the CPU; other compilers and
 * targets build them once, in plain C99.
 *
 * The upset kernel runs the pure kernel's DFS over the upsets of P([n]),
 * n <= 6, one 64-bit word each, and keeps the first upset of each S_n
 * orbit by the lex-leader rule (Crawford, Ginsberg, Luks and Roy, KR
 * 1996): an upset comes first when no permutation of the ground set
 * raises its key, so the test needs no memory of earlier upsets.
 *
 * The library exports four functions, sperner_upset_orbits,
 * sperner_comp_scan, sperner_exact_search and sperner_anneal_chain.
 * _clib.py binds them with ctypes and, before each call, checks every
 * argument that sizes or indexes a buffer; the kernels trust them.
 * Deadlines arrive as seconds left, measured on this file's own
 * monotonic clock.  Build with `python setup.py build_ext --inplace`.
 * Compile in a standard mode (-std=c99): GCC then keeps floating-point
 * expressions uncontracted, as the pure kernels evaluate them.
 */

#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define MAX_GROUND 20 /* lattice.MAX_GROUND */
#define ANNEAL_MAX_K 255 /* labels are bytes */
/* counts stay below 2**MAX_GROUND, so a product of ANNEAL_MAX_K of them
 * stays below 2**5100: 160 limbs of 32 bits */
#define VALUE_LIMBS 160

/* a rare call that, inlined, slowed GCC's code for the annealer's loop */
#ifdef __GNUC__
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

/* target_clones needs GCC 6 and the loader's indirect functions */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 6 \
    && defined(__x86_64__) && defined(__GLIBC__)
#define POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define POPCNT_CLONES
#endif

static const int64_t INF = (int64_t)1 << 60;

static double mono(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

static double deadline_of(int timed, double time_left)
{
    return timed ? mono() + time_left : 0.0;
}

static int popcount64(uint64_t x)
{
#if defined(__GNUC__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    while (x) {
        x &= x - 1;
        c++;
    }
    return c;
#endif
}

/* index of the lowest set bit; x must be non-zero */
static int lowest_bit(uint64_t x)
{
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    int c = 0;
    while (!(x & 1)) {
        x >>= 1;
        c++;
    }
    return c;
#endif
}

/* -- splitmix64, bit for bit as in the pure kernels ----------------------- */

static uint64_t sm64(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Lemire multiply-shift: the high word of the 128-bit product z * bound */
static uint64_t rand_below(uint64_t *state, uint64_t bound)
{
    uint64_t z = sm64(state);
    uint64_t zl = z & 0xFFFFFFFFu, zh = z >> 32;
    uint64_t bl = bound & 0xFFFFFFFFu, bh = bound >> 32;
    uint64_t ll = zl * bl, lh = zl * bh, hl = zh * bl, hh = zh * bh;
    uint64_t mid = (ll >> 32) + (lh & 0xFFFFFFFFu) + (hl & 0xFFFFFFFFu);
    return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

static double rand_unit(uint64_t *state)
{
    return (sm64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* -- upsets of P([n]) and their S_n orbits -------------------------------- */

/* a family of subsets of [n] fits one 64-bit word for n <= 6, and Heap's
 * algorithm walks S_6 in 6! - 1 transpositions */
#define UPSET_MAX_GROUND 6
#define MAX_SWAPS 719

typedef struct {
    int n;
    int total;
    int order[64];     /* masks by descending popcount, then ascending */
    uint64_t need[64]; /* the immediate supersets of order[i] */
    uint64_t level[UPSET_MAX_GROUND + 1]; /* the masks of each popcount */
    int n_swaps;
    uint64_t moved[MAX_SWAPS]; /* swap (a, b): the masks with a and not b */
    int delta[MAX_SWAPS];      /* swap (a, b): 2**b - 2**a */
    int64_t cap;
    uint64_t *ups;
    int64_t *firsts;
    int64_t count;
    int64_t n_firsts;
} Upsets;

/* Whether u comes first in its S_n orbit.  The DFS yields upsets in
 * descending order of their key, the bits read in `order`, so u comes
 * first when no image has a larger key.  Images share u's count on each
 * level, so the first level, from the top, where one differs from u
 * decides, and in it the lowest differing mask.  Heap's delta swaps walk
 * every image, and the walk stops at the first larger one. */
static int orbit_first(const Upsets *s, uint64_t u)
{
    uint64_t v = u, x, d;
    int i, r;
    for (i = 0; i < s->n_swaps; i++) {
        x = ((v >> s->delta[i]) ^ v) & s->moved[i];
        v ^= x ^ (x << s->delta[i]);
        for (r = s->n; r >= 0; r--) {
            d = (u ^ v) & s->level[r];
            if (d) {
                if (v & d & (~d + 1))
                    return 0;
                break;
            }
        }
    }
    return 1;
}

/* the include-first DFS over order from index i */
static void upsets_from(Upsets *s, int i, uint64_t bits)
{
    /* masks missing an immediate superset can only be left out */
    while (i < s->total && (bits & s->need[i]) != s->need[i])
        i++;
    if (i == s->total) {
        if (s->count < s->cap)
            s->ups[s->count] = bits;
        if (orbit_first(s, bits)) {
            if (s->count < s->cap)
                s->firsts[s->n_firsts] = s->count;
            s->n_firsts++;
        }
        s->count++;
        return;
    }
    upsets_from(s, i + 1, bits | (uint64_t)1 << s->order[i]);
    upsets_from(s, i + 1, bits);
}

/* Every upset of P([n]), n <= UPSET_MAX_GROUND, in the pure kernel's
 * order, and the ascending indices of the first upset of each S_n orbit.
 * The first cap upsets go to ups, and the indices among them to firsts,
 * which holds cap too.  Returns the number of upsets and sets *n_firsts
 * to the number of orbits. */
int64_t sperner_upset_orbits(int n, int64_t cap, uint64_t *ups, int64_t *firsts,
                             int64_t *n_firsts)
{
    Upsets s;
    int pc[64], c[UPSET_MAX_GROUND] = {0};
    int m, r, i, a, b, k = 0;
    memset(&s, 0, sizeof(s));
    s.n = n;
    s.total = 1 << n;
    /* popcounts by recurrence, so that no popcount call sits outside a
     * POPCNT clone */
    pc[0] = 0;
    for (m = 1; m < s.total; m++)
        pc[m] = pc[m >> 1] + (m & 1);
    for (r = n; r >= 0; r--)
        for (m = 0; m < s.total; m++)
            if (pc[m] == r) {
                s.level[r] |= (uint64_t)1 << m;
                s.order[k++] = m;
            }
    for (i = 0; i < s.total; i++)
        for (b = 0; b < n; b++)
            if (!((s.order[i] >> b) & 1))
                s.need[i] |= (uint64_t)1 << (s.order[i] | 1 << b);
    /* Heap's algorithm, transposition by transposition, as _heap_swaps */
    i = 1;
    while (i < n) {
        if (c[i] < i) {
            a = i % 2 == 0 ? 0 : c[i];
            for (m = 0; m < s.total; m++)
                if (((m >> a) & 1) && !((m >> i) & 1))
                    s.moved[s.n_swaps] |= (uint64_t)1 << m;
            s.delta[s.n_swaps++] = (1 << i) - (1 << a);
            c[i]++;
            i = 1;
        } else {
            c[i] = 0;
            i++;
        }
    }
    s.cap = cap;
    s.ups = ups;
    s.firsts = firsts;
    upsets_from(&s, 0, 0);
    *n_firsts = s.n_firsts;
    return s.count;
}

/* -- monotone pair scan --------------------------------------------------- */

/* the scan proper; a clone on the exported function would export its
 * resolver too */
static POPCNT_CLONES void comp_pairs(int64_t n_up, const uint64_t *ups,
                                     const int64_t *usizes, int64_t n_down,
                                     const uint64_t *downs, const int64_t *dsizes,
                                     int64_t *best, int64_t *bu, int64_t *bd)
{
    int64_t i, j, v, su;
    uint64_t u;
    int t;
    for (i = 0; i < n_up; i++) {
        u = ups[i];
        su = usizes[i];
        for (j = 0; j < n_down; j++) {
            t = popcount64(u & downs[j]);
            v = su + dsizes[j] - t;
            if (v < best[t]) {
                best[t] = v;
                bu[t] = i;
                bd[t] = j;
            }
        }
    }
}

/* Per intersection size t in 0..total, the minimum |U| + |D| - t and the
 * first (upset, downset) pair in scan order attaining it. */
void sperner_comp_scan(int64_t n_up, const uint64_t *ups, const int64_t *usizes,
                       int64_t n_down, const uint64_t *downs,
                       const int64_t *dsizes, int total, int64_t *best,
                       int64_t *bu, int64_t *bd)
{
    int t;
    for (t = 0; t <= total; t++) {
        best[t] = INF;
        bu[t] = -1;
        bd[t] = -1;
    }
    comp_pairs(n_up, ups, usizes, n_down, downs, dsizes, best, bu, bd);
}

/* hands out the next count elements of size bytes from *p */
static void *carve(char **p, size_t count, size_t size)
{
    void *out = *p;
    *p += count * size;
    return out;
}

/* -- exact label-assignment DFS ------------------------------------------- */

typedef struct {
    int M;
    int k;
    int product;
    const int64_t *masks;
    const uint64_t *cmp;
    uint8_t *labels;
    /* (M + 1) pin rows of width words, one per depth: word 0 holds the
     * free masks, word 1 the dead ones and word 1 + j those pinned to
     * family j; a row's words partition the masks it has not passed */
    uint64_t *rows;
    int width;
    int64_t *counts; /* counts[1..k]: the members of each family */
    int64_t *pots;   /* k: the product bound's potentials, ascending */
    int *asc;        /* M: the mask indices, by ascending mask */
    int64_t best;
    uint8_t *best_labels;
    int has_labels;
    /* the canonical keys of the best labeling and of a candidate; a
     * leaf that takes the candidate swaps the two buffers */
    int64_t *best_key;
    int best_key_len;
    int64_t *key_buf;
    int64_t nodes;
    int64_t target;
    int64_t node_budget;
    double deadline;
    int aborted;
} Ctx;

/* The canonical key of the current labeling: each family's members
 * ascending, families ordered by least member, -1 between families.  The
 * walk over asc meets each family first at its least member, and at a
 * leaf every family holds one, so k <= M <= 64 and a word marks the
 * families written. */
static int build_key(const Ctx *c, int64_t *out)
{
    int p, q, lab, klen = 0;
    uint64_t done = 0;
    for (p = 0; p < c->M; p++) {
        lab = c->labels[c->asc[p]];
        if (!lab || done >> (lab - 1) & 1)
            continue;
        done |= (uint64_t)1 << (lab - 1);
        if (klen)
            out[klen++] = -1;
        for (q = p; q < c->M; q++)
            if (c->labels[c->asc[q]] == lab)
                out[klen++] = c->masks[c->asc[q]];
    }
    return klen;
}

static int cmp_key(const int64_t *a, int la, const int64_t *b, int lb)
{
    int i, n = la < lb ? la : lb;
    for (i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return la == lb ? 0 : (la < lb ? -1 : 1);
}

/* Max of prod(v_i + x_i) over x >= 0 with sum(x) = units, for the k
 * values v in ascending order: raise the lowest entries first, to a
 * common level of (their sum + units) / cnt, spread as evenly as integers
 * allow. */
static int64_t waterfill(const int64_t *v, int k, int64_t units)
{
    int i, cnt;
    int64_t low, base, r, bound;
    low = v[0]; /* the sum of the cnt lowest values */
    cnt = 1;
    while (cnt < k && v[cnt] * cnt - low <= units)
        low += v[cnt++];
    base = (low + units) / cnt;
    r = (low + units) % cnt;
    bound = 1;
    for (i = 0; i < (int)r; i++)
        bound *= base + 1;
    for (i = 0; i < cnt - (int)r; i++)
        bound *= base;
    for (i = cnt; i < k; i++)
        bound *= v[i];
    return bound;
}

static void leaf(Ctx *c, int used, int64_t cur_sum)
{
    int64_t v, *key;
    int j, klen;
    if (used != c->k)
        return;
    if (c->product) {
        v = 1;
        for (j = 1; j <= c->k; j++)
            v *= c->counts[j];
    } else {
        v = cur_sum;
    }
    if (v < c->best)
        return;
    klen = build_key(c, c->key_buf);
    if (v == c->best && c->has_labels
        && cmp_key(c->key_buf, klen, c->best_key, c->best_key_len) >= 0)
        return;
    c->best = v;
    memcpy(c->best_labels, c->labels, c->M);
    c->has_labels = 1;
    key = c->best_key;
    c->best_key = c->key_buf;
    c->key_buf = key;
    c->best_key_len = klen;
}

/* Node d of the DFS with pin row `row`: each label the row allows for
 * mask d, then leaving it unused. */
static POPCNT_CLONES void rec(Ctx *c, int d, int used, int64_t cur_sum,
                              const uint64_t *row)
{
    int i, j, n_choices, ci, cval, pinned, opened;
    int64_t free_rem, bound, pot;
    uint64_t bit, fwd, take, kill;
    uint64_t *child;
    c->nodes++;
    if (c->aborted || (c->node_budget && c->nodes > c->node_budget)) {
        c->aborted = 1;
        return;
    }
    if (c->target && c->best >= c->target) {
        c->aborted = 1;
        return;
    }
    if (c->deadline && c->nodes % 4096 == 0 && mono() > c->deadline) {
        c->aborted = 1;
        return;
    }
    if (d == c->M) {
        leaf(c, used, cur_sum);
        return;
    }
    free_rem = popcount64(row[0] >> d);
    if (used < c->k && free_rem < c->k - used)
        return;
    if (c->product) {
        /* insertion-sort the potentials; an unopened family's is 0 */
        for (j = 1; j <= c->k; j++) {
            pot = j <= used ? c->counts[j] + popcount64(row[1 + j] >> d) : 0;
            for (i = j - 1; i > 0 && c->pots[i - 1] > pot; i--)
                c->pots[i] = c->pots[i - 1];
            c->pots[i] = pot;
        }
        bound = waterfill(c->pots, c->k, free_rem);
    } else {
        bound = cur_sum + c->M - d - popcount64(row[1] >> d);
    }
    if (bound < c->best)
        return;
    bit = (uint64_t)1 << d;
    pinned = 0;
    if (row[0] & bit)
        n_choices = used < c->k ? used + 1 : c->k;
    else if (row[1] & bit)
        n_choices = 0;
    else {
        for (pinned = 1; !(row[1 + pinned] & bit); pinned++)
            ;
        n_choices = 1;
    }
    fwd = c->cmp[d];
    take = fwd & row[0];
    child = c->rows + (size_t)(d + 1) * c->width;
    for (ci = 0; ci < n_choices; ci++) {
        cval = pinned ? pinned : ci + 1;
        opened = cval > used;
        c->labels[d] = (uint8_t)cval;
        c->counts[cval]++;
        /* comparable later masks: free ones join family cval, those
         * pinned to another family die */
        kill = fwd & ~row[0] & ~row[1] & ~(opened ? 0 : row[1 + cval]);
        child[0] = row[0] & ~fwd;
        child[1] = row[1] | kill;
        for (j = 1; j <= used; j++)
            child[1 + j] = row[1 + j] & ~kill;
        if (opened)
            child[1 + cval] = take;
        else
            child[1 + cval] |= take;
        rec(c, d + 1, used + opened, cur_sum + 1, child);
        c->counts[cval]--;
        if (c->aborted) {
            c->labels[d] = 0;
            return;
        }
    }
    c->labels[d] = 0;
    rec(c, d + 1, used, cur_sum, row);
}

/* Exhaustive search over labelings of the m_count usable masks; see the
 * pure exact_search for the search story.  cmp_fwd[i] holds the later
 * indices comparable to index i, so m_count is at most 64.  Writes the
 * best value, the node count, whether the search ran to completion, and
 * whether labels_out (m_count bytes) holds a witness.  Returns 0, or -1
 * when memory runs out. */
int sperner_exact_search(int m_count, int k, int product, const int64_t *masks,
                         const uint64_t *cmp_fwd, int64_t floor_value,
                         int64_t target, int64_t node_budget, int timed,
                         double time_left, int64_t *best_out,
                         uint8_t *labels_out, int64_t *nodes_out,
                         int *has_labels_out, int *completed_out)
{
    Ctx c;
    int M = m_count, i, j;
    char *block, *p;
    size_t rows = M ? M : 1, fams = k > 0 ? k : 1, keycap = M + fams + 1;
    /* a family opens at a mask, so at most min(k, M) ever open */
    size_t width = 2 + (fams < rows ? fams : rows);
    /* one block, the 64-bit arrays first so that each one stays aligned */
    block = calloc(1, (2 * keycap + 2 * fams + 1) * sizeof(int64_t)
                          + (rows + 1) * width * sizeof(uint64_t)
                          + rows * sizeof(int) + rows);
    if (!block)
        return -1;
    memset(&c, 0, sizeof(c));
    c.M = M;
    c.k = k;
    c.width = (int)width;
    c.product = product;
    c.masks = masks;
    c.cmp = cmp_fwd;
    c.best = floor_value;
    c.target = target;
    c.node_budget = node_budget;
    c.best_labels = labels_out;
    p = block;
    c.counts = carve(&p, fams + 1, sizeof(int64_t));
    c.pots = carve(&p, fams, sizeof(int64_t));
    c.best_key = carve(&p, keycap, sizeof(int64_t));
    c.key_buf = carve(&p, keycap, sizeof(int64_t));
    c.rows = carve(&p, (rows + 1) * width, sizeof(uint64_t));
    c.asc = carve(&p, rows, sizeof(int));
    c.labels = carve(&p, rows, 1);
    for (i = 0; i < M; i++) {
        for (j = i; j > 0 && masks[c.asc[j - 1]] > masks[i]; j--)
            c.asc[j] = c.asc[j - 1];
        c.asc[j] = i;
    }
    c.deadline = deadline_of(timed, time_left);
    c.rows[0] = M ? ~(uint64_t)0 >> (64 - M) : 0; /* every mask free */
    rec(&c, 0, 0, 0, c.rows);
    *best_out = c.best;
    *nodes_out = c.nodes;
    *has_labels_out = c.has_labels;
    *completed_out = !c.aborted;
    free(block);
    return 0;
}

/* -- annealing chain ------------------------------------------------------ */

/* A bitset over the masks of the ground has W = max(1, 2**n / 64) words:
 * mask m is bit m % 64 of word m / 64.  Elements 0..5 of a mask pick its
 * bit inside a word, elements 6 and up pick its word. */

/* in-word positions whose mask has element b, for b < 6 */
static const uint64_t HI[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

static void set_bit(uint64_t *bits, int m)
{
    bits[m >> 6] |= (uint64_t)1 << (m & 63);
}

static void clear_bit(uint64_t *bits, int m)
{
    bits[m >> 6] &= ~((uint64_t)1 << (m & 63));
}

static int count_bits(const uint64_t *bits, int words)
{
    int w, c = 0;
    for (w = 0; w < words; w++)
        c += popcount64(bits[w]);
    return c;
}

/* the least member of bits at or above position from, or -1 */
static int next_member(const uint64_t *bits, int words, int from)
{
    int w = from >> 6;
    uint64_t x;
    if (w >= words)
        return -1;
    x = bits[w] & (~(uint64_t)0 << (from & 63));
    while (!x) {
        if (++w == words)
            return -1;
        x = bits[w];
    }
    return (w << 6) + lowest_bit(x);
}

/* the member of rank idx in ascending order; idx must be below the count */
static int nth_member(const uint64_t *bits, uint64_t idx)
{
    int w = 0;
    uint64_t c, x;
    while ((c = (uint64_t)popcount64(bits[w])) <= idx) {
        idx -= c;
        w++;
    }
    for (x = bits[w]; idx; idx--)
        x &= x - 1;
    return (w << 6) + lowest_bit(x);
}

typedef struct {
    uint8_t *labels;   /* total */
    uint64_t *fams;    /* k + 1 bitsets */
    uint64_t *near;    /* k + 1 bitsets: masks comparable to a member */
    int64_t *counts;   /* k + 1 */
    uint64_t *support; /* one bitset */
    int support_count;
} AnnState;

typedef struct {
    int n;
    int k;
    int total;
    int words;
    int product;
    uint64_t word_mask; /* the positions of a word that hold a mask */
    AnnState cur;
    AnnState snap;
    int n_usable; /* the proper masks 1..total - 2 */
    uint64_t *usable_bits;
    uint8_t *stale; /* k + 1: families whose near awaits refresh */
    int *order; /* n_usable */
    /* scratch bitsets */
    uint64_t *down; /* comparable_to */
    uint64_t *closed; /* component */
    uint64_t *comp; /* component */
    uint64_t *pick; /* the move to another family and the dig-hole move */
    uint64_t *open; /* fill */
} Ann;

static uint64_t *fam_of(const AnnState *s, const Ann *a, int j)
{
    return s->fams + (size_t)j * a->words;
}

static uint64_t *near_of(const AnnState *s, const Ann *a, int j)
{
    return s->near + (size_t)j * a->words;
}

/* out = every mask comparable to a member of bits: the union of both
 * closures.  Element b < 6 shifts bits inside each word; element b >= 6
 * joins each word w that lacks bit b - 6 with word w | 2**(b-6). */
static void comparable_to(const Ann *a, const uint64_t *bits, uint64_t *out)
{
    uint64_t *up = out, *down = a->down, u, d;
    int w, b, s, inner = a->n < 6 ? a->n : 6;
    for (w = 0; w < a->words; w++) {
        u = d = bits[w];
        for (b = 0; b < inner; b++) {
            u |= (u & ~HI[b]) << (1 << b);
            d |= (d & HI[b]) >> (1 << b);
        }
        up[w] = u;
        down[w] = d;
    }
    for (s = 1; s < a->words; s <<= 1)
        for (w = 0; w < a->words; w++)
            if (!(w & s)) {
                up[w | s] |= up[w];
                down[w] |= down[w | s];
            }
    for (w = 0; w < a->words; w++)
        out[w] = up[w] | down[w];
}

/* out |= the masks comparable to m alone, its supersets and its subsets.
 * A mask contains m when its word index contains m's high part and its
 * bit contains m's low part; it lies inside m likewise.  So only the
 * words hi | s, s a submask of the word bits outside hi, and the words
 * s, s a submask of hi, change; each loop walks its submasks down to 0. */
static void or_one(const Ann *a, int m, uint64_t *out)
{
    int lo = m & 63, hi = m >> 6, rest = (a->words - 1) & ~hi, b, s;
    uint64_t sup = a->word_mask, sub = a->word_mask;
    for (b = 0; b < 6; b++) {
        if (lo >> b & 1)
            sup &= HI[b];
        else
            sub &= ~HI[b];
    }
    for (s = rest;; s = (s - 1) & rest) {
        out[hi | s] |= sup;
        if (!s)
            break;
    }
    for (s = hi;; s = (s - 1) & hi) {
        out[s] |= sub;
        if (!s)
            break;
    }
}

static void reclose(Ann *a, int j)
{
    comparable_to(a, fam_of(&a->cur, a, j), near_of(&a->cur, a, j));
}

/* recloses each stale family; runs only at the top of a fill, the one
 * reader of near, so the fill sees near as a function of fams alone */
static void refresh(Ann *a)
{
    int j;
    for (j = 1; j <= a->k; j++)
        if (a->stale[j]) {
            reclose(a, j);
            a->stale[j] = 0;
        }
}

static POPCNT_CLONES void ann_load(Ann *a, const uint8_t *labels)
{
    AnnState *s = &a->cur;
    int m, j;
    memcpy(s->labels, labels, a->total);
    memset(s->fams, 0, (size_t)(a->k + 1) * a->words * sizeof(uint64_t));
    memset(s->counts, 0, (a->k + 1) * sizeof(int64_t));
    memset(s->support, 0, a->words * sizeof(uint64_t));
    for (m = 0; m < a->total; m++) {
        j = labels[m];
        if (j) {
            set_bit(fam_of(s, a, j), m);
            s->counts[j]++;
            set_bit(s->support, m);
        }
    }
    s->support_count = count_bits(s->support, a->words);
    for (j = 1; j <= a->k; j++)
        reclose(a, j);
    memset(a->stale, 0, a->k + 1);
}

static void copy_state(AnnState *dst, const AnnState *src, const Ann *a)
{
    size_t fam_bytes = (size_t)(a->k + 1) * a->words * sizeof(uint64_t);
    memcpy(dst->labels, src->labels, a->total);
    memcpy(dst->fams, src->fams, fam_bytes);
    memcpy(dst->near, src->near, fam_bytes);
    memcpy(dst->counts, src->counts, (a->k + 1) * sizeof(int64_t));
    memcpy(dst->support, src->support, a->words * sizeof(uint64_t));
    dst->support_count = src->support_count;
}

/* back to the snapshot, taken between steps when no family is stale */
static NOINLINE void ann_restore(Ann *a)
{
    copy_state(&a->cur, &a->snap, a);
    memset(a->stale, 0, a->k + 1);
}

/* The placement rule: family j may take the unlabeled mask m exactly when
 * owner(m) is 0 or j.  Returns the only family whose comparable set holds
 * m, 0 when none does and -1 when two or more do. */
static int owner(const Ann *a, int m)
{
    const uint64_t *near = a->cur.near + (m >> 6);
    uint64_t bit = (uint64_t)1 << (m & 63);
    int j, found = 0;
    for (j = 1; j <= a->k; j++) {
        if (near[(size_t)j * a->words] & bit) {
            if (found)
                return -1;
            found = j;
        }
    }
    return found;
}

/* near grows by the masks comparable to m when m joins a family that is
 * not stale */
static void ann_add(Ann *a, int m, int j)
{
    a->cur.labels[m] = (uint8_t)j;
    set_bit(fam_of(&a->cur, a, j), m);
    a->cur.counts[j]++;
    set_bit(a->cur.support, m);
    a->cur.support_count++;
    if (!a->stale[j])
        or_one(a, m, near_of(&a->cur, a, j));
}

static void ann_remove(Ann *a, int m)
{
    int j = a->cur.labels[m];
    a->cur.labels[m] = 0;
    clear_bit(fam_of(&a->cur, a, j), m);
    a->cur.counts[j]--;
    clear_bit(a->cur.support, m);
    a->cur.support_count--;
    a->stale[j] = 1;
}

/* A value in 32-bit limbs, least significant first.  Only the len limbs
 * in use are read; the top one is non-zero, except in 0, whose len is 1. */
typedef struct {
    int len;
    uint32_t limb[VALUE_LIMBS];
} Value;

/* v = the product of the k counts, or the support count for sums */
static void ann_value(const Ann *a, Value *v)
{
    uint64_t carry;
    int i, j;
    v->len = 1;
    v->limb[0] = a->product ? 1 : (uint32_t)a->cur.support_count;
    for (j = 1; a->product && j <= a->k; j++) {
        carry = 0;
        for (i = 0; i < v->len; i++) {
            carry += (uint64_t)v->limb[i] * (uint64_t)a->cur.counts[j];
            v->limb[i] = (uint32_t)carry;
            carry >>= 32;
        }
        if (carry)
            v->limb[v->len++] = (uint32_t)carry;
        else if (!v->limb[v->len - 1]) /* a count of 0 */
            v->len = 1;
    }
}

/* -1, 0 or 1 as x is below, equal to or above y */
static int value_cmp(const Value *x, const Value *y)
{
    int i = x->len;
    if (x->len != y->len)
        return x->len < y->len ? -1 : 1;
    while (i-- > 0)
        if (x->limb[i] != y->limb[i])
            return x->limb[i] < y->limb[i] ? -1 : 1;
    return 0;
}

/* a / b rounded to the nearest double, ties to even, for 0 <= a < b, as
 * the pure kernels' division of Python ints rounds it.  One-limb values
 * convert to double exactly, and IEEE division rounds their quotient so;
 * wider ones would each round above 2**53.  For those, long division gives
 * the quotient's e leading zero bits, then its significant bits (53, or
 * fewer where the quotient is subnormal), a rounding bit and a remainder.
 * A quotient below 2**-1075 rounds to 0. */
static double exact_ratio(const Value *a, const Value *b)
{
    uint32_t r[VALUE_LIMBS + 1]; /* the remainder, below 2b */
    uint64_t q = 0, diff;
    uint32_t carry, top;
    int len = b->len + 1, e = 0, p = 53, got = 0, i, ge, sticky = 0;
    if (b->len == 1)
        return (double)a->limb[0] / (double)b->limb[0];
    memcpy(r, a->limb, a->len * sizeof(uint32_t));
    memset(r + a->len, 0, (len - a->len) * sizeof(uint32_t));
    while (got <= p) {
        for (carry = 0, i = 0; i < len; i++) { /* r *= 2 */
            top = r[i] >> 31;
            r[i] = r[i] << 1 | carry;
            carry = top;
        }
        ge = r[len - 1] != 0; /* r >= b */
        for (i = b->len - 1; !ge && i >= 0 && r[i] == b->limb[i]; i--)
            ;
        ge = ge || i < 0 || r[i] > b->limb[i];
        if (ge) { /* r -= b */
            for (carry = 0, i = 0; i < len; i++) {
                diff = (uint64_t)r[i] - (i < b->len ? b->limb[i] : 0) - carry;
                r[i] = (uint32_t)diff;
                carry = (uint32_t)(diff >> 63);
            }
        } else if (!q) { /* a leading zero */
            if (++e == 1075)
                return 0.0;
            if (1074 - e < p)
                p = 1074 - e;
            continue;
        }
        q = q << 1 | (uint64_t)ge;
        got++;
    }
    for (i = 0; i < len; i++)
        sticky |= r[i] != 0;
    if ((q & 1) && (sticky || (q & 2)))
        q += 2;
    return ldexp((double)(q >> 1), -p - e);
}

/* a->comp = the comparability component of m inside the support */
static void component(Ann *a, int m)
{
    uint64_t grown, more;
    int w;
    memset(a->comp, 0, a->words * sizeof(uint64_t));
    set_bit(a->comp, m);
    do {
        comparable_to(a, a->comp, a->closed);
        for (more = 0, w = 0; w < a->words; w++) {
            grown = a->closed[w] & a->cur.support[w];
            more |= grown & ~a->comp[w];
            a->comp[w] = grown;
        }
    } while (more);
}

/* greedy refill to a maximal labeling, in a freshly shuffled order */
static void fill(Ann *a, uint64_t *state)
{
    int i, m, j, jj, w, pass_no, n_open = 0;
    uint64_t r, once, twice, x;
    refresh(a);
    for (i = 0; i < a->n_usable; i++)
        a->order[i] = i + 1;
    for (i = a->n_usable - 1; i > 0; i--) {
        r = rand_below(state, i + 1);
        m = a->order[i];
        a->order[i] = a->order[r];
        a->order[r] = m;
    }
    /* a mask near two families has owner -1 until the fill ends, since
     * near only grows here; the open masks, usable, unlabeled and near at
     * most one family, keep their shuffled order */
    for (w = 0; w < a->words; w++) {
        once = twice = 0;
        for (j = 1; j <= a->k; j++) {
            x = near_of(&a->cur, a, j)[w];
            twice |= once & x;
            once |= x;
        }
        a->open[w] = a->usable_bits[w] & ~a->cur.support[w] & ~twice;
    }
    for (i = 0; i < a->n_usable; i++) {
        m = a->order[i];
        if (a->open[m >> 6] >> (m & 63) & 1)
            a->order[n_open++] = m;
    }
    /* first pass: only masks one family already owns, so ruined structure
     * snaps back before foreign placements; the second pass gives each
     * unowned mask to the first family with the least count */
    for (pass_no = 0; pass_no < 2; pass_no++) {
        for (i = 0; i < n_open; i++) {
            m = a->order[i];
            if (a->cur.labels[m])
                continue;
            j = owner(a, m);
            if (j == 0 && pass_no == 1) {
                j = 1;
                for (jj = 2; jj <= a->k; jj++)
                    if (a->cur.counts[jj] < a->cur.counts[j])
                        j = jj;
            }
            if (j > 0)
                ann_add(a, m, j);
        }
    }
}

/* a uniformly drawn family other than j */
static int other_family(const Ann *a, uint64_t *state, int j)
{
    int pick = (int)rand_below(state, a->k - 1) + 1;
    return pick + (pick >= j ? 1 : 0);
}

/* stop, if not 0, ends the chain once best reaches it, before the first
 * step if the start does */
static POPCNT_CLONES int64_t ann_run(Ann *a, const uint8_t *variants, int n_var,
                                     uint64_t *state, int64_t steps, double t0,
                                     double alpha, int64_t restart_interval,
                                     const Value *stop, double deadline,
                                     Value *best, uint8_t *best_labels)
{
    Value values[2], *cur = values, *nv = values + 1, *swap;
    int64_t step, done = 0, last_improve = 0;
    double temp = t0, r, u, p_ruin, p;
    int variant_idx = 0, m, j, jj, w, moved, accept;
    const uint64_t *fam;
    ann_load(a, variants);
    fill(a, state);
    ann_value(a, cur);
    *best = *cur;
    memcpy(best_labels, a->cur.labels, a->total);
    if (stop->limb[stop->len - 1] && value_cmp(best, stop) >= 0)
        return 0;
    for (step = 0; step < steps; step++) {
        if (deadline && mono() > deadline)
            break;
        done = step + 1;
        r = rand_unit(state);
        copy_state(&a->snap, &a->cur, a);
        moved = 0;
        if (r < 0.55) { /* remove, move or recolor one member of the support */
            m = nth_member(a->cur.support, rand_below(state, a->cur.support_count));
            j = a->cur.labels[m];
            if (r < 0.20) { /* remove */
                if (a->cur.counts[j] > 1) {
                    ann_remove(a, m);
                    moved = 1;
                }
            } else if (r < 0.40) { /* move to another family */
                if (a->cur.counts[j] > 1) {
                    jj = other_family(a, state, j);
                    /* m may go when no other member of j is comparable to it */
                    memset(a->pick, 0, a->words * sizeof(uint64_t));
                    or_one(a, m, a->pick);
                    clear_bit(a->pick, m);
                    fam = fam_of(&a->cur, a, j);
                    for (w = 0; w < a->words && !(a->pick[w] & fam[w]); w++)
                        ;
                    if (w == a->words) {
                        ann_remove(a, m);
                        ann_add(a, m, jj);
                        moved = 1;
                    }
                }
            } else { /* recolor a whole component */
                component(a, m);
                if (count_bits(a->comp, a->words) < a->cur.counts[j]) {
                    jj = other_family(a, state, j);
                    a->stale[jj] = 1; /* the fill recloses it once */
                    for (m = next_member(a->comp, a->words, 0); m >= 0;
                         m = next_member(a->comp, a->words, m + 1)) {
                        ann_remove(a, m);
                        ann_add(a, m, jj);
                    }
                    moved = 1;
                }
            }
        } else if (r < 0.70) { /* add: only the draw of an unlabeled mask */
            for (w = 0; w < a->words; w++)
                if (a->usable_bits[w] & ~a->cur.support[w]) {
                    sm64(state);
                    break;
                }
        } else if (r < 0.85) { /* ruin a random chunk of the support and rebuild */
            p_ruin = 0.1 + 0.3 * rand_unit(state);
            /* a removal clears only the bit just visited, so walking the
             * live support visits the members it had at the start */
            for (m = next_member(a->cur.support, a->words, 0); m >= 0;
                 m = next_member(a->cur.support, a->words, m + 1)) {
                u = rand_unit(state);
                if (u < p_ruin && a->cur.counts[a->cur.labels[m]] > 1) {
                    ann_remove(a, m);
                    moved = 1;
                }
            }
        } else { /* dig a coordinated hole: drop everything comparable to a pivot */
            memset(a->pick, 0, a->words * sizeof(uint64_t));
            or_one(a, 1 + (int)rand_below(state, a->n_usable), a->pick);
            for (w = 0; w < a->words; w++)
                a->pick[w] &= a->cur.support[w];
            for (m = next_member(a->pick, a->words, 0); m >= 0;
                 m = next_member(a->pick, a->words, m + 1)) {
                if (a->cur.counts[a->cur.labels[m]] > 1) {
                    ann_remove(a, m);
                    moved = 1;
                }
            }
        }
        if (moved) {
            fill(a, state);
            ann_value(a, nv);
            accept = value_cmp(nv, cur) >= 0;
            if (!accept) {
                if (!a->product) /* a sum fits one limb */
                    p = exp(((double)nv->limb[0] - (double)cur->limb[0]) / temp);
                else if (cur->limb[cur->len - 1])
                    p = pow(exact_ratio(nv, cur), 1.0 / temp);
                else
                    p = 0.0;
                accept = rand_unit(state) < p;
            }
            if (accept) {
                swap = cur;
                cur = nv;
                nv = swap;
                if (value_cmp(cur, best) > 0) {
                    *best = *cur;
                    memcpy(best_labels, a->cur.labels, a->total);
                    last_improve = step;
                    if (stop->limb[stop->len - 1] && value_cmp(best, stop) >= 0)
                        break;
                }
            } else {
                ann_restore(a);
            }
        }
        temp *= alpha;
        if (temp < 1e-6)
            temp = 1e-6;
        if (step - last_improve > restart_interval) {
            variant_idx++;
            ann_load(a, variants + (size_t)(variant_idx % n_var) * a->total);
            fill(a, state);
            ann_value(a, cur);
            temp = t0;
            last_improve = step;
        }
    }
    return done;
}

/* One annealing chain, same contract and trajectory as the pure
 * anneal_chain.  variants holds n_var labelings of 2**n bytes each;
 * stop_value and best_out hold VALUE_LIMBS limbs each, least significant
 * first, and a stop value of 0 means none; best_labels receives 2**n
 * bytes and state_out the generator state after the last draw.  Requires
 * 2 <= n <= MAX_GROUND and 2 <= k <= ANNEAL_MAX_K; returns -1 otherwise,
 * or when memory runs out. */
int sperner_anneal_chain(int n, int k, int product, int n_var,
                         const uint8_t *variants, uint64_t seed, int64_t steps,
                         double t0, double alpha, int64_t restart_interval,
                         const uint32_t *stop_value, int timed,
                         double time_left, uint32_t *best_out,
                         uint8_t *best_labels, int64_t *done_out,
                         uint64_t *state_out)
{
    Ann a;
    Value stop, best;
    char *block, *p;
    size_t words, rows;
    int i;
    uint64_t state = seed;
    if (n < 2 || n > MAX_GROUND || k < 2 || k > ANNEAL_MAX_K || n_var < 1)
        return -1;
    memset(&a, 0, sizeof(a));
    a.n = n;
    a.k = k;
    a.total = 1 << n;
    a.words = a.total < 64 ? 1 : a.total >> 6;
    a.word_mask = a.total < 64 ? ((uint64_t)1 << a.total) - 1 : ~(uint64_t)0;
    a.product = product;
    a.n_usable = a.total - 2;
    /* one block, widest elements first so that each array stays aligned */
    words = a.words;
    rows = (size_t)(k + 1) * words;
    block = calloc(1, (4 * rows + 8 * words) * sizeof(uint64_t)
                          + 2 * (k + 1) * sizeof(int64_t)
                          + (size_t)a.n_usable * sizeof(int)
                          + 2 * (size_t)a.total + (k + 1));
    if (!block)
        return -1;
    p = block;
    a.cur.fams = carve(&p, rows, sizeof(uint64_t));
    a.cur.near = carve(&p, rows, sizeof(uint64_t));
    a.snap.fams = carve(&p, rows, sizeof(uint64_t));
    a.snap.near = carve(&p, rows, sizeof(uint64_t));
    a.cur.support = carve(&p, words, sizeof(uint64_t));
    a.snap.support = carve(&p, words, sizeof(uint64_t));
    a.usable_bits = carve(&p, words, sizeof(uint64_t));
    a.down = carve(&p, words, sizeof(uint64_t));
    a.closed = carve(&p, words, sizeof(uint64_t));
    a.comp = carve(&p, words, sizeof(uint64_t));
    a.pick = carve(&p, words, sizeof(uint64_t));
    a.open = carve(&p, words, sizeof(uint64_t));
    a.cur.counts = carve(&p, k + 1, sizeof(int64_t));
    a.snap.counts = carve(&p, k + 1, sizeof(int64_t));
    a.order = carve(&p, a.n_usable, sizeof(int));
    a.cur.labels = carve(&p, a.total, 1);
    a.snap.labels = carve(&p, a.total, 1);
    a.stale = carve(&p, k + 1, 1);
    for (i = 1; i <= a.n_usable; i++)
        set_bit(a.usable_bits, i);
    memcpy(stop.limb, stop_value, sizeof(stop.limb));
    for (stop.len = VALUE_LIMBS; stop.len > 1 && !stop.limb[stop.len - 1]; stop.len--)
        ;
    *done_out = ann_run(&a, variants, n_var, &state, steps, t0, alpha,
                        restart_interval, &stop, deadline_of(timed, time_left),
                        &best, best_labels);
    *state_out = state;
    memset(best_out, 0, sizeof(best.limb));
    memcpy(best_out, best.limb, best.len * sizeof(uint32_t));
    free(block);
    return 0;
}
