/*
 * Native kernel for fresh batch replays (repro.sim.batchpath).
 *
 * bk_replay() replays one freshly built mechanism over one TLB miss
 * stream with its own empty prefetch buffer, and writes the six
 * counters of a result row: buffer hits after warm-up, prefetches
 * issued, buffer inserts, refreshes, unused evictions and memory
 * overhead operations. It reproduces the reference engine
 * (two_phase.replay_prefetcher over live Prefetcher and
 * PrefetchBuffer objects) bit for bit.
 *
 * Geometry, slots, buffer capacity, clamp and warm-up are runtime
 * arguments, so one build serves every shape. The Python planner
 * hands over dense key ids instead of keys: a table compares tags by
 * id, and every structure is O(1) per access. Table rows and buffer
 * entries sit on intrusive doubly linked LRU lists (head = LRU); a
 * table finds a key's row through a per-key index, the buffer finds a
 * page through an open-addressing hash with backward-shift deletion.
 *
 * Pages must lie in [-2^60, 2^60], so that every distance and target
 * fits an int64; the kernel refuses other streams (BK_RANGE) and the
 * caller replays them in Python.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { BK_OK = 0, BK_RANGE = 1, BK_NOMEM = 2, BK_BADARG = 3 };

enum {
    F_NONE = 0, F_SEQ = 1, F_ASEQ = 2, F_STRIDE = 3, F_MARKOV = 4,
    F_DISTANCE = 5, F_PCDIST = 6, F_DISTPAIR = 7, F_RECENCY = 8
};

#define PAGE_LIMIT ((int64_t)1 << 60)
#define MAX_CAP ((int64_t)1 << 24)
#define MAX_PARAM ((int64_t)1 << 30)

/* -- intrusive LRU lists ------------------------------------------------- */

static inline void list_unlink(int32_t *prev, int32_t *next, int32_t *head,
                               int32_t *tail, int32_t n)
{
    int32_t p = prev[n], q = next[n];
    if (p >= 0) next[p] = q; else *head = q;
    if (q >= 0) prev[q] = p; else *tail = p;
}

static inline void list_push(int32_t *prev, int32_t *next, int32_t *head,
                             int32_t *tail, int32_t n)
{
    prev[n] = *tail;
    next[n] = -1;
    if (*tail >= 0) next[*tail] = n; else *head = n;
    *tail = n;
}

/* -- prefetch buffer ----------------------------------------------------- */

typedef struct {
    int64_t *page;             /* node -> buffered page */
    int32_t *prev, *next;      /* LRU list over nodes */
    int32_t *freed;            /* nodes released by hits */
    int32_t *slot;             /* hash slot -> node, -1 when empty */
    int32_t head, tail, nfree, used, count, cap;
    uint64_t mask;
    int shift;
    int64_t inserted, refreshed, evicted;
} buffer_t;

static int buffer_init(buffer_t *b, int64_t cap)
{
    int bits = 2;
    while (((int64_t)1 << bits) < 2 * cap) bits++;
    size_t size = (size_t)1 << bits;
    memset(b, 0, sizeof *b);
    b->page = malloc((size_t)cap * sizeof *b->page);
    b->prev = malloc((size_t)cap * sizeof *b->prev);
    b->next = malloc((size_t)cap * sizeof *b->next);
    b->freed = malloc((size_t)cap * sizeof *b->freed);
    b->slot = malloc(size * sizeof *b->slot);
    if (!b->page || !b->prev || !b->next || !b->freed || !b->slot) return BK_NOMEM;
    memset(b->slot, 0xff, size * sizeof *b->slot);
    b->head = b->tail = -1;
    b->cap = (int32_t)cap;
    b->mask = size - 1;
    b->shift = 64 - bits;
    return BK_OK;
}

static void buffer_free(buffer_t *b)
{
    free(b->page);
    free(b->prev);
    free(b->next);
    free(b->freed);
    free(b->slot);
}

static inline size_t buffer_home(const buffer_t *b, int64_t page)
{
    return (size_t)(((uint64_t)page * 0x9E3779B97F4A7C15ull) >> b->shift);
}

/* The slot holding ``page``, or the empty slot where it would go. */
static inline size_t buffer_find(const buffer_t *b, int64_t page)
{
    size_t i = buffer_home(b, page);
    int32_t n;
    while ((n = b->slot[i]) >= 0 && b->page[n] != page) i = (i + 1) & b->mask;
    return i;
}

/* Empty slot ``i``, shifting later entries of its probe run back. */
static void buffer_erase(buffer_t *b, size_t i)
{
    size_t j = i;
    for (;;) {
        j = (j + 1) & b->mask;
        int32_t n = b->slot[j];
        if (n < 0) break;
        size_t k = buffer_home(b, b->page[n]);
        int stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) {
            b->slot[i] = n;
            i = j;
        }
    }
    b->slot[i] = -1;
}

/* Probe for ``page``; a hit removes it (it moves into the TLB). */
static inline int buffer_probe(buffer_t *b, int64_t page)
{
    size_t i = buffer_find(b, page);
    int32_t n = b->slot[i];
    if (n < 0) return 0;
    buffer_erase(b, i);
    list_unlink(b->prev, b->next, &b->head, &b->tail, n);
    b->freed[b->nfree++] = n;
    b->count--;
    return 1;
}

/* Buffer a prefetch: refresh a duplicate, else evict the LRU entry. */
static inline void buffer_insert(buffer_t *b, int64_t page)
{
    size_t i = buffer_find(b, page);
    int32_t n = b->slot[i];
    if (n >= 0) {
        list_unlink(b->prev, b->next, &b->head, &b->tail, n);
        list_push(b->prev, b->next, &b->head, &b->tail, n);
        b->refreshed++;
        return;
    }
    if (b->count >= b->cap) {
        n = b->head;
        list_unlink(b->prev, b->next, &b->head, &b->tail, n);
        buffer_erase(b, buffer_find(b, b->page[n]));
        b->evicted++;
        b->count--;
        i = buffer_find(b, page);
    } else if (b->nfree) {
        n = b->freed[--b->nfree];
    } else {
        n = b->used++;
    }
    b->page[n] = page;
    b->slot[i] = n;
    list_push(b->prev, b->next, &b->head, &b->tail, n);
    b->count++;
    b->inserted++;
}

/* -- prediction table ---------------------------------------------------- */

/*
 * Rows are nodes; a set's rows form one LRU list. MP and DP rows keep
 * up to ``slots`` values MRU first in val[node * slots ...] with the
 * fill in nval[node]. ASP rows keep (previous page, stride) in two
 * value slots and the stride state in nval[node].
 */
typedef struct {
    int32_t ways, slots;
    const int32_t *set_of;     /* key id -> set */
    int32_t *where;            /* key id -> node, -1 when absent */
    int32_t *key, *prev, *next;
    int32_t *head, *tail, *count;
    int32_t used;
    int64_t *val;
    int32_t *nval;
} table_t;

static int table_init(table_t *t, int64_t rows, int64_t ways, int64_t slots,
                      int64_t nkeys, const int32_t *set_of)
{
    int64_t sets = rows / ways;
    memset(t, 0, sizeof *t);
    t->ways = (int32_t)ways;
    t->slots = (int32_t)slots;
    t->set_of = set_of;
    t->where = malloc((size_t)(nkeys ? nkeys : 1) * sizeof *t->where);
    t->key = malloc((size_t)rows * sizeof *t->key);
    t->prev = malloc((size_t)rows * sizeof *t->prev);
    t->next = malloc((size_t)rows * sizeof *t->next);
    t->head = malloc((size_t)sets * sizeof *t->head);
    t->tail = malloc((size_t)sets * sizeof *t->tail);
    t->count = calloc((size_t)sets, sizeof *t->count);
    t->val = malloc((size_t)rows * (size_t)slots * sizeof *t->val);
    t->nval = malloc((size_t)rows * sizeof *t->nval);
    if (!t->where || !t->key || !t->prev || !t->next || !t->head || !t->tail
        || !t->count || !t->val || !t->nval)
        return BK_NOMEM;
    memset(t->where, 0xff, (size_t)(nkeys ? nkeys : 1) * sizeof *t->where);
    memset(t->head, 0xff, (size_t)sets * sizeof *t->head);
    memset(t->tail, 0xff, (size_t)sets * sizeof *t->tail);
    return BK_OK;
}

static void table_free(table_t *t)
{
    free(t->where);
    free(t->key);
    free(t->prev);
    free(t->next);
    free(t->head);
    free(t->tail);
    free(t->count);
    free(t->val);
    free(t->nval);
}

/*
 * The row tagged ``key``, promoted to MRU; absent, a new empty row
 * (evicting its set's LRU row when the set is full) and *allocated = 1.
 */
static inline int32_t table_get(table_t *t, int32_t key, int *allocated)
{
    int32_t s = t->set_of[key];
    int32_t n = t->where[key];
    if (n >= 0) {
        list_unlink(t->prev, t->next, &t->head[s], &t->tail[s], n);
        list_push(t->prev, t->next, &t->head[s], &t->tail[s], n);
        *allocated = 0;
        return n;
    }
    if (t->count[s] >= t->ways) {
        n = t->head[s];
        list_unlink(t->prev, t->next, &t->head[s], &t->tail[s], n);
        t->where[t->key[n]] = -1;
    } else {
        n = t->used++;
        t->count[s]++;
    }
    t->key[n] = key;
    t->where[key] = n;
    t->nval[n] = 0;
    list_push(t->prev, t->next, &t->head[s], &t->tail[s], n);
    *allocated = 1;
    return n;
}

/* SlotList.add: ``value`` becomes MRU; a full row drops its LRU value. */
static inline void slots_add(table_t *t, int32_t node, int64_t value)
{
    int64_t *v = t->val + (size_t)node * (size_t)t->slots;
    int32_t n = t->nval[node], i;
    for (i = 0; i < n; i++)
        if (v[i] == value) break;
    if (i == n) {
        if (n < t->slots) n++;
        i = n - 1;
    }
    memmove(v + 1, v, (size_t)i * sizeof *v);
    v[0] = value;
    t->nval[node] = n;
}

/* -- replay loops -------------------------------------------------------- */

typedef struct {
    buffer_t buf;
    int64_t warmup, clamp, pb_hits, issued, overhead;
} run_t;

static inline int probe(run_t *r, int64_t i, int64_t page)
{
    int hit = buffer_probe(&r->buf, page);
    if (hit && i >= r->warmup) r->pb_hits++;
    return hit;
}

/* Count ``n`` issued targets, clamp them, and buffer them in order. */
static inline void issue(run_t *r, const int64_t *targets, int64_t n)
{
    r->issued += n;
    if (r->clamp && n > r->clamp) n = r->clamp;
    for (int64_t j = 0; j < n; j++) buffer_insert(&r->buf, targets[j]);
}

/* SP (degree k) and adaptive SP: page + 1 .. page + degree. */
static void run_sequential(run_t *r, int64_t n, const int64_t *pages,
                           int adaptive, int64_t degree, int64_t window,
                           double raise_above, double lower_below)
{
    int64_t max_degree = degree, misses = 0, hits = 0;
    if (adaptive) degree = 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t page = pages[i];
        int hit = probe(r, i, page);
        if (adaptive) {
            misses++;
            hits += hit;
            if (misses >= window) {
                double rate = (double)hits / (double)misses;
                if (rate > raise_above)
                    degree = degree * 2 < max_degree ? degree * 2 : max_degree;
                else if (rate < lower_below)
                    degree = degree / 2 > 1 ? degree / 2 : 1;
                misses = hits = 0;
            }
        }
        r->issued += degree;
        int64_t count = r->clamp && degree > r->clamp ? r->clamp : degree;
        for (int64_t k = 1; k <= count; k++) buffer_insert(&r->buf, page + k);
    }
}

/* ASP: a PC-indexed table of (previous page, stride, state). */
static void run_stride(run_t *r, table_t *t, int64_t n, const int64_t *pages,
                       const int32_t *keys)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t page = pages[i];
        int allocated;
        probe(r, i, page);
        int32_t node = table_get(t, keys[i], &allocated);
        int64_t *v = t->val + (size_t)node * 2;
        if (allocated) {
            v[0] = page;
            v[1] = 0;
            continue;
        }
        int64_t stride = page - v[0];
        int same = stride == v[1];
        int32_t state = t->nval[node];
        switch (state) {
        case 0:
            if (same) state = 2; else { state = 1; v[1] = stride; }
            break;
        case 1:
            if (same) state = 2; else { state = 3; v[1] = stride; }
            break;
        case 2:
            if (!same) state = 0;
            break;
        default:
            if (same) state = 1; else v[1] = stride;
        }
        t->nval[node] = state;
        v[0] = page;
        if (state == 2 && v[1]) {
            int64_t target = page + v[1];
            if (target >= 0) issue(r, &target, 1);
        }
    }
}

/* MP: a page-indexed table of successor pages. */
static void run_markov(run_t *r, table_t *t, int64_t n, const int64_t *pages,
                       const int32_t *keys, int64_t *targets)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t page = pages[i], count = 0;
        int allocated;
        probe(r, i, page);
        int32_t node = table_get(t, keys[i], &allocated);
        if (!allocated) {
            count = t->nval[node];
            memcpy(targets, t->val + (size_t)node * (size_t)t->slots,
                   (size_t)count * sizeof *targets);
        }
        if (i > 0 && pages[i - 1] != page) {
            int32_t prev = table_get(t, keys[i - 1], &allocated);
            slots_add(t, prev, page);
        }
        issue(r, targets, count);
    }
}

/*
 * DP, DP-PC and DP-2: a table of successor distances keyed from miss
 * ``first`` on (1, or 2 for the distance pair); each key's row learns
 * the distance that follows it.
 */
static void run_keyed(run_t *r, table_t *t, int64_t n, const int64_t *pages,
                      const int32_t *keys, int64_t first, int64_t *targets)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t page = pages[i], count = 0;
        int allocated;
        probe(r, i, page);
        if (i >= first) {
            int32_t node = table_get(t, keys[i], &allocated);
            if (!allocated) {
                const int64_t *v = t->val + (size_t)node * (size_t)t->slots;
                for (int32_t j = 0; j < t->nval[node]; j++) {
                    int64_t target = page + v[j];
                    if (target >= 0) targets[count++] = target;
                }
            }
            if (i > first) {
                int32_t prev = table_get(t, keys[i - 1], &allocated);
                slots_add(t, prev, page - pages[i - 1]);
            }
        }
        issue(r, targets, count);
    }
}

/*
 * RP: the LRU stack of evicted pages threaded through the page table,
 * over dense page ids (``universe`` maps an id back to its page).
 */
static int run_recency(run_t *r, int64_t n, const int64_t *pages,
                       const int32_t *ids, const int32_t *evicted,
                       const int64_t *universe, int64_t npages, int third)
{
    int32_t *below_of = malloc((size_t)(npages ? npages : 1) * sizeof *below_of);
    int32_t *above_of = malloc((size_t)(npages ? npages : 1) * sizeof *above_of);
    uint8_t *on = calloc((size_t)(npages ? npages : 1), 1);
    if (!below_of || !above_of || !on) {
        free(below_of);
        free(above_of);
        free(on);
        return BK_NOMEM;
    }
    int32_t top = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t targets[3];
        int64_t count = 0;
        int32_t id = ids[i], above = -1, below = -1, gone = evicted[i];
        probe(r, i, pages[i]);
        if (on[id]) {
            below = below_of[id];
            above = above_of[id];
            if (above >= 0) below_of[above] = below; else top = below;
            if (below >= 0) above_of[below] = above;
            below_of[id] = above_of[id] = -1;
            on[id] = 0;
            r->overhead += 2;
        }
        if (gone >= 0) {
            if (on[gone]) {
                int32_t a = above_of[gone], b = below_of[gone];
                if (a >= 0) below_of[a] = b; else top = b;
                if (b >= 0) above_of[b] = a;
            }
            below_of[gone] = top;
            above_of[gone] = -1;
            on[gone] = 1;
            if (top >= 0) above_of[top] = gone;
            top = gone;
            r->overhead += 2;
        }
        if (above >= 0) targets[count++] = universe[above];
        if (below >= 0) targets[count++] = universe[below];
        if (third && below >= 0 && on[below]) {
            int32_t next = below_of[below];
            if (next >= 0 && next != id) targets[count++] = universe[next];
        }
        issue(r, targets, count);
    }
    free(below_of);
    free(above_of);
    free(on);
    return BK_OK;
}

/*
 * Replay one mechanism class over one miss stream.
 *
 * params: family, buffer capacity, clamp (0 = none), then per family
 *   SP (degree), adaptive SP (max degree, window), ASP (rows, ways),
 *   MP/DP/DP-PC/DP-2 (rows, ways, slots), RP (third neighbour).
 * raise_above, lower_below: adaptive SP's hit-rate thresholds.
 * pages: the n missed pages; warmup: leading misses not counted.
 * keys: per-miss key id (-1 before the first key) for table
 *   families, the missed page's id for RP.
 * nkeys: distinct key ids (RP: distinct pages, ``universe``'s size).
 * set_of: key id -> set for table families.
 * evicted, universe: RP's evicted-page ids (-1 = none) and id -> page.
 * out: pb_hits, issued, inserted, refreshed, evicted unused, overhead.
 *
 * Returns BK_OK, BK_RANGE (a page outside [-2^60, 2^60]), BK_NOMEM or
 * BK_BADARG (a parameter this kernel does not take).
 */
int bk_replay(const int64_t *params, double raise_above, double lower_below,
              int64_t n, int64_t warmup, const int64_t *pages,
              const int32_t *keys, int64_t nkeys, const int32_t *set_of,
              const int32_t *evicted, const int64_t *universe, int64_t *out)
{
    int64_t family = params[0], cap = params[1], clamp = params[2];
    int64_t a = params[3], b = params[4], c = params[5];
    int tabled = family >= F_STRIDE && family <= F_DISTPAIR;
    int64_t slots = family == F_STRIDE ? 2 : c;
    if (family < F_NONE || family > F_RECENCY || cap < 1 || cap > MAX_CAP
        || clamp < 0 || n < 0 || n > INT32_MAX || nkeys < 0 || nkeys > INT32_MAX)
        return BK_BADARG;
    if ((family == F_SEQ || family == F_ASEQ) && (a < 1 || a > MAX_PARAM))
        return BK_BADARG;
    if (family == F_ASEQ && b < 1)
        return BK_BADARG;
    if (tabled && (a < 1 || a > MAX_PARAM || b < 1 || a % b || slots < 1
                   || slots > MAX_PARAM || !keys || !set_of))
        return BK_BADARG;
    if (family == F_RECENCY && (!keys || !evicted || !universe))
        return BK_BADARG;
    for (int64_t i = 0; i < n; i++)
        if (pages[i] > PAGE_LIMIT || pages[i] < -PAGE_LIMIT) return BK_RANGE;

    run_t r;
    table_t t;
    int64_t *targets = NULL;
    int status = buffer_init(&r.buf, cap);
    memset(&t, 0, sizeof t);
    r.warmup = warmup;
    r.clamp = clamp;
    r.pb_hits = r.issued = r.overhead = 0;
    if (status == BK_OK && tabled) {
        status = table_init(&t, a, b, slots, nkeys, set_of);
        targets = malloc((size_t)slots * sizeof *targets);
        if (!targets) status = BK_NOMEM;
    }
    if (status == BK_OK) {
        switch (family) {
        case F_NONE:
            for (int64_t i = 0; i < n; i++) probe(&r, i, pages[i]);
            break;
        case F_SEQ:
        case F_ASEQ:
            run_sequential(&r, n, pages, family == F_ASEQ, a, b, raise_above,
                           lower_below);
            break;
        case F_STRIDE:
            run_stride(&r, &t, n, pages, keys);
            break;
        case F_MARKOV:
            run_markov(&r, &t, n, pages, keys, targets);
            break;
        case F_DISTANCE:
        case F_PCDIST:
            run_keyed(&r, &t, n, pages, keys, 1, targets);
            break;
        case F_DISTPAIR:
            run_keyed(&r, &t, n, pages, keys, 2, targets);
            break;
        default:
            status = run_recency(&r, n, pages, keys, evicted, universe, nkeys, a != 0);
        }
    }
    if (status == BK_OK) {
        out[0] = r.pb_hits;
        out[1] = r.issued;
        out[2] = r.buf.inserted;
        out[3] = r.buf.refreshed;
        out[4] = r.buf.evicted;
        out[5] = r.overhead;
    }
    free(targets);
    if (tabled) table_free(&t);
    buffer_free(&r.buf);
    return status;
}
