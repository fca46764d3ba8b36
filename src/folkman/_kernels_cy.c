/* Compiled twin of _kernels_py: clique search, free-partition search and
 * arrowing, canonical labeling and canonical graph6 lines, graph6 decoding,
 * the plus-clique descent's child loop and the family extension's host
 * loop.
 *
 * Hand-written against the CPython C API.  Each function ports the one of
 * the same name in _kernels_py (less a leading underscore; a nested Python
 * function becomes a C function with its state in a struct, and a kernel's
 * Python entry point is meth_<name>) and returns exactly what it returns,
 * witnesses and tie-breaks included (tests/test_kernels.py compares the
 * two).  The algorithms and their reasons are documented there; the
 * comments here cover only what the C adds.  A graph is at most 64 rows of
 * uint64_t neighbour masks; a leaf's code is graphs.edge_code's bit stream
 * written into bytes, first bit in the top bit of byte 0, so that memcmp
 * orders codes as the integers compare, and a canonical line is written
 * from those bytes.  The graph6 decoders (graph6_adj, cone_count) run
 * graphs.unpack_graph6's checks only to accept or reject a line: a line or
 * argument they reject goes to the pure twin, which raises the error, so
 * each message and offset is written once.  Kernels call each other as C
 * functions.  Sets over a list whose length is known only at run time (a
 * host's cliques, its deficient non-edges) are arrays of 64-bit words, and
 * every buffer that grows with the input is allocated; a failed allocation
 * raises MemoryError.
 *
 * Build: cc -O2 -shared -fPIC -I<python include> _kernels_cy.c -o <so>
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define MAXN 64
#define MAX_AUT_GENERATORS 4096
#define COVER_MAX 5
#define MAXGAPS (MAXN * (MAXN - 1) / 2)
#define CODEBYTES (MAXGAPS / 8 + 1)
/* a graph6 line: the long-form header and one character per 6 edge bits */
#define G6MAX (4 + (MAXGAPS + 5) / 6)

static inline int popc(u64 x) { return __builtin_popcountll(x); }
static inline int ctz(u64 x) { return __builtin_ctzll(x); }
static inline u64 low(u64 x) { return x & (0 - x); }
static inline u64 full_mask(int n) { return n ? ~(u64)0 >> (MAXN - n) : 0; }
/* the bits above x: the pure twin's m >> (x + 1) << (x + 1) */
static inline u64 above(int x) { return x < MAXN - 1 ? ~(u64)0 << (x + 1) : 0; }

/* -- argument conversion -------------------------------------------------- */

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* The rows of a sequence of neighbour masks, a list or a tuple; returns n,
 * or -1 with an exception set. */
static int load(PyObject *adj, u64 *out)
{
    PyObject *seq = PySequence_Fast(adj, "adjacency must be a sequence of int masks");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAXN) {
        PyErr_Format(PyExc_ValueError, "at most %d vertices supported, got %zd", MAXN, n);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (out[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return (int)n;
}

static int load_mask(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return *out == (u64)-1 && PyErr_Occurred() ? -1 : 0;
}

static int load_long(PyObject *obj, long *out)
{
    *out = PyLong_AsLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* -1 with ValueError when a row names a vertex beyond n - 1: the loops that
 * call this read the row of every vertex a row names. */
static int check_rows(const u64 *adj, int n)
{
    for (int v = 0; v < n; v++)
        if (adj[v] & ~full_mask(n)) {
            PyErr_Format(PyExc_ValueError, "row %d names a vertex beyond %d", v, n - 1);
            return -1;
        }
    return 0;
}

/* A list of 64-bit words that grows as items come. */
struct u64vec {
    u64 *items;
    size_t count, cap;
};

static int push(struct u64vec *v, u64 x)
{
    if (v->count == v->cap) {
        size_t cap = v->cap ? 2 * v->cap : 16;
        u64 *items = PyMem_Realloc(v->items, sizeof *items * cap);
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        v->items = items;
        v->cap = cap;
    }
    v->items[v->count++] = x;
    return 0;
}

/* count zeroed words, at least one; NULL with MemoryError set */
static u64 *new_words(size_t count)
{
    u64 *out = PyMem_Calloc(count ? count : 1, sizeof *out);
    if (out == NULL)
        PyErr_NoMemory();
    return out;
}

/* -- twin classes --------------------------------------------------------- */

/* out[v]: the bit of the vertex just before v in its twin class, or 0.  The
 * pure twin's dict maps both keys of every earlier vertex to its bit; here
 * the latest earlier vertex with either key equal to v's open key, else to
 * its closed one. */
static void twin_pairs(const u64 *adj, int n, u64 *out)
{
    u64 keys[MAXN][2];
    for (int v = 0; v < n; v++) {
        u64 row = adj[v], closed = row | (u64)1 << v;
        keys[v][0] = row;
        keys[v][1] = closed;
        out[v] = 0;
        for (int k = 0; k < 2 && !out[v]; k++)
            for (int u = v - 1; u >= 0; u--)
                if (keys[u][0] == keys[v][k] || keys[u][1] == keys[v][k]) {
                    out[v] = (u64)1 << u;
                    break;
                }
    }
}

/* -- clique search -------------------------------------------------------- */

static int color_bounds(const u64 *adj, u64 P, int *order, int *bounds)
{
    int cnt = 0, color = 0;
    u64 rest = P;
    while (rest) {
        color++;
        u64 avail = rest;
        while (avail) {
            u64 bit = low(avail);
            int v = ctz(bit);
            order[cnt] = v;
            bounds[cnt++] = color;
            rest ^= bit;
            avail = (avail ^ bit) & ~adj[v];
        }
    }
    return cnt;
}

struct clique_state {
    const u64 *adj;
    int best, stop;
};

static int expand(struct clique_state *s, u64 P, int size)
{
    int order[MAXN], bounds[MAXN];
    for (int i = color_bounds(s->adj, P, order, bounds) - 1; i >= 0; i--) {
        if (size + bounds[i] <= s->best)
            return 0;
        int v = order[i];
        if (size + 1 > s->best) {
            s->best = size + 1;
            if (s->best >= s->stop)
                return 1;
        }
        u64 sub = P & s->adj[v];
        if (sub && expand(s, sub, size + 1))
            return 1;
        P ^= (u64)1 << v;
    }
    return 0;
}

static int clique_search(const u64 *adj, u64 mask, int best, int stop)
{
    struct clique_state s = {adj, best, stop};
    expand(&s, mask, 0);
    return s.best;
}

static int clique_after_drops(const u64 *adj, u64 mask, int k)
{
    u64 m = mask;
    while (m) {
        u64 b = low(m);
        m ^= b;
        u64 miss = (mask & ~adj[ctz(b)]) ^ b;
        if (miss) {
            if (!k)
                return 0;
            if (!(miss & (miss - 1)))
                return clique_after_drops(adj, mask ^ miss, k - 1);
            if (clique_after_drops(adj, mask ^ b, k - 1))
                return 1;
            int c = popc(miss);
            return c <= k && clique_after_drops(adj, mask ^ miss, k - c);
        }
    }
    return 1;
}

static int has_clique_within(const u64 *adj, u64 mask, long t)
{
    if (t <= 0)
        return 1;
    if (t == 1)
        return mask != 0;
    if (t == 2) {
        for (u64 m = mask; m; m &= m - 1)
            if (adj[ctz(m)] & mask)
                return 1;
        return 0;
    }
    long k = popc(mask) - t;
    if (k < 0)
        return 0;
    if (k <= COVER_MAX)
        return clique_after_drops(adj, mask, (int)k);
    return clique_search(adj, mask, (int)t - 1, (int)t) >= t;
}

static int is_plus_k(const u64 *adj, int n, long t)
{
    if (t <= 2)
        return 1;
    for (int u = 0; u < n; u++)
        for (int v = u + 1; v < n; v++)
            if (!(adj[u] >> v & 1) && !has_clique_within(adj, adj[u] & adj[v], t - 2))
                return 0;
    return 1;
}

/* -- free partition ------------------------------------------------------- */

struct partition_state {
    const u64 *adj;
    int n;
    Py_ssize_t s;
    const int *order;
    const long *limits;
    u64 *classes;
};

static int place(struct partition_state *p, int i)
{
    if (i == p->n)
        return 1;
    int v = p->order[i];
    u64 av = p->adj[v], bit = (u64)1 << v;
    for (Py_ssize_t c = 0; c < p->s; c++) {
        u64 cur = p->classes[c];
        if (cur == 0) {
            /* the pure twin's tried_empty: the limits of the empty classes
             * before c, which stay empty while c is tried */
            int tried = 0;
            for (Py_ssize_t e = 0; e < c && !tried; e++)
                tried = p->classes[e] == 0 && p->limits[e] == p->limits[c];
            if (tried)
                continue;
        }
        if (has_clique_within(p->adj, cur & av, p->limits[c]))
            continue;
        p->classes[c] = cur | bit;
        if (place(p, i + 1))
            return 1;
        p->classes[c] = cur;
    }
    return 0;
}

/* Whether a partition exists; classes gets the s masks of the first found. */
static int free_partition(const u64 *adj, int n, const long *limits, Py_ssize_t s, u64 *classes)
{
    int order[MAXN];
    memset(classes, 0, sizeof(u64) * (size_t)s);
    if (n == 0)
        return 1;
    if (s == 0)
        return 0;
    /* insertion sort by (-degree, vertex) */
    for (int i = 0; i < n; i++) {
        int v = i, j = i - 1, d = popc(adj[v]);
        while (j >= 0 && popc(adj[order[j]]) < d) {
            order[j + 1] = order[j];
            j--;
        }
        order[j + 1] = v;
    }
    struct partition_state p = {adj, n, s, order, limits, classes};
    return place(&p, 0);
}

/* -- arrowing ------------------------------------------------------------- */

/* A sequence of ints: an arrowing vector, with its limits (entries less
 * one), or free_partition's limits; classes has room for a partition. */
struct vector {
    Py_ssize_t s;
    long *entries, *limits;
    u64 *classes;
};

static void free_vector(struct vector *vec)
{
    PyMem_Free(vec->entries);
    PyMem_Free(vec->classes);
}

static int load_vector(PyObject *obj, struct vector *vec)
{
    vec->entries = NULL;
    vec->classes = NULL;
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of ints");
    if (seq == NULL)
        return -1;
    Py_ssize_t s = vec->s = PySequence_Fast_GET_SIZE(seq);
    int err = 0;
    vec->entries = PyMem_Malloc(sizeof(long) * (size_t)(2 * s + 1));
    vec->classes = PyMem_Malloc(sizeof(u64) * (size_t)(s + 1));
    if (vec->entries == NULL || vec->classes == NULL) {
        PyErr_NoMemory();
        err = -1;
    } else {
        vec->limits = vec->entries + s;
        for (Py_ssize_t i = 0; i < s && !err; i++) {
            err = load_long(PySequence_Fast_GET_ITEM(seq, i), &vec->entries[i]);
            vec->limits[i] = vec->entries[i] - 1;
        }
    }
    Py_DECREF(seq);
    if (err)
        free_vector(vec);
    return err;
}

static int arrows(const u64 *adj, int n, const struct vector *vec)
{
    Py_ssize_t s = vec->s;
    u64 full = full_mask(n);
    if (s == 0)
        return 1;
    if (s == 1)
        return has_clique_within(adj, full, vec->entries[0]);
    long m = 1;
    for (Py_ssize_t i = 0; i < s; i++)
        m += vec->limits[i];
    if (!has_clique_within(adj, full, vec->entries[s - 1]))
        return 0;
    if (has_clique_within(adj, full, m))
        return 1;
    return !free_partition(adj, n, vec->limits, s, vec->classes);
}

/* -- canonical labeling --------------------------------------------------- */

/* Equitable refinement of the ordered partition cells[0..nc), in place;
 * returns the new cell count. */
static int refine(const u64 *adj, int n, const u64 *twins, u64 *cells, int nc, u64 fresh)
{
    int wi = 0;
    while (wi < nc && nc < n) {
        u64 W = cells[wi++];
        if (!(W & fresh))
            continue;
        int single = !(W & (W - 1));
        u64 aw = single ? adj[ctz(W)] : 0;
        int split = 0;
        for (int ci = 0; ci < nc && !split; ci++) {
            u64 C = cells[ci];
            if (!(C & (C - 1)))
                continue;
            u64 frags[MAXN];
            int nf = 0;
            if (single) {
                /* counts are 0 or 1: non-neighbours first, then neighbours */
                u64 hit = C & aw;
                if (!hit || hit == C)
                    continue;
                frags[nf++] = C ^ hit;
                frags[nf++] = hit;
            } else {
                /* groups[k]: the vertices of C with k neighbours in W, k < 64 */
                u64 groups[MAXN], counts = 0;
                u64 m = C;
                while (m) {
                    int v = ctz(m);
                    u64 same = C & twins[v];
                    m ^= same;
                    int k = popc(adj[v] & W);
                    if (!(counts >> k & 1))
                        groups[k] = 0;
                    counts |= (u64)1 << k;
                    groups[k] |= same;
                }
                if (!(counts & (counts - 1)))
                    continue;
                for (; counts; counts &= counts - 1)
                    frags[nf++] = groups[ctz(counts)];
            }
            memmove(cells + ci + nf, cells + ci + 1, sizeof(u64) * (size_t)(nc - ci - 1));
            memcpy(cells + ci, frags, sizeof(u64) * (size_t)nf);
            nc += nf - 1;
            fresh |= C;
            wi = 0;
            split = 1;
        }
        if (!split)
            fresh &= ~W;
    }
    return nc;
}

/* A known automorphism: the mask of the vertices it moves and image[u]
 * for each moved u. */
struct generator {
    u64 moved;
    unsigned char image[MAXN];
};

/* The state of one canonical_perm call.  The generators are the twin swaps
 * first, then those found at leaves, in a store grown as they come, up to
 * MAX_AUT_GENERATORS; nomem records a failed growth. */
struct canon {
    u64 adj[MAXN], twins[MAXN], path[MAXN], best_path[MAXN];
    int n, codelen, has_best, path_len, best_path_len;
    int best_perm[MAXN];
    unsigned char best_code[CODEBYTES];
    struct generator *gens;
    int ngens, cap, nomem;
};

static struct generator *new_generator(struct canon *cs)
{
    if (cs->ngens == cs->cap) {
        int cap = cs->cap ? 2 * cs->cap : MAXN;
        struct generator *gens = PyMem_Realloc(cs->gens, sizeof *gens * (size_t)cap);
        if (gens == NULL) {
            cs->nomem = 1;
            return NULL;
        }
        cs->gens = gens;
        cs->cap = cap;
    }
    return &cs->gens[cs->ngens++];
}

/* graphs.edge_code(adj, perm) as bytes: the upper triangle of the
 * relabeled graph, column by column. */
static void encode(const struct canon *cs, const int *perm, unsigned char *out)
{
    int k = 0;
    memset(out, 0, (size_t)cs->codelen);
    for (int j = 1; j < cs->n; j++) {
        u64 aj = cs->adj[perm[j]];
        for (int i = 0; i < j; i++, k++)
            if (aj >> perm[i] & 1)
                out[k >> 3] |= (unsigned char)(0x80 >> (k & 7));
    }
}

/* Returns the depth to go back to, as the pure twin's leaf. */
static int leaf(struct canon *cs, const u64 *cells)
{
    int perm[MAXN];
    unsigned char code[CODEBYTES];
    for (int i = 0; i < cs->n; i++)
        perm[i] = ctz(cells[i]);
    encode(cs, perm, code);
    int cmp = cs->has_best ? memcmp(code, cs->best_code, (size_t)cs->codelen) : -1;
    if (cmp < 0) {
        memcpy(cs->best_code, code, (size_t)cs->codelen);
        memcpy(cs->best_perm, perm, sizeof perm);
        memcpy(cs->best_path, cs->path, sizeof(u64) * (size_t)cs->path_len);
        cs->best_path_len = cs->path_len;
        cs->has_best = 1;
        return cs->path_len;
    }
    if (cmp > 0)
        return cs->path_len;
    struct generator *g;
    if (cs->ngens < MAX_AUT_GENERATORS && (g = new_generator(cs)) != NULL) {
        g->moved = 0;
        for (int i = 0; i < cs->n; i++) {
            int u = cs->best_perm[i], w = perm[i];
            if (u != w) {
                g->moved |= (u64)1 << u;
                g->image[u] = (unsigned char)w;
            }
        }
    }
    int common = 0;
    while (common < cs->path_len && common < cs->best_path_len
           && cs->path[common] == cs->best_path[common])
        common++;
    return common;
}

/* Returns the depth to go back to, as the pure twin's search.  cells holds
 * nc cells and may be overwritten. */
static int search(struct canon *cs, u64 *cells, int nc, u64 fixed)
{
    int ti;
    u64 T;
    for (;;) {
        int size = MAXN + 1;
        ti = -1;
        for (int i = 0; i < nc; i++) {
            int pc = popc(cells[i]);
            if (1 < pc && pc < size) {
                ti = i;
                size = pc;
            }
        }
        if (ti < 0)
            return leaf(cs, cells);
        T = cells[ti];
        if (T & ~cs->twins[ctz(T)])
            break;
        /* a target cell inside one twin class becomes singletons in place */
        memmove(cells + ti + size, cells + ti + 1, sizeof(u64) * (size_t)(nc - ti - 1));
        int i = ti;
        for (u64 m = T; m; m &= m - 1)
            cells[i++] = low(m);
        nc += size - 1;
        for (u64 m = T; m & (m - 1); m &= m - 1)
            cs->path[cs->path_len++] = low(m);
        fixed |= T ^ ((u64)1 << (63 - __builtin_clzll(T)));
    }
    int depth = cs->path_len, seen = 0, have_orbit = 0;
    u64 tried = 0, orbit[MAXN], child[MAXN];
    for (u64 m = T; m; m &= m - 1) {
        u64 b = low(m);
        if (tried && cs->ngens) {
            if (!have_orbit) {
                for (int v = 0; v < cs->n; v++)
                    orbit[v] = (u64)1 << v;
                have_orbit = 1;
            }
            for (; seen < cs->ngens; seen++) {
                const struct generator *g = &cs->gens[seen];
                if (g->moved & fixed)
                    continue;
                for (u64 x = g->moved; x; x &= x - 1) {
                    int u = ctz(x), w = g->image[u];
                    if (orbit[u] != orbit[w]) {
                        u64 all = orbit[u] | orbit[w];
                        for (u64 y = all; y; y &= y - 1)
                            orbit[ctz(y)] = all;
                    }
                }
            }
            if (orbit[ctz(b)] & tried) {
                tried |= b;
                continue;
            }
        }
        memcpy(child, cells, sizeof(u64) * (size_t)ti);
        child[ti] = b;
        child[ti + 1] = T ^ b;
        memcpy(child + ti + 2, cells + ti + 1, sizeof(u64) * (size_t)(nc - ti - 1));
        cs->path[cs->path_len++] = b;
        int cn = refine(cs->adj, cs->n, cs->twins, child, nc + 1, T);
        int back = search(cs, child, cn, fixed | b);
        cs->path_len = depth;
        if (back < depth)
            return back;
        tried |= b;
    }
    return depth;
}

/* Fills cs->best_perm for the n > 1 rows in cs->adj; the caller frees
 * cs->gens. */
static void canonical_perm(struct canon *cs)
{
    int n = cs->n, first[MAXN];
    u64 pairs[MAXN], cells[MAXN];
    cs->codelen = (n * (n - 1) / 2 + 7) / 8;
    twin_pairs(cs->adj, n, pairs);
    for (int v = 0; v < n; v++) {
        first[v] = v;
        cs->twins[v] = (u64)1 << v;
        if (pairs[v]) {
            int u = ctz(pairs[v]);
            struct generator *g = new_generator(cs);
            if (g != NULL) {
                g->moved = pairs[v] | (u64)1 << v;
                g->image[u] = (unsigned char)v;
                g->image[v] = (unsigned char)u;
            }
            first[v] = first[u];
            cs->twins[first[v]] |= (u64)1 << v;
        }
    }
    for (int v = 0; v < n; v++)
        cs->twins[v] = cs->twins[first[v]];
    cells[0] = full_mask(n);
    search(cs, cells, refine(cs->adj, n, cs->twins, cells, 1, cells[0]), 0);
}

/* Labels the n rows adj: cs->best_perm gets canonical_perm's permutation
 * and cs->best_code its code.  cs keeps its generator store from an
 * earlier call; the caller frees cs->gens.  Returns -1 with MemoryError
 * set when the store could not grow. */
static int label(struct canon *cs, const u64 *adj, int n)
{
    memcpy(cs->adj, adj, sizeof(u64) * (size_t)n);
    cs->n = n;
    cs->codelen = cs->has_best = cs->path_len = cs->ngens = cs->nomem = 0;
    for (int i = 0; i < n; i++)
        cs->best_perm[i] = i;
    if (n > 1)
        canonical_perm(cs);
    if (cs->nomem) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* The graph6 line of the graph labeled in cs, written from its best code
 * (graphs.adj_to_graph6 of the relabeled graph); returns its length, at
 * most G6MAX. */
static int graph6_line(const struct canon *cs, char *out)
{
    int n = cs->n, len = 0, chars = (n * (n - 1) / 2 + 5) / 6;
    if (n <= 62)
        out[len++] = (char)(63 + n);
    else {
        out[len++] = '~';
        for (int shift = 12; shift >= 0; shift -= 6)
            out[len++] = (char)(63 + (n >> shift & 63));
    }
    /* 24 code bits at a time as four 6-bit groups; the code's last byte is
     * zero past its bits, and zeros follow it */
    for (int i = 0, c = 0; c < chars; i += 3) {
        uint32_t w = 0;
        for (int j = i; j < i + 3; j++)
            w = w << 8 | (j < cs->codelen ? cs->best_code[j] : 0);
        for (int shift = 18; shift >= 0 && c < chars; shift -= 6, c++)
            out[len++] = (char)(63 + (w >> shift & 63));
    }
    return len;
}

/* -- graph6 decoding ----------------------------------------------------- */

/* The edge characters of a graph6 line that graphs.unpack_graph6 accepts,
 * and its vertex count. */
struct g6 {
    const unsigned char *body;
    int n;
};

/* graphs._BLANKS */
static int blank(unsigned char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/* 0 with *out filled when graphs.unpack_graph6 accepts line, else -1 with
 * no exception set: the caller asks the pure twin for the error.  The
 * checks run in unpack_graph6's order; a line that is not an ASCII str
 * holds a byte outside the graph6 range or is no line at all. */
static int g6_parse(PyObject *line, struct g6 *out)
{
    if (!PyUnicode_Check(line) || !PyUnicode_IS_ASCII(line))
        return -1;
    const unsigned char *s = PyUnicode_1BYTE_DATA(line);
    Py_ssize_t len = PyUnicode_GET_LENGTH(line);
    while (len && blank(s[len - 1]))
        len--;
    while (len && blank(*s)) {
        s++;
        len--;
    }
    if (len >= 10 && !memcmp(s, ">>graph6<<", 10)) {
        s += 10;
        len -= 10;
    }
    if (!len)
        return -1;
    for (Py_ssize_t i = 0; i < len; i++)
        if (s[i] < '?' || s[i] > '~')
            return -1;
    Py_ssize_t body = 1;
    long n = s[0] - 63;
    if (s[0] == '~') {
        if (len < 4 || s[1] == '~')
            return -1;
        n = (long)(s[1] - 63) << 12 | (s[2] - 63) << 6 | (s[3] - 63);
        body = 4;
    }
    if (n > MAXN)
        return -1;
    long bits = n * (n - 1) / 2, need = (bits + 5) / 6;
    if (len - body != need)
        return -1;
    /* the padding fills the low end of the last character */
    if (need && (s[len - 1] - 63) & ((1 << (6 * need - bits)) - 1))
        return -1;
    out->body = s + body;
    out->n = (int)n;
    return 0;
}

/* edge bit k of a parsed line: six to a character, first bit on top */
static int g6_bit(const struct g6 *g, long k) { return (g->body[k / 6] - 63) >> (5 - k % 6) & 1; }

/* The rows of a parsed line; bit k is the edge ij with k = j(j-1)/2 + i,
 * the upper triangle column by column. */
static void g6_rows(const struct g6 *g, u64 *adj)
{
    long k = 0;
    memset(adj, 0, sizeof(u64) * (size_t)g->n);
    for (int j = 1; j < g->n; j++)
        for (int i = 0; i < j; i++, k++)
            if (g6_bit(g, k)) {
                adj[i] |= (u64)1 << j;
                adj[j] |= (u64)1 << i;
            }
}

/* The number of trailing columns of a parsed line that are all ones. */
static int g6_cone_count(const struct g6 *g)
{
    for (int j = g->n - 1; j >= 0; j--)
        for (long k = (long)j * (j - 1) / 2, end = k + j; k < end; k++)
            if (!g6_bit(g, k))
                return g->n - 1 - j;
    return g->n;
}

/* -- descent child loop --------------------------------------------------- */

/* A non-edge xy of the parent as one integer: its key above x and y, so
 * that integers order as the pure twin's (key, x, y) tuples. */
#define GAP_KEY(g) ((long)((g) >> 12))
#define GAP_X(g) ((int)((g) >> 6 & 63))
#define GAP_Y(g) ((int)((g) & 63))

static int descending(const void *a, const void *b)
{
    u64 x = *(const u64 *)a, y = *(const u64 *)b;
    return (x < y) - (x > y);
}

/* Whether the non-edge xy of adj, x < y, is re-addable: its common
 * neighbourhood holds no K_{q-2}.  verdict[x * n + y] keeps the answer as
 * 1 + it, 0 while untested, so each is found at most once per parent. */
static int readdable(const u64 *adj, int n, int x, int y, long q, unsigned char *verdict)
{
    unsigned char *vd = &verdict[x * n + y];
    if (!*vd)
        *vd = (unsigned char)(1 + !has_clique_within(adj, adj[x] & adj[y], q - 2));
    return *vd - 1;
}

/* 0 when a re-addable non-edge xy of adj, y in ys, holds no K_{q-3} in
 * child, else 1. */
static int reached_hold(const u64 *adj, const u64 *child, int n, int x, u64 ys, long q,
                        unsigned char *verdict)
{
    for (; ys; ys &= ys - 1) {
        int y = ctz(ys);
        if (readdable(adj, n, x < y ? x : y, x < y ? y : x, q, verdict)
            && !has_clique_within(child, child[x] & child[y], q - 3))
            return 0;
    }
    return 1;
}

/* The pure twin's child_is_plus_k: whether adj less its edge uv is
 * plus-K_{q-1}, adj being plus-K_{q-1}.  The pure descent_children's
 * docstring states why only the non-edges the removal reaches are tested. */
static int child_is_plus_k(const u64 *adj, int n, int u, int v, long q, unsigned char *verdict)
{
    u64 au = adj[u], av = adj[v], bu = (u64)1 << u, bv = (u64)1 << v, child[MAXN];
    if (!has_clique_within(adj, au & av, q - 3))
        return 0;
    memcpy(child, adj, sizeof(u64) * (size_t)n);
    child[u] = au ^ bv;
    child[v] = av ^ bu;
    if (!reached_hold(adj, child, n, u, av & ~(au | bu), q, verdict)
        || !reached_hold(adj, child, n, v, au & ~(av | bv), q, verdict))
        return 0;
    for (u64 m = au & av; m;) {
        int x = ctz(m);
        m &= m - 1;
        if (!reached_hold(adj, child, n, x, m & ~adj[x], q, verdict))
            return 0;
    }
    return 1;
}

/* A kept child P - uv: its canonical line and the removed edge.  The list
 * grows as children come, in the order the pure twin meets them. */
struct kept {
    int len, u, v;
    char line[G6MAX];
};

struct kept_list {
    struct kept *items;
    int count, cap;
};

static struct kept *new_kept(struct kept_list *kl)
{
    if (kl->count == kl->cap) {
        int cap = kl->cap ? 2 * kl->cap : 16;
        struct kept *items = PyMem_Realloc(kl->items, sizeof *items * (size_t)cap);
        if (items == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        kl->items = items;
        kl->cap = cap;
    }
    return &kl->items[kl->count++];
}

/* The pure twin's descent_children loop; dead is updated in place.
 * Returns -1 with an exception set when memory runs out. */
static int descent_children(const u64 *adj, int n, u64 *dead, const struct vector *vec,
                            long q, long t, struct canon *cs, struct kept_list *out)
{
    u64 twin[MAXN], cadj[MAXN], after[MAXN] = {0}, later = 0, full = full_mask(n);
    u64 gaps[MAXGAPS], rpair[MAXGAPS];
    long rkey[MAXGAPS];
    int deg[MAXN], ngaps = 0, done = 0, nreadd = 0;
    unsigned char verdict[MAXN * MAXN];
    memset(verdict, 0, (size_t)(n * n));
    twin_pairs(adj, n, twin);
    for (int x = n - 1; x >= 0; x--) {
        u64 ax = adj[x];
        int dx = deg[x] = popc(ax);
        u64 cx = cadj[x] = full ^ ax ^ (u64)1 << x;
        if (twin[x]) {
            later |= (u64)1 << x;
            after[ctz(twin[x])] = (u64)1 << x;
        }
        for (u64 rest = cx & above(x); rest; rest &= rest - 1) {
            int y = ctz(rest);
            u64 key = (u64)(popc(ax & adj[y]) << 7 | (dx + deg[y]));
            gaps[ngaps++] = key << 12 | (u64)x << 6 | (u64)y;
        }
    }
    qsort(gaps, (size_t)ngaps, sizeof *gaps, descending);
    for (int u = 0; u < n; u++) {
        if (twin[u])
            continue;
        u64 au = adj[u], bu = (u64)1 << u;
        u64 row = ((au & above(u) & ~later) | (after[u] & au)) & ~dead[u];
        for (; row; row &= row - 1) {
            int v = ctz(row), i, outranked = 0;
            u64 bv = (u64)1 << v, uv = bu | bv, child[MAXN];
            long key = popc(au & adj[v]) << 7 | (deg[u] + deg[v] - 2);
            for (i = 0; i < nreadd; i++) {
                if (rkey[i] <= key)
                    break;
                if (!(rpair[i] & uv)) {
                    outranked = 1;
                    break;
                }
            }
            if (i == nreadd)
                while (done < ngaps && GAP_KEY(gaps[done]) > key) {
                    u64 g = gaps[done++];
                    int x = GAP_X(g), y = GAP_Y(g);
                    if (readdable(adj, n, x, y, q, verdict)) {
                        rkey[nreadd] = GAP_KEY(g);
                        rpair[nreadd] = (u64)1 << x | (u64)1 << y;
                        if (!(rpair[nreadd++] & uv)) {
                            outranked = 1;
                            break;
                        }
                    }
                }
            if (outranked)
                continue;
            memcpy(child, adj, sizeof(u64) * (size_t)n);
            child[u] = au ^ bv;
            child[v] ^= bu;
            if (!child_is_plus_k(adj, n, u, v, q, verdict)
                || has_clique_within(cadj, cadj[u] & cadj[v], t - 1)
                || (vec->s && !arrows(child, n, vec))) {
                dead[u] |= bv;
                dead[v] |= bu;
                continue;
            }
            for (i = 0; i < ngaps; i++) {
                long k = GAP_KEY(gaps[i]);
                if (k <= key)
                    break;
                int x = GAP_X(gaps[i]), y = GAP_Y(gaps[i]);
                u64 common = child[x] & child[y];
                if (x == u || x == v || y == u || y == v) {
                    if ((popc(common) << 7 | ((k & 127) - 1)) <= key)
                        continue;
                } else if ((common & uv) != uv)
                    continue;
                if (!has_clique_within(child, common, q - 2)) {
                    outranked = 1;
                    break;
                }
            }
            if (outranked)
                continue;
            struct kept *kp = new_kept(out);
            if (kp == NULL || label(cs, child, n) < 0)
                return -1;
            kp->len = graph6_line(cs, kp->line);
            kp->u = u;
            kp->v = v;
        }
    }
    return 0;
}

/* Orders kept children by line, then by the order they were kept in, so
 * that the first of a line comes first (the pure twin's setdefault). */
static int by_line(const void *a, const void *b)
{
    const struct kept *x = *(const struct kept *const *)a, *y = *(const struct kept *const *)b;
    int c = memcmp(x->line, y->line, (size_t)(x->len < y->len ? x->len : y->len));
    if (c == 0)
        c = (x->len > y->len) - (x->len < y->len);
    return c ? c : (x > y) - (x < y);
}

/* -- extension host loop ------------------------------------------------- */

static int ascending(const void *a, const void *b)
{
    u64 x = *(const u64 *)a, y = *(const u64 *)b;
    return (x > y) - (x < y);
}

/* The pure twin's _clique_masks (its extend), less inc, which the caller
 * builds once the count is known. */
static int clique_masks(const u64 *adj, u64 clique, u64 cand, int need, struct u64vec *out)
{
    if (need == 1) {
        for (; cand; cand &= cand - 1)
            if (push(out, clique | low(cand)) < 0)
                return -1;
        return 0;
    }
    while (popc(cand) >= need) {
        u64 b = low(cand);
        cand ^= b;
        if (clique_masks(adj, clique | b, cand & adj[ctz(b)], need - 1, out) < 0)
            return -1;
    }
    return 0;
}

/* The state of one MMCS run.  A set of cliques is nw words; inc holds nw
 * words per vertex.  levels[d], for a node whose transversal has d
 * vertices, holds its d crit sets and then its uncovered set; it is
 * allocated when first reached and rewritten by each node at that depth. */
struct mmcs {
    const u64 *cliques, *inc;
    size_t nw;
    int most;
    u64 full;
    u64 *levels[MAXN + 2];
    struct u64vec *out;
};

static int mmcs_rec(struct mmcs *m, int d, u64 S, u64 cand)
{
    size_t nw = m->nw;
    const u64 *crit = m->levels[d], *uncov = crit + (size_t)d * nw;
    u64 best = 0, *next;
    int most = m->most;
    for (size_t w = 0; w < nw && most > 1; w++)
        for (u64 rest = uncov[w]; rest; rest &= rest - 1) {
            u64 c = m->cliques[w * 64 + (size_t)ctz(rest)] & cand;
            int k = popc(c);
            if (k < most) {
                best = c;
                most = k;
                if (k <= 1)
                    break;
            }
        }
    if (best == 0)
        return 0;
    cand &= ~best;
    next = m->levels[d + 1];
    if (next == NULL) {
        next = m->levels[d + 1] = PyMem_Malloc(sizeof *next * (size_t)(d + 2) * nw);
        if (next == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    }
    for (; best; best &= best - 1) {
        u64 b = low(best), any = 1;
        const u64 *hit = m->inc + (size_t)ctz(b) * nw;
        for (size_t j = 0; j < (size_t)d && any; j++) {
            any = 0;
            for (size_t w = 0; w < nw; w++)
                any |= next[j * nw + w] = crit[j * nw + w] & ~hit[w];
        }
        if (any) {
            u64 *left = next + (size_t)(d + 1) * nw;
            any = 0;
            for (size_t w = 0; w < nw; w++)
                any |= left[w] = uncov[w] & ~hit[w];
            if (any) {
                for (size_t w = 0; w < nw; w++)
                    next[(size_t)d * nw + w] = hit[w] & uncov[w];
                if (mmcs_rec(m, d + 1, S | b, cand) < 0)
                    return -1;
            } else if (push(m->out, m->full ^ S ^ b) < 0)
                return -1;
        }
        cand |= b;
    }
    return 0;
}

/* The pure twin's maximal_kt_free_subsets for t >= 1: out gets the masks
 * in ascending order.  Returns -1 with MemoryError set. */
static int maximal_kt_free_subsets(const u64 *adj, int n, long t, u64 keep, struct u64vec *out)
{
    struct u64vec cliques = {0};
    struct mmcs m = {0};
    u64 *inc = NULL;
    int err = clique_masks(adj, 0, full_mask(n), t > n ? n + 1 : (int)t, &cliques);
    if (err == 0 && cliques.count == 0)
        err = push(out, full_mask(n));
    else if (err == 0) {
        size_t nc = cliques.count, nw = (nc + 63) / 64;
        inc = new_words((size_t)n * nw);
        m.levels[0] = new_words(nw);
        err = inc == NULL || m.levels[0] == NULL ? -1 : 0;
        if (err == 0) {
            for (size_t i = 0; i < nc; i++) {
                for (u64 c = cliques.items[i]; c; c &= c - 1)
                    inc[(size_t)ctz(c) * nw + i / 64] |= (u64)1 << (i % 64);
                m.levels[0][i / 64] |= (u64)1 << (i % 64);
            }
            m.cliques = cliques.items;
            m.inc = inc;
            m.nw = nw;
            m.most = (int)t + 1;
            m.full = full_mask(n);
            m.out = out;
            err = mmcs_rec(&m, 0, 0, full_mask(n) & ~keep);
        }
        if (err == 0 && out->count)
            qsort(out->items, out->count, sizeof *out->items, ascending);
    }
    for (int d = 0; d < MAXN + 2; d++)
        PyMem_Free(m.levels[d]);
    PyMem_Free(inc);
    PyMem_Free(cliques.items);
    return err;
}

/* A map from 64-bit keys to values 0..127, open addressing; an empty slot
 * holds -1. */
struct memo {
    u64 *keys;
    signed char *vals;
    size_t mask, count;
};

static size_t memo_slot(const struct memo *m, u64 key)
{
    u64 h = key ^ key >> 33;
    h *= 0xff51afd7ed558ccdULL;
    size_t i = (size_t)(h ^ h >> 33) & m->mask;
    while (m->vals[i] >= 0 && m->keys[i] != key)
        i = (i + 1) & m->mask;
    return i;
}

static int memo_get(const struct memo *m, u64 key)
{
    return m->vals ? m->vals[memo_slot(m, key)] : -1;
}

static int memo_put(struct memo *m, u64 key, int val)
{
    if (m->vals == NULL || 2 * (m->count + 1) > m->mask + 1) {
        struct memo grown = {0};
        size_t cap = m->vals ? 2 * (m->mask + 1) : 64;
        grown.keys = PyMem_Malloc(sizeof *grown.keys * cap);
        grown.vals = PyMem_Malloc(cap);
        if (grown.keys == NULL || grown.vals == NULL) {
            PyMem_Free(grown.keys);
            PyMem_Free(grown.vals);
            PyErr_NoMemory();
            return -1;
        }
        memset(grown.vals, -1, cap);
        grown.mask = cap - 1;
        grown.count = m->count;
        for (size_t i = 0; m->vals && i <= m->mask; i++)
            if (m->vals[i] >= 0) {
                size_t j = memo_slot(&grown, m->keys[i]);
                grown.keys[j] = m->keys[i];
                grown.vals[j] = m->vals[i];
            }
        PyMem_Free(m->keys);
        PyMem_Free(m->vals);
        *m = grown;
    }
    size_t i = memo_slot(m, key);
    m->count += m->vals[i] < 0;
    m->keys[i] = key;
    m->vals[i] = (signed char)val;
    return 0;
}

/* One slot depth of the multiset search: the deficient non-edges covered
 * by the slots before it, the unions of every subset of those slots
 * (index b: the slots at the bits of b) and the candidate it takes. */
struct mlevel {
    u64 *covered, *unions, chosen;
};

/* The state of one valid_multisets call.  A set of deficient non-edges is
 * dw words; fix holds dw words per candidate and ahead dw words per
 * candidate position and one more.  out gets r subset indices per
 * multiset, found of them. */
struct multisets {
    const u64 *adj;
    u64 cadj[MAXN], full;
    long q, r, t;
    struct u64vec subsets, cand;
    size_t dw, found, nlevels;
    u64 *fix, *ahead, *need;
    struct memo alpha, pairs;
    struct mlevel *levels;
    struct u64vec out;
};

static void free_multisets(struct multisets *s)
{
    for (size_t d = 0; d < s->nlevels; d++) {
        PyMem_Free(s->levels[d].covered);
        PyMem_Free(s->levels[d].unions);
    }
    PyMem_Free(s->levels);
    PyMem_Free(s->subsets.items);
    PyMem_Free(s->cand.items);
    PyMem_Free(s->fix);
    PyMem_Free(s->ahead);
    PyMem_Free(s->need);
    PyMem_Free(s->alpha.keys);
    PyMem_Free(s->alpha.vals);
    PyMem_Free(s->pairs.keys);
    PyMem_Free(s->pairs.vals);
    PyMem_Free(s->out.items);
}

/* levels[d], allocated when first reached; NULL with MemoryError set */
static struct mlevel *level_at(struct multisets *s, size_t d)
{
    if (d >= s->nlevels) {
        size_t count = 2 * d + 2;
        struct mlevel *levels = PyMem_Realloc(s->levels, sizeof *levels * count);
        if (levels == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        memset(levels + s->nlevels, 0, sizeof *levels * (count - s->nlevels));
        s->levels = levels;
        s->nlevels = count;
    }
    struct mlevel *lv = &s->levels[d];
    if (lv->covered == NULL) {
        if (d >= 48) {
            PyErr_NoMemory();
            return NULL;
        }
        lv->covered = new_words(s->dw);
        lv->unions = PyMem_Malloc(sizeof *lv->unions << d);
        if (lv->covered == NULL || lv->unions == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
    }
    return lv;
}

/* The pure twin's rest_ok: *ok when deleting uni leaves independence
 * number at most t - k. */
static int rest_ok(struct multisets *s, u64 uni, long k, int *ok)
{
    int got = memo_get(&s->alpha, uni);
    if (got < 0) {
        u64 rest = s->full & ~uni;
        got = clique_search(s->cadj, rest, 0, popc(rest));
        if (memo_put(&s->alpha, uni, got) < 0)
            return -1;
    }
    *ok = got <= s->t - k;
    return 0;
}

/* The pure twin's compatible, for distinct subsets i and j; a candidate
 * meets itself in a K_{q-2}, as its filter found. */
static int compatible(struct multisets *s, u64 i, u64 j, int *ok)
{
    if (i == j) {
        *ok = 1;
        return 0;
    }
    u64 key = i < j ? i * s->subsets.count + j : j * s->subsets.count + i;
    int got = memo_get(&s->pairs, key);
    if (got < 0) {
        got = has_clique_within(s->adj, s->subsets.items[i] & s->subsets.items[j], s->q - 2);
        if (memo_put(&s->pairs, key, got) < 0)
            return -1;
    }
    *ok = got;
    return 0;
}

/* whether a | b covers need, over dw words */
static int covers(const u64 *a, const u64 *b, const u64 *need, size_t dw)
{
    for (size_t w = 0; w < dw; w++)
        if ((a[w] | b[w]) != need[w])
            return 0;
    return 1;
}

/* The pure twin's rec at slot depth d.  levels may move when a deeper one
 * is first allocated, so they are looked up again after each call. */
static int multisets_rec(struct multisets *s, size_t start, size_t d)
{
    size_t dw = s->dw, half = (size_t)1 << d;
    if ((long)d == s->r) {
        for (size_t j = 0; j < d; j++)
            if (push(&s->out, s->levels[j].chosen) < 0)
                return -1;
        s->found++;
        return 0;
    }
    int last = (long)d == s->r - 1;
    for (size_t pos = start; pos < s->cand.count; pos++) {
        const u64 *covered = s->levels[d].covered, *fix = s->fix + pos * dw;
        if (!covers(covered, s->ahead + pos * dw, s->need, dw))
            break;
        if (last && !covers(covered, fix, s->need, dw))
            continue;
        u64 i = s->cand.items[pos], M = s->subsets.items[i];
        int ok = 1;
        for (size_t j = 0; j < d && ok; j++)
            if (compatible(s, s->levels[j].chosen, i, &ok) < 0)
                return -1;
        if (!ok)
            continue;
        if (level_at(s, d + 1) == NULL)
            return -1;
        struct mlevel *cur = &s->levels[d], *next = &s->levels[d + 1];
        memcpy(next->unions, cur->unions, sizeof *cur->unions * half);
        for (size_t b = 0; b < half && ok; b++) {
            u64 uni = cur->unions[b] | M;
            if (rest_ok(s, uni, popc(b) + 1, &ok) < 0)
                return -1;
            next->unions[half + b] = uni;
        }
        if (!ok)
            continue;
        cur->chosen = i;
        for (size_t w = 0; w < dw; w++)
            next->covered[w] = covered[w] | fix[w];
        if (multisets_rec(s, pos, d + 1) < 0)
            return -1;
    }
    return 0;
}

/* The pure twin's _deficient_cover: pairs and commons get each deficient
 * non-edge's ends and common neighbourhood (fixes below, need and ends
 * from the count).  Returns -1 with MemoryError set. */
static int deficient_cover(const u64 *adj, int n, long q, struct u64vec *pairs, struct u64vec *commons)
{
    for (int x = 0; x < n; x++)
        for (u64 rest = ~adj[x] & full_mask(n) & above(x); rest; rest &= rest - 1) {
            u64 common = adj[x] & adj[ctz(rest)];
            if (!has_clique_within(adj, common, q - 2)
                && (push(pairs, (u64)1 << x | low(rest)) < 0 || push(commons, common) < 0))
                return -1;
        }
    return 0;
}

/* The pure twin's fixes(M): the bits, over dw words of out, of the
 * deficient non-edges that M fixes. */
static void fixes(const u64 *adj, long q, const struct u64vec *pairs, const struct u64vec *commons,
                  u64 M, u64 *out)
{
    for (size_t i = 0; i < pairs->count; i++)
        if ((pairs->items[i] & M) == pairs->items[i]
            && has_clique_within(adj, commons->items[i] & M, q - 3))
            out[i / 64] |= (u64)1 << (i % 64);
}

/* The pure twin's valid_multisets on the n rows adj, q >= 2, r >= 0: the
 * multisets go to s->out as subset indices into s->subsets.  The caller
 * frees s.  Returns -1 with an exception set. */
static int valid_multisets(struct multisets *s, const u64 *adj, int n, long q, long r, long t)
{
    struct u64vec pairs = {0}, commons = {0};
    u64 full = full_mask(n), ends = 0;
    s->adj = adj;
    s->full = full;
    s->q = q;
    s->r = r;
    s->t = t;
    int err = deficient_cover(adj, n, q, &pairs, &commons) < 0;
    size_t nd = pairs.count, dw = s->dw = (nd + 63) / 64;
    for (size_t i = 0; i < nd; i++)
        ends |= pairs.items[i];
    if (!err && r == 0)
        s->found = nd == 0;
    else if (!err) {
        s->need = new_words(dw);
        err = s->need == NULL
              || maximal_kt_free_subsets(adj, n, q - 1, r == 1 ? ends : 0, &s->subsets) < 0;
    }
    if (!err && r > 0) {
        for (int v = 0; v < n; v++)
            s->cadj[v] = full ^ adj[v] ^ (u64)1 << v;
        for (size_t i = 0; i < nd; i++)
            s->need[i / 64] |= (u64)1 << (i % 64);
    }
    if (!err && r == 1) {
        /* the ends lemma; the residue of one set M is V - M */
        u64 *fix = s->fix = new_words(dw);
        err = fix == NULL;
        for (size_t i = 0; !err && i < s->subsets.count; i++) {
            u64 M = s->subsets.items[i];
            memset(fix, 0, sizeof *fix * dw);
            fixes(adj, q, &pairs, &commons, M, fix);
            if (memcmp(fix, s->need, sizeof *fix * dw) == 0
                && (M != full || has_clique_within(adj, M, q - 2))
                && !has_clique_within(s->cadj, full & ~M, t)) {
                err = push(&s->out, i) < 0;
                s->found++;
            }
        }
    } else if (!err && r > 1) {
        for (size_t i = 0; !err && i < s->subsets.count; i++) {
            u64 M = s->subsets.items[i];
            int ok = M != full || has_clique_within(adj, M, q - 2);
            err = (ok && rest_ok(s, M, 1, &ok) < 0) || (ok && push(&s->cand, i) < 0);
        }
        size_t nc = s->cand.count;
        if (!err) {
            s->fix = new_words(nc * dw);
            s->ahead = new_words((nc + 1) * dw);
            err = s->fix == NULL || s->ahead == NULL;
        }
        if (!err) {
            for (size_t pos = 0; pos < nc; pos++)
                fixes(adj, q, &pairs, &commons, s->subsets.items[s->cand.items[pos]], s->fix + pos * dw);
            for (size_t pos = nc; pos-- > 0;)
                for (size_t w = 0; w < dw; w++)
                    s->ahead[pos * dw + w] = s->ahead[(pos + 1) * dw + w] | s->fix[pos * dw + w];
            struct mlevel *root = level_at(s, 0);
            err = root == NULL;
            if (!err) {
                root->unions[0] = 0;
                err = multisets_rec(s, 0, 0) < 0;
            }
        }
    }
    PyMem_Free(pairs.items);
    PyMem_Free(commons.items);
    return err ? -1 : 0;
}

/* The pure twin's extension_lines: out gets one kept line per multiset
 * whose graph arrows vec. */
static int extension_lines(const u64 *adj, int n, const struct vector *vec, long q, long r,
                           long t, struct canon *cs, struct kept_list *out)
{
    struct multisets s = {0};
    int err = valid_multisets(&s, adj, n, q, r, t);
    if (err == 0 && s.found && n + r > MAXN) {
        /* graphs.attach's error */
        PyObject *graphs = PyImport_ImportModule("folkman.graphs");
        PyObject *exc = graphs ? PyObject_GetAttrString(graphs, "CapacityError") : NULL;
        if (exc != NULL)
            PyErr_Format(exc, "extension would need %ld vertices", n + r);
        Py_XDECREF(exc);
        Py_XDECREF(graphs);
        err = -1;
    }
    for (size_t k = 0; err == 0 && k < s.found; k++) {
        u64 child[MAXN];
        int m = n + (int)r;
        memcpy(child, adj, sizeof(u64) * (size_t)n);
        for (int j = n; j < m; j++) {
            u64 M = child[j] = s.subsets.items[s.out.items[k * (size_t)r + (size_t)(j - n)]];
            for (; M; M &= M - 1)
                child[ctz(M)] |= (u64)1 << j;
        }
        if (!arrows(child, m, vec))
            continue;
        struct kept *kp = new_kept(out);
        if (kp == NULL || label(cs, child, m) < 0)
            err = -1;
        else
            kp->len = graph6_line(cs, kp->line);
    }
    free_multisets(&s);
    return err;
}

/* -- module functions ----------------------------------------------------- */

static PyObject *masks_tuple(const u64 *rows, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(rows[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* The kept items ordered by_line; NULL with MemoryError set. */
static struct kept **sorted_kept(const struct kept_list *kl)
{
    struct kept **order = PyMem_Malloc(sizeof *order * (size_t)(kl->count + 1));
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int i = 0; i < kl->count; i++)
        order[i] = &kl->items[i];
    qsort(order, (size_t)kl->count, sizeof *order, by_line);
    return order;
}

/* whether order[i] repeats the line before it */
static int repeated(struct kept *const *order, int i)
{
    return i && order[i]->len == order[i - 1]->len
           && !memcmp(order[i]->line, order[i - 1]->line, (size_t)order[i]->len);
}

/* The rows of the kept child P - uv: P's own int objects rows[i], but for
 * the two that lose the edge. */
static PyObject *child_rows(const struct kept *kp, const u64 *adj, PyObject *const *rows, int n)
{
    PyObject *out = PyTuple_New(n);
    for (int i = 0; out && i < n; i++) {
        PyObject *row = rows[i];
        if (i == kp->u || i == kp->v) {
            row = PyLong_FromUnsignedLongLong(adj[i] & ~((u64)1 << (kp->u + kp->v - i)));
            if (row == NULL)
                Py_CLEAR(out);
        } else
            Py_INCREF(row);
        if (out)
            PyTuple_SET_ITEM(out, i, row);
    }
    return out;
}

/* The sorted (line, (child, dead)) list of the kept children of P = adj,
 * whose row objects are rows, the first child of each line. */
static PyObject *children_list(const struct kept_list *kl, const u64 *adj, PyObject *const *rows,
                               const u64 *dead, int n)
{
    struct kept **order = sorted_kept(kl);
    PyObject *final = masks_tuple(dead, n), *out = PyList_New(0);
    if (order == NULL || final == NULL || out == NULL)
        goto fail;
    for (int i = 0; i < kl->count; i++) {
        const struct kept *kp = order[i];
        if (repeated(order, i))
            continue;
        PyObject *line = PyUnicode_DecodeASCII(kp->line, kp->len, NULL);
        PyObject *child = child_rows(kp, adj, rows, n);
        PyObject *task = child ? PyTuple_Pack(2, child, final) : NULL;
        PyObject *item = line && task ? PyTuple_Pack(2, line, task) : NULL;
        int err = item == NULL || PyList_Append(out, item) < 0;
        Py_XDECREF(line);
        Py_XDECREF(child);
        Py_XDECREF(task);
        Py_XDECREF(item);
        if (err)
            goto fail;
    }
    PyMem_Free(order);
    Py_DECREF(final);
    return out;
fail:
    PyMem_Free(order);
    Py_XDECREF(final);
    Py_XDECREF(out);
    return NULL;
}

/* The sorted list of the kept lines, each once. */
static PyObject *lines_list(const struct kept_list *kl)
{
    struct kept **order = sorted_kept(kl);
    PyObject *out = order ? PyList_New(0) : NULL;
    for (int i = 0; out && i < kl->count; i++) {
        if (repeated(order, i))
            continue;
        PyObject *line = PyUnicode_DecodeASCII(order[i]->line, order[i]->len, NULL);
        if (line == NULL || PyList_Append(out, line) < 0)
            Py_CLEAR(out);
        Py_XDECREF(line);
    }
    PyMem_Free(order);
    return out;
}

/* The list of the masks items[0..count). */
static PyObject *masks_list(const u64 *items, size_t count)
{
    PyObject *got = masks_tuple(items, (Py_ssize_t)count), *out = got ? PySequence_List(got) : NULL;
    Py_XDECREF(got);
    return out;
}

/* The list of the multisets found, each a tuple of r masks. */
static PyObject *multisets_list(const struct multisets *s)
{
    size_t r = (size_t)s->r;
    PyObject *out = PyList_New((Py_ssize_t)s->found);
    for (size_t k = 0; out && k < s->found; k++) {
        PyObject *item = PyTuple_New((Py_ssize_t)r);
        for (size_t j = 0; item && j < r; j++) {
            PyObject *v = PyLong_FromUnsignedLongLong(s->subsets.items[s->out.items[k * r + j]]);
            if (v == NULL)
                Py_CLEAR(item);
            else
                PyTuple_SET_ITEM(item, (Py_ssize_t)j, v);
        }
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)k, item);
    }
    return out;
}

static PyObject *
meth_max_clique_size_within(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], mask;
    (void)self;
    if (check_nargs("max_clique_size_within", nargs, 2) < 0 || load(args[0], adj) < 0
        || load_mask(args[1], &mask) < 0)
        return NULL;
    return PyLong_FromLong(clique_search(adj, mask, 0, popc(mask)));
}

static PyObject *
meth_max_clique_size(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    (void)self;
    if (check_nargs("max_clique_size", nargs, 1) < 0 || (n = load(args[0], adj)) < 0)
        return NULL;
    return PyLong_FromLong(clique_search(adj, full_mask(n), 0, n));
}

static PyObject *
meth_has_clique_within(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], mask;
    long t;
    (void)self;
    if (check_nargs("has_clique_within", nargs, 3) < 0 || load(args[0], adj) < 0
        || load_mask(args[1], &mask) < 0 || load_long(args[2], &t) < 0)
        return NULL;
    return PyBool_FromLong(has_clique_within(adj, mask, t));
}

static PyObject *
meth_has_clique_at_least(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    long t;
    (void)self;
    if (check_nargs("has_clique_at_least", nargs, 2) < 0 || (n = load(args[0], adj)) < 0
        || load_long(args[1], &t) < 0)
        return NULL;
    return PyBool_FromLong(has_clique_within(adj, full_mask(n), t));
}

static PyObject *
meth_is_plus_k(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    long t;
    (void)self;
    if (check_nargs("is_plus_k", nargs, 2) < 0 || (n = load(args[0], adj)) < 0
        || load_long(args[1], &t) < 0)
        return NULL;
    return PyBool_FromLong(is_plus_k(adj, n, t));
}

static PyObject *
meth_free_partition(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    struct vector limits;
    (void)self;
    if (check_nargs("free_partition", nargs, 2) < 0 || (n = load(args[0], adj)) < 0
        || load_vector(args[1], &limits) < 0)
        return NULL;
    PyObject *out = free_partition(adj, n, limits.entries, limits.s, limits.classes)
                        ? masks_tuple(limits.classes, limits.s)
                        : Py_NewRef(Py_None);
    free_vector(&limits);
    return out;
}

static PyObject *
meth_arrows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    struct vector vec;
    (void)self;
    if (check_nargs("arrows", nargs, 2) < 0 || (n = load(args[0], adj)) < 0
        || load_vector(args[1], &vec) < 0)
        return NULL;
    int got = arrows(adj, n, &vec);
    free_vector(&vec);
    return PyBool_FromLong(got);
}

static PyObject *
meth_twin_pairs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], pairs[MAXN];
    int n;
    (void)self;
    if (check_nargs("twin_pairs", nargs, 1) < 0 || (n = load(args[0], adj)) < 0)
        return NULL;
    twin_pairs(adj, n, pairs);
    /* a list, as the pure twin returns */
    return masks_list(pairs, (size_t)n);
}

static PyObject *
meth_canonical_perm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct canon cs = {0};
    u64 adj[MAXN];
    int n;
    (void)self;
    if (check_nargs("canonical_perm", nargs, 1) < 0 || (n = load(args[0], adj)) < 0)
        return NULL;
    int err = label(&cs, adj, n);
    PyMem_Free(cs.gens);
    if (err < 0)
        return NULL;
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(cs.best_perm[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

static PyObject *
meth_canonical_line(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct canon cs = {0};
    u64 adj[MAXN];
    int n;
    char line[G6MAX];
    (void)self;
    if (check_nargs("canonical_line", nargs, 1) < 0 || (n = load(args[0], adj)) < 0)
        return NULL;
    int err = label(&cs, adj, n);
    PyMem_Free(cs.gens);
    if (err < 0)
        return NULL;
    return PyUnicode_DecodeASCII(line, graph6_line(&cs, line), NULL);
}

/* The pure twin's kernel name called on the arguments the compiled one
 * rejected, so that it raises its error; NULL with that error set, or with
 * SystemError if the pure twin accepts them after all. */
static PyObject *pure_twin_error(const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *mod = PyImport_ImportModule("folkman._kernels_py");
    PyObject *f = mod ? PyObject_GetAttrString(mod, name) : NULL;
    PyObject *got = f ? PyObject_Vectorcall(f, args, (size_t)nargs, NULL) : NULL;
    Py_XDECREF(mod);
    Py_XDECREF(f);
    if (got != NULL) {
        Py_DECREF(got);
        PyErr_Format(PyExc_SystemError, "%s: the pure twin accepts what the compiled twin rejected",
                     name);
    }
    return NULL;
}

static PyObject *
meth_graph6_adj(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct g6 g;
    u64 adj[MAXN];
    (void)self;
    if (nargs != 1 || g6_parse(args[0], &g) < 0)
        return pure_twin_error("graph6_adj", args, nargs);
    g6_rows(&g, adj);
    return masks_tuple(adj, g.n);
}

static PyObject *
meth_cone_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct g6 g;
    (void)self;
    if (nargs != 1 || g6_parse(args[0], &g) < 0)
        return pure_twin_error("cone_count", args, nargs);
    return PyLong_FromLong(g6_cone_count(&g));
}

static PyObject *
meth_descent_children(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], dead[MAXN];
    int n, nd;
    long q, t;
    (void)self;
    if (check_nargs("descent_children", nargs, 5) < 0)
        return NULL;
    /* one sequence of rows is read, whose objects the children share */
    PyObject *rows = PySequence_Fast(args[0], "adjacency must be a sequence of int masks");
    if (rows == NULL)
        return NULL;
    PyObject *out = NULL;
    struct vector vec;
    if ((n = load(rows, adj)) < 0 || (nd = load(args[1], dead)) < 0 || load_long(args[3], &q) < 0
        || load_long(args[4], &t) < 0)
        goto done;
    if (nd != n) {
        PyErr_Format(PyExc_ValueError, "%d dead masks for %d vertices", nd, n);
        goto done;
    }
    /* the loop reads the degree of every vertex a row names */
    if (check_rows(adj, n) < 0 || load_vector(args[2], &vec) < 0)
        goto done;
    {
        struct canon cs = {0};
        struct kept_list kept = {0};
        if (descent_children(adj, n, dead, &vec, q, t, &cs, &kept) == 0)
            out = children_list(&kept, adj, PySequence_Fast_ITEMS(rows), dead, n);
        PyMem_Free(cs.gens);
        PyMem_Free(kept.items);
        free_vector(&vec);
    }
done:
    Py_DECREF(rows);
    return out;
}

static PyObject *
meth_child_is_plus_k(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    unsigned char own[MAXN * MAXN], *verdict = own;
    int n;
    long u, v, q;
    (void)self;
    if (nargs != 4 && nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "child_is_plus_k() takes 4 or 5 positional arguments (%zd given)", nargs);
        return NULL;
    }
    if ((n = load(args[0], adj)) < 0 || load_long(args[1], &u) < 0 || load_long(args[2], &v) < 0
        || load_long(args[3], &q) < 0 || check_rows(adj, n) < 0)
        return NULL;
    if (u < 0 || u >= n || v < 0 || v >= n || !(adj[u] >> v & 1)) {
        PyErr_Format(PyExc_ValueError, "%ld %ld is not an edge", u, v);
        return NULL;
    }
    if (nargs == 5 && args[4] != Py_None) {
        /* the caller's verdicts, read and written in place */
        if (!PyByteArray_Check(args[4]) || PyByteArray_GET_SIZE(args[4]) != n * n) {
            PyErr_Format(PyExc_ValueError, "verdict must be a bytearray of %d bytes", n * n);
            return NULL;
        }
        verdict = (unsigned char *)PyByteArray_AS_STRING(args[4]);
    } else
        memset(own, 0, (size_t)(n * n));
    return PyBool_FromLong(child_is_plus_k(adj, n, (int)u, (int)v, q, verdict));
}

static PyObject *
meth_maximal_kt_free_subsets(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], keep;
    int n;
    long t;
    (void)self;
    if (check_nargs("maximal_kt_free_subsets", nargs, 3) < 0 || (n = load(args[0], adj)) < 0
        || load_long(args[1], &t) < 0 || load_mask(args[2], &keep) < 0)
        return NULL;
    if (t < 1) {
        PyErr_Format(PyExc_ValueError, "subset clique threshold %ld below 1", t);
        return NULL;
    }
    struct u64vec got = {0};
    PyObject *out = maximal_kt_free_subsets(adj, n, t, keep, &got) < 0 ? NULL : masks_list(got.items, got.count);
    PyMem_Free(got.items);
    return out;
}

/* The rows and the q, r, t of valid_multisets and extension_lines, with
 * the pure twin's errors for r < 0 and q < 2; returns n or -1. */
static int load_host(PyObject *rows, PyObject *const *qrt, u64 *adj, long *q, long *r, long *t)
{
    int n = load(rows, adj);
    if (n < 0 || check_rows(adj, n) < 0 || load_long(qrt[0], q) < 0 || load_long(qrt[1], r) < 0
        || load_long(qrt[2], t) < 0)
        return -1;
    if (*r < 0) {
        PyErr_Format(PyExc_ValueError, "negative multiset size %ld", *r);
        return -1;
    }
    if (*q < 2) {
        PyErr_Format(PyExc_ValueError, "subset clique threshold %ld below 1", *q - 1);
        return -1;
    }
    return n;
}

static PyObject *
meth_valid_multisets(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    long q, r, t;
    (void)self;
    if (check_nargs("valid_multisets", nargs, 4) < 0
        || (n = load_host(args[0], args + 1, adj, &q, &r, &t)) < 0)
        return NULL;
    struct multisets s = {0};
    PyObject *out = valid_multisets(&s, adj, n, q, r, t) < 0 ? NULL : multisets_list(&s);
    free_multisets(&s);
    return out;
}

static PyObject *
meth_extension_lines(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    long q, r, t;
    struct vector vec;
    (void)self;
    if (check_nargs("extension_lines", nargs, 5) < 0
        || (n = load_host(args[0], args + 2, adj, &q, &r, &t)) < 0
        || load_vector(args[1], &vec) < 0)
        return NULL;
    struct canon cs = {0};
    struct kept_list kept = {0};
    PyObject *out = NULL;
    if (extension_lines(adj, n, &vec, q, r, t, &cs, &kept) == 0)
        out = lines_list(&kept);
    PyMem_Free(cs.gens);
    PyMem_Free(kept.items);
    free_vector(&vec);
    return out;
}

static PyMethodDef methods[] = {
    {"max_clique_size_within", (PyCFunction)(void (*)(void))meth_max_clique_size_within,
     METH_FASTCALL, "Clique number of the subgraph induced on the vertex mask."},
    {"max_clique_size", (PyCFunction)(void (*)(void))meth_max_clique_size, METH_FASTCALL,
     "Clique number of the graph."},
    {"has_clique_within", (PyCFunction)(void (*)(void))meth_has_clique_within,
     METH_FASTCALL, "True iff the subgraph induced on mask contains a t-clique."},
    {"has_clique_at_least", (PyCFunction)(void (*)(void))meth_has_clique_at_least,
     METH_FASTCALL, "True iff the graph contains a t-clique."},
    {"is_plus_k", (PyCFunction)(void (*)(void))meth_is_plus_k, METH_FASTCALL,
     "True iff adding any missing edge creates a new t-clique."},
    {"free_partition", (PyCFunction)(void (*)(void))meth_free_partition, METH_FASTCALL,
     "Classes with clique numbers at most limits, as a tuple of masks, or None."},
    {"arrows", (PyCFunction)(void (*)(void))meth_arrows, METH_FASTCALL,
     "True iff the graph arrows the canonical vector entries."},
    {"twin_pairs", (PyCFunction)(void (*)(void))meth_twin_pairs, METH_FASTCALL,
     "For each vertex, the bit of the vertex before it in its twin class, or 0."},
    {"canonical_perm", (PyCFunction)(void (*)(void))meth_canonical_perm, METH_FASTCALL,
     "Permutation (position -> vertex) giving the least edge code."},
    {"canonical_line", (PyCFunction)(void (*)(void))meth_canonical_line, METH_FASTCALL,
     "graph6 line of the graph relabeled by canonical_perm."},
    {"graph6_adj", (PyCFunction)(void (*)(void))meth_graph6_adj, METH_FASTCALL,
     "Neighbour masks of the graph of a graph6 line."},
    {"cone_count", (PyCFunction)(void (*)(void))meth_cone_count, METH_FASTCALL,
     "How many vertices of the graph of a canonical line are adjacent to all others."},
    {"child_is_plus_k", (PyCFunction)(void (*)(void))meth_child_is_plus_k, METH_FASTCALL,
     "Whether a plus-K_{q-1} graph less its edge uv is plus-K_{q-1}."},
    {"descent_children", (PyCFunction)(void (*)(void))meth_descent_children, METH_FASTCALL,
     "Sorted (canonical line, (child, dead masks)) pairs of one descent class."},
    {"maximal_kt_free_subsets", (PyCFunction)(void (*)(void))meth_maximal_kt_free_subsets,
     METH_FASTCALL, "Maximal K_t-free vertex masks that contain keep, ascending."},
    {"valid_multisets", (PyCFunction)(void (*)(void))meth_valid_multisets, METH_FASTCALL,
     "Multisets of maximal K_{q-1}-free sets that extend the host to a plus-K_q graph."},
    {"extension_lines", (PyCFunction)(void (*)(void))meth_extension_lines, METH_FASTCALL,
     "Sorted canonical lines of one extension host's outputs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "folkman._kernels_cy",
    "Compiled twin of folkman._kernels_py, hand-written in C.",
    -1,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__kernels_cy(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
        || PyModule_AddIntConstant(m, "MAX_AUT_GENERATORS", MAX_AUT_GENERATORS) < 0
        || PyModule_AddIntConstant(m, "COVER_MAX", COVER_MAX) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
