/* Compiled twin of _kernels_py: clique search, free-partition search,
 * canonical labeling.
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
 * orders codes as the integers compare.
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
#define CODEBYTES (MAXN * (MAXN - 1) / 2 / 8 + 1)

static inline int popc(u64 x) { return __builtin_popcountll(x); }
static inline int ctz(u64 x) { return __builtin_ctzll(x); }
static inline u64 low(u64 x) { return x & (0 - x); }
static inline u64 full_mask(int n) { return n ? ~(u64)0 >> (MAXN - n) : 0; }

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

/* -- module functions ----------------------------------------------------- */

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
    (void)self;
    if (check_nargs("free_partition", nargs, 2) < 0 || (n = load(args[0], adj)) < 0)
        return NULL;
    PyObject *seq = PySequence_Fast(args[1], "limits must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    Py_ssize_t s = PySequence_Fast_GET_SIZE(seq);
    PyObject *out = NULL;
    long *limits = PyMem_Malloc(sizeof(long) * (size_t)s);
    u64 *classes = PyMem_Malloc(sizeof(u64) * (size_t)s);
    if (limits == NULL || classes == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t c = 0; c < s; c++)
        if (load_long(PySequence_Fast_GET_ITEM(seq, c), &limits[c]) < 0)
            goto done;
    if (!free_partition(adj, n, limits, s, classes)) {
        out = Py_NewRef(Py_None);
        goto done;
    }
    if ((out = PyTuple_New(s)) == NULL)
        goto done;
    for (Py_ssize_t c = 0; c < s; c++) {
        PyObject *mask = PyLong_FromUnsignedLongLong(classes[c]);
        if (mask == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        PyTuple_SET_ITEM(out, c, mask);
    }
done:
    PyMem_Free(limits);
    PyMem_Free(classes);
    Py_DECREF(seq);
    return out;
}

static PyObject *
meth_canonical_perm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct canon cs = {0};
    (void)self;
    if (check_nargs("canonical_perm", nargs, 1) < 0 || (cs.n = load(args[0], cs.adj)) < 0)
        return NULL;
    for (int i = 0; i < cs.n; i++)
        cs.best_perm[i] = i;
    if (cs.n > 1)
        canonical_perm(&cs);
    PyMem_Free(cs.gens);
    if (cs.nomem)
        return PyErr_NoMemory();
    PyObject *out = PyTuple_New(cs.n);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < cs.n; i++) {
        PyObject *v = PyLong_FromLong(cs.best_perm[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
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
    {"canonical_perm", (PyCFunction)(void (*)(void))meth_canonical_perm, METH_FASTCALL,
     "Permutation (position -> vertex) giving the least edge code."},
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
        || PyModule_AddIntConstant(m, "MAX_AUT_GENERATORS", MAX_AUT_GENERATORS) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
