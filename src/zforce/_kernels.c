/* Compiled forcing kernels for orders up to 64 (single-word bitsets).
 *
 * Twin of _kernels_py: same call signatures and the same failed-closure
 * cache policy (the 64 most recent failed closures, oldest replaced first),
 * so search results and node counts match the pure path exactly.  Every
 * mask and adjacency row is checked to fit in n bits and every start vertex
 * to lie in 0..n-1, so no vertex shift reaches 64; `reverse` shifts by
 * 64 - n, which n >= 1 keeps below 64.
 *
 * The scans relabel v -> n-1-v once per call.  Under that relabelling the
 * pure twin's itertools.combinations order (sorted k-subsets, compared
 * lexicographically) is descending numeric order of the masks, so each step
 * is the complement of Gosper's successor, and a found mask is bit-reversed
 * back before it is returned.
 *
 * The cache holds the pure twin's deque entries in 64 ring slots stored by
 * vertex (see FailedCache): col[v] has bit i set when slot i holds v, so "is m
 * inside some entry" is an AND over m's bits that stops at 0, not 64 compares.
 *
 * Each call builds neighbourhood tables over chunks of 8 vertices (see
 * Tables), so one closure pass reads a set's neighbourhood in n/8 lookups.
 * They live on the C stack, as the scan releases the GIL: no kernel state is
 * static.  One closure loop serves both rules: the standard rule is the psd
 * loop with one component, the whole white set.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;

#define MAX_N 64
#define CACHE_CAP 64 /* failed closures kept by first_forcing_lex */
#define CHUNK 8      /* vertices per table chunk */
#define CHUNKS (MAX_N / CHUNK)

#define lowbit(m) __builtin_ctzll(m)

/* For chunk c and each subset b of its vertices 8c..8c+7: one[c][b] holds the
 * vertices with a neighbour in b, two[c][b] those with two or more.  The last
 * chunk may be partial, and only its 2^width entries are built. */
typedef struct {
    u64 one[CHUNKS][1 << CHUNK], two[CHUNKS][1 << CHUNK];
} Tables;

/* Each entry extends the entry for b minus its lowest vertex v: a vertex
 * gains a second neighbour in b when it already had one and is adjacent to v. */
static void
build_tables(Tables *t, const u64 *adj, int n)
{
    for (int c = 0; c * CHUNK < n; c++) {
        int width = n - c * CHUNK < CHUNK ? n - c * CHUNK : CHUNK;
        u64 *one = t->one[c], *two = t->two[c];
        const u64 *rows = adj + c * CHUNK;
        one[0] = two[0] = 0;
        for (int b = 1; b < 1 << width; b++) {
            int p = b & (b - 1);
            u64 a = rows[lowbit(b)];
            one[b] = one[p] | a;
            two[b] = two[p] | (one[p] & a);
        }
    }
}

/* Batched rounds over the white components, as in the pure twin.  Under psd
 * comp grows from the lowest white vertex by its neighbours in rem until it
 * stops changing; a black vertex forces exactly when it has one neighbour in
 * comp, and that neighbour is adj[u] & comp. */
static u64
close_mask(const Tables *t, const u64 *adj, u64 full, u64 black, int psd)
{
    for (;;) {
        u64 rem = full & ~black, newly = 0;
        while (rem) {
            u64 comp = psd ? rem & -rem : rem, one, two;
            for (;;) {
                one = two = 0;
                /* comp has no vertex past n, so only built chunks are read */
                int c = 0;
                for (u64 s = comp; s; s >>= CHUNK, c++) {
                    unsigned b = s & ((1u << CHUNK) - 1);
                    u64 a = t->one[c][b];
                    two |= t->two[c][b] | (one & a);
                    one |= a;
                }
                u64 grown = comp | (one & rem);
                if (grown == comp)
                    break;
                comp = grown;
            }
            rem &= ~comp;
            for (u64 m = black & one & ~two; m; m &= m - 1)
                newly |= adj[lowbit(m)] & comp;
        }
        if (!newly)
            return black;
        black |= newly;
    }
}

/* Python int -> mask; ValueError unless 0 <= value <= full. */
static int
to_mask(PyObject *obj, u64 full, u64 *out)
{
    unsigned long long v = PyLong_AsUnsignedLongLong(obj);
    if (v == (unsigned long long)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (!(v & ~full)) {
        *out = v;
        return 0;
    }
    PyErr_SetString(PyExc_ValueError, "mask does not fit in n bits");
    return -1;
}

/* Checks n and the subset size k, copies the first n adjacency rows and
 * sets the full mask.  The closures, which take no k, pass k = 1. */
static int
load_adj(PyObject *adj, int n, int k, u64 *rows, u64 *full)
{
    if (n < 1 || n > MAX_N) {
        PyErr_SetString(PyExc_ValueError, "compiled kernels support 1 <= n <= 64");
        return -1;
    }
    if (k < 1 || k > n) {
        PyErr_SetString(PyExc_ValueError, "need 1 <= k <= n");
        return -1;
    }
    *full = n == MAX_N ? ~(u64)0 : ((u64)1 << n) - 1;
    PyObject *seq = PySequence_Fast(adj, "adj must be a sequence");
    if (seq == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_ValueError, "adj has fewer than n rows");
        rc = -1;
    }
    for (int i = 0; rc == 0 && i < n; i++)
        rc = to_mask(PySequence_Fast_GET_ITEM(seq, i), *full, &rows[i]);
    Py_DECREF(seq);
    return rc;
}

/* x with bit v moved to bit n-1-v, for x inside n bits: a full 64-bit
 * reverse (the bits within each byte, then the byte order), shifted down. */
static u64
reverse(u64 x, int n)
{
    x = (x >> 1 & 0x5555555555555555ULL) | (x & 0x5555555555555555ULL) << 1;
    x = (x >> 2 & 0x3333333333333333ULL) | (x & 0x3333333333333333ULL) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
    return __builtin_bswap64(x) >> (MAX_N - n);
}

/* The rows relabelled v -> n-1-v (see the header) into adj_r, and their tables. */
static void
relabel(const u64 *rows, int n, u64 *adj_r, Tables *t)
{
    for (int v = 0; v < n; v++)
        adj_r[n - 1 - v] = reverse(rows[v], n);
    build_tables(t, adj_r, n);
}

/* The k-subset after mask in descending numeric order, which is the next in
 * lexicographic order once relabelled: its complement is the (n-k)-subset
 * after mask's complement in ascending order, Gosper's successor.  mask is
 * not the last subset, the lowest k bits, so r stays inside n bits; the shift
 * by lowbit(x) and then by 2 keeps each shift below 64. */
static u64
next_lower(u64 mask, u64 full)
{
    u64 x = full & ~mask, r = x + (x & -x);
    return full & ~(r | ((r ^ x) >> lowbit(x) >> 2));
}

/* The failed-closure cache, stored by vertex: bit i of col[v] is set when
 * entry i holds v.  entry[] keeps each entry as a mask too, so that replacing
 * one touches only the vertices that change.  stores counts the entries
 * written so far. */
typedef struct {
    u64 col[MAX_N], entry[CACHE_CAP];
    long long stores;
} FailedCache;

/* Whether m is a subset of some entry: the AND of the columns of m's
 * vertices, stopping as soon as no entry is left.  An unwritten entry holds
 * no vertex, so the first column drops it; m is never empty (k >= 1). */
static int
covered(const FailedCache *fc, u64 m)
{
    u64 hit = ~(u64)0;
    for (; m && hit; m &= m - 1)
        hit &= fc->col[lowbit(m)];
    return hit != 0;
}

/* Write d to ring slot stores % CACHE_CAP, so the cache keeps the 64 most
 * recent failed closures, oldest replaced first, as the pure twin's deque. */
static void
remember(FailedCache *fc, u64 d)
{
    int i = (int)(fc->stores++ % CACHE_CAP);
    u64 bit = (u64)1 << i;
    for (u64 m = fc->entry[i] ^ d; m; m &= m - 1)
        fc->col[lowbit(m)] ^= bit;
    fc->entry[i] = d;
}

static PyObject *
run_closure(PyObject *args, int psd)
{
    PyObject *adj, *black_obj;
    int n;
    u64 rows[MAX_N], full, black;
    Tables t;
    if (!PyArg_ParseTuple(args, "OiO", &adj, &n, &black_obj)
        || load_adj(adj, n, 1, rows, &full) < 0 || to_mask(black_obj, full, &black) < 0)
        return NULL;
    build_tables(&t, rows, n);
    return PyLong_FromUnsignedLongLong(close_mask(&t, rows, full, black, psd));
}

static PyObject *
closure_standard(PyObject *self, PyObject *args)
{
    return run_closure(args, 0);
}

static PyObject *
closure_psd(PyObject *self, PyObject *args)
{
    return run_closure(args, 1);
}

static PyObject *
first_forcing_lex(PyObject *self, PyObject *args)
{
    PyObject *adj, *start = Py_None;
    int n, k, psd, found = 0;
    long long count = -1, explored = 0;
    u64 rows[MAX_N], adj_r[MAX_N], full, mask, last;
    Tables t;
    FailedCache fc = {{0}, {0}, 0};

    if (!PyArg_ParseTuple(args, "Oiip|OL", &adj, &n, &k, &psd, &start, &count)
        || load_adj(adj, n, k, rows, &full) < 0)
        return NULL;
    last = full >> (n - k);
    mask = last; /* vertices 0..k-1, before relabelling */
    if (start != Py_None) {
        PyObject *seq = PySequence_Fast(start, "start must be a sequence");
        if (seq == NULL)
            return NULL;
        /* length, then each entry's type, then range and order, as the pure twin */
        int sized = PySequence_Fast_GET_SIZE(seq) == k, ok = sized;
        long prev = -1;
        mask = 0;
        for (int i = 0; sized && i < k; i++) {
            int overflow;
            long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                return NULL;
            }
            ok = ok && !overflow && v > prev && v < n;
            if (ok)
                mask |= (u64)1 << (prev = v);
        }
        Py_DECREF(seq);
        if (!ok) {
            PyErr_SetString(PyExc_ValueError,
                            "start must be k strictly increasing vertices in 0..n-1");
            return NULL;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    relabel(rows, n, adj_r, &t);
    mask = reverse(mask, n);
    while (count != 0) {
        if (!covered(&fc, mask)) {
            explored++;
            u64 d = close_mask(&t, adj_r, full, mask, psd);
            if (d == full) {
                found = 1;
                break;
            }
            /* d contains mask, which no entry contains, so d is new */
            remember(&fc, d);
        }
        count--;
        if (mask == last)
            break;
        mask = next_lower(mask, full);
    }
    Py_END_ALLOW_THREADS

    if (found)
        return Py_BuildValue("(KL)", (unsigned long long)reverse(mask, n), explored);
    return Py_BuildValue("(OL)", Py_None, explored);
}

static PyObject *
all_forcing_lex(PyObject *self, PyObject *args)
{
    PyObject *adj;
    int n, k, psd;
    u64 rows[MAX_N], adj_r[MAX_N], full;
    Tables t;
    if (!PyArg_ParseTuple(args, "Oiip", &adj, &n, &k, &psd)
        || load_adj(adj, n, k, rows, &full) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    relabel(rows, n, adj_r, &t);
    u64 last = full >> (n - k), mask = reverse(last, n);
    for (;;) {
        if (close_mask(&t, adj_r, full, mask, psd) == full) {
            PyObject *m = PyLong_FromUnsignedLongLong(reverse(mask, n));
            if (m == NULL || PyList_Append(out, m) < 0) {
                Py_XDECREF(m);
                Py_DECREF(out);
                return NULL;
            }
            Py_DECREF(m);
        }
        if (mask == last)
            return out;
        mask = next_lower(mask, full);
    }
}

static PyMethodDef methods[] = {
    {"closure_standard", closure_standard, METH_VARARGS,
     "closure_standard(adj, n, black): fixpoint of the standard color change rule."},
    {"closure_psd", closure_psd, METH_VARARGS,
     "closure_psd(adj, n, black): fixpoint of the positive semidefinite rule."},
    {"first_forcing_lex", first_forcing_lex, METH_VARARGS,
     "first_forcing_lex(adj, n, k, psd[, start[, count]]), positional only\n"
     "-> (mask or None, closures run); see _kernels_py.first_forcing_lex."},
    {"all_forcing_lex", all_forcing_lex, METH_VARARGS,
     "all_forcing_lex(adj, n, k, psd): all forcing k-subsets as masks, in lex order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels",
    .m_doc = "Compiled forcing kernels for orders up to 64; twin of zforce._kernels_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
