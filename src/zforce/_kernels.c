/* Compiled forcing kernels for orders up to 64 (single-word bitsets).
 *
 * Twin of _kernels_py: same call signatures and the same failed-closure
 * cache policy (the 64 most recent failed closures, oldest replaced first),
 * so search results and node counts match the pure path exactly.  Every
 * mask and adjacency row is checked to fit in n bits and every start vertex
 * to lie in 0..n-1, so no shift reaches 64.
 *
 * The cache holds the pure twin's deque entries in 64 ring slots stored by
 * vertex (see FailedCache): col[v] has bit i set when slot i holds v, so "is m
 * inside some entry" is an AND over m's bits that stops at 0, not 64 compares.
 *
 * One closure loop serves both rules: the standard rule is the psd loop with
 * one component, the whole white set.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;

#define MAX_N 64
#define CACHE_CAP 64 /* failed closures kept by first_forcing_lex */

#define lowbit(m) __builtin_ctzll(m)

/* Batched rounds over the white components, as in the pure twin.  Under psd
 * the BFS grows comp from the lowest white vertex and ORs its rows into nb,
 * its neighbourhood; only black vertices in nb have a white neighbour in it,
 * so only they can force. */
static u64
close_mask(const u64 *adj, u64 full, u64 black, int psd)
{
    for (;;) {
        u64 rem = full & ~black, newly = 0;
        while (rem) {
            u64 comp = rem, nb = ~(u64)0;
            if (psd) {
                u64 frontier = comp = rem & -rem;
                nb = 0;
                while (frontier) {
                    u64 nxt = 0;
                    for (u64 f = frontier; f; f &= f - 1)
                        nxt |= adj[lowbit(f)];
                    nb |= nxt;
                    frontier = nxt & rem & ~comp;
                    comp |= frontier;
                }
            }
            rem &= ~comp;
            for (u64 m = black & nb; m; m &= m - 1) {
                u64 t = adj[lowbit(m)] & comp;
                if (t && !(t & (t - 1)))
                    newly |= t;
            }
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

/* Step a sorted index combination to its lexicographic successor: the order
 * in which the pure twin takes k-subsets from itertools.combinations. */
static int
advance(int *c, int n, int k)
{
    int i = k - 1;
    while (i >= 0 && c[i] == n - k + i)
        i--;
    if (i < 0)
        return 0;
    c[i]++;
    for (int j = i + 1; j < k; j++)
        c[j] = c[j - 1] + 1;
    return 1;
}

static u64
comb_mask(const int *c, int k)
{
    u64 mask = 0;
    for (int i = 0; i < k; i++)
        mask |= (u64)1 << c[i];
    return mask;
}

/* The failed-closure cache, stored by vertex: bit i of col[v] is set when
 * entry i holds v.  entry[] keeps each entry as a mask too, so that replacing
 * one clears only its vertices.  stores counts the entries written so far. */
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
    for (u64 m = fc->entry[i] & ~d; m; m &= m - 1)
        fc->col[lowbit(m)] &= ~bit;
    for (u64 m = d & ~fc->entry[i]; m; m &= m - 1)
        fc->col[lowbit(m)] |= bit;
    fc->entry[i] = d;
}

static PyObject *
run_closure(PyObject *args, int psd)
{
    PyObject *adj, *black_obj;
    int n;
    u64 rows[MAX_N], full, black;
    if (!PyArg_ParseTuple(args, "OiO", &adj, &n, &black_obj)
        || load_adj(adj, n, 1, rows, &full) < 0 || to_mask(black_obj, full, &black) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(close_mask(rows, full, black, psd));
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
    int n, k, psd, comb[MAX_N], found = 0;
    long long count = -1, explored = 0;
    u64 rows[MAX_N], full, mask = 0;
    FailedCache fc = {{0}, {0}, 0};

    if (!PyArg_ParseTuple(args, "Oiip|OL", &adj, &n, &k, &psd, &start, &count)
        || load_adj(adj, n, k, rows, &full) < 0)
        return NULL;
    for (int i = 0; i < k; i++)
        comb[i] = i;
    if (start != Py_None) {
        PyObject *seq = PySequence_Fast(start, "start must be a sequence");
        if (seq == NULL)
            return NULL;
        /* length, then each entry's type, then range and order, as the pure twin */
        int sized = PySequence_Fast_GET_SIZE(seq) == k, ok = sized;
        for (int i = 0; sized && i < k; i++) {
            int overflow;
            long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                return NULL;
            }
            ok = ok && !overflow && v >= (i ? comb[i - 1] + 1 : 0) && v < n;
            if (ok)
                comb[i] = (int)v;
        }
        Py_DECREF(seq);
        if (!ok) {
            PyErr_SetString(PyExc_ValueError,
                            "start must be k strictly increasing vertices in 0..n-1");
            return NULL;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    while (count != 0) {
        mask = comb_mask(comb, k);
        if (!covered(&fc, mask)) {
            explored++;
            u64 d = close_mask(rows, full, mask, psd);
            if (d == full) {
                found = 1;
                break;
            }
            /* d contains mask, which no entry contains, so d is new */
            remember(&fc, d);
        }
        count--;
        if (!advance(comb, n, k))
            break;
    }
    Py_END_ALLOW_THREADS

    if (found)
        return Py_BuildValue("(KL)", (unsigned long long)mask, explored);
    return Py_BuildValue("(OL)", Py_None, explored);
}

static PyObject *
all_forcing_lex(PyObject *self, PyObject *args)
{
    PyObject *adj;
    int n, k, psd, comb[MAX_N];
    u64 rows[MAX_N], full;
    if (!PyArg_ParseTuple(args, "Oiip", &adj, &n, &k, &psd)
        || load_adj(adj, n, k, rows, &full) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < k; i++)
        comb[i] = i;
    do {
        u64 mask = comb_mask(comb, k);
        if (close_mask(rows, full, mask, psd) != full)
            continue;
        PyObject *m = PyLong_FromUnsignedLongLong(mask);
        if (m == NULL || PyList_Append(out, m) < 0) {
            Py_XDECREF(m);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(m);
    } while (advance(comb, n, k));
    return out;
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
