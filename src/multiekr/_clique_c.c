/* Compiled branch and bound for the maximum clique of a t-intersection graph.

   Mirrors ``_kernels_py.branch_and_bound`` step for step: the same greedy
   colouring order, the same colour-bound prune, the same node budget,
   ``stop_at`` and ``lower_bound`` semantics. So sizes, witnesses and node
   counts are identical between the two.

   The graph arrives as the list of Python-int rows that
   ``_kernels_py.adjacency_bitsets`` builds, in the layout its docstring
   states. ``load_adjacency`` copies
   them once into rows of 64-bit words with vertex v at bit v, so the loops
   below scan from the lowest vertex up. A row's bit for its own vertex
   changes nothing: the colouring removes v from its available set anyway,
   and a branch on v clears v from the candidates before it reads v's row.
   Each depth of the search owns one candidate set and one colour order,
   allocated the first time the search reaches that depth.

   Orbit pruning, when an ``orbits`` callable is given, also mirrors the
   pure search, call for call: ``orbits(fixed, members)`` returns one orbit
   id per member, for ``()`` with all vertices at the root and for ``(v,)``
   with the depth-1 candidates once per root branch on v. The members are
   read from the candidate words, and ids are stored at those vertices
   only. Once the branch on v at depth 0 or 1 is exhausted, every candidate
   with v's id at that depth is cleared, and the colour order skips cleared
   vertices; the candidates at a depth are always a subset of the members
   its ids were loaded for, so no stale id is read.

   Build: setup.py is the one recipe, an optional extension compiled with
   the interpreter's compiler and flags. ``pip install`` runs it, the test
   suite runs ``python setup.py build_ext`` into a temporary directory, and
   ``python setup.py build_ext --inplace`` builds it next to this file.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

#define BIT(v) ((u64)1 << ((v) & 63))

static PyObject *BudgetError;  /* multiekr.errors.BudgetError */

typedef struct {
    u64 *cand;      /* candidate set at this depth */
    int *order;     /* its vertices by ascending colour */
    int *color_of;  /* the colour of order[i] */
} Frame;

typedef struct {
    Py_ssize_t nv, words;
    u64 *adj;        /* nv rows of `words` words */
    u64 *uncolored;  /* colouring scratch, used before any recursion */
    u64 *avail;
    Frame *frames;   /* nv + 1 depths, allocated on first use */
    int *cur;        /* the current clique; its length is the depth */
    int *best;
    Py_ssize_t best_size, best_len, stop_at;
    long long nodes, budget;
    PyObject *orbits;  /* the orbit-id callable, or NULL: no orbit pruning */
    long *ids[2];      /* orbit ids at depths 0 and 1, set at the members */
} Search;

static int
reach(Search *s, Py_ssize_t depth)
{
    Frame *f = &s->frames[depth];
    if (f->cand != NULL)
        return 0;
    f->cand = malloc(s->words * sizeof(u64) + 1);
    f->order = malloc(s->nv * sizeof(int) + 1);
    f->color_of = malloc(s->nv * sizeof(int) + 1);
    if (f->cand == NULL || f->order == NULL || f->color_of == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Call orbits(fixed, members) with the vertices of set, ascending, as the
   members, and store each member's id at ids[member]; -1 with an exception
   set. Steals the reference to fixed, which may be NULL after a failed
   build. */
static int
load_orbits(Search *s, PyObject *fixed, const u64 *set, long *ids)
{
    PyObject *members, *got = NULL, *seq;
    Py_ssize_t count = 0, i, w;
    int rc = -1;

    if (fixed == NULL)
        return -1;
    for (w = 0; w < s->words; w++)
        count += __builtin_popcountll(set[w]);
    members = PyList_New(count);
    if (members != NULL) {
        i = 0;
        for (w = 0; w < s->words; w++) {
            for (u64 bits = set[w]; bits; bits &= bits - 1, i++) {
                PyObject *vertex = PyLong_FromSsize_t(w * 64 + __builtin_ctzll(bits));
                if (vertex == NULL)
                    goto called;
                PyList_SET_ITEM(members, i, vertex);
            }
        }
        got = PyObject_CallFunctionObjArgs(s->orbits, fixed, members, NULL);
    }
called:
    Py_DECREF(fixed);
    Py_XDECREF(members);
    if (got == NULL)
        return -1;
    seq = PySequence_Fast(got, "orbits() must return a sequence of ints");
    Py_DECREF(got);
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != count) {
        PyErr_SetString(PyExc_ValueError, "orbits() must return one id per member");
        goto done;
    }
    /* the members are read again from set: the callable may change the list */
    i = 0;
    for (w = 0; w < s->words; w++) {
        for (u64 bits = set[w]; bits; bits &= bits - 1, i++) {
            long id = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
            if (id == -1 && PyErr_Occurred())
                goto done;
            ids[w * 64 + __builtin_ctzll(bits)] = id;
        }
    }
    rc = 0;
done:
    Py_DECREF(seq);
    return rc;
}

/* Clear from cand every vertex whose orbit id equals v's. */
static void
clear_orbit(u64 *cand, Py_ssize_t words, const long *ids, int v)
{
    for (Py_ssize_t w = 0; w < words; w++) {
        for (u64 bits = cand[w]; bits; bits &= bits - 1) {
            int x = (int)(w * 64 + __builtin_ctzll(bits));
            if (ids[x] == ids[v])
                cand[w] &= ~BIT(x);
        }
    }
}

static void
record(Search *s, Py_ssize_t size)
{
    s->best_size = s->best_len = size;
    memcpy(s->best, s->cur, size * sizeof(int));
}

static int
expand(Search *s, Py_ssize_t depth)
{
    const Py_ssize_t words = s->words;
    Frame *f = &s->frames[depth];
    u64 *cand = f->cand, *uncolored = s->uncolored, *avail = s->avail, *sub;
    Py_ssize_t count = 0, idx, first, w, pos;
    int color, v;

    if (++s->nodes > s->budget) {
        PyErr_Format(BudgetError, "clique search exceeded node budget %lld",
                     s->budget);
        return -1;
    }
    /* a long search stays interruptible, as the pure one is */
    if ((s->nodes & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    if (s->stop_at > 0 && s->best_size >= s->stop_at)
        return 0;
    for (w = 0; w < words; w++)
        count += __builtin_popcountll(cand[w]);
    if (count == 0) {
        if (depth > s->best_size)
            record(s, depth);
        return 0;
    }

    /* greedy colouring: each colour class takes the lowest uncoloured
       vertex, then the lowest one adjacent to none taken so far */
    memcpy(uncolored, cand, words * sizeof(u64));
    idx = 0;
    first = 0;
    color = 0;
    while (idx < count) {
        color++;
        while (uncolored[first] == 0)
            first++;
        memcpy(avail + first, uncolored + first, (words - first) * sizeof(u64));
        w = first;
        for (;;) {
            while (w < words && avail[w] == 0)
                w++;
            if (w == words)
                break;
            v = (int)(w * 64 + __builtin_ctzll(avail[w]));
            f->order[idx] = v;
            f->color_of[idx] = color;
            idx++;
            uncolored[w] &= ~BIT(v);
            const u64 *row = s->adj + v * words;
            for (Py_ssize_t x = w; x < words; x++)
                avail[x] &= ~row[x];
            avail[w] &= ~BIT(v);
        }
    }

    if (reach(s, depth + 1) < 0)
        return -1;
    sub = s->frames[depth + 1].cand;
    const long *ids = s->orbits != NULL && depth < 2 ? s->ids[depth] : NULL;
    for (pos = count - 1; pos >= 0; pos--) {
        if (depth + f->color_of[pos] <= s->best_size)
            return 0;
        v = f->order[pos];
        if (!(cand[v >> 6] & BIT(v)))  /* its orbit left after an earlier branch */
            continue;
        cand[v >> 6] &= ~BIT(v);
        const u64 *row = s->adj + v * words;
        u64 any = 0;
        for (w = 0; w < words; w++) {
            sub[w] = cand[w] & row[w];
            any |= sub[w];
        }
        s->cur[depth] = v;
        if (any) {
            if (ids != NULL && depth == 0
                && load_orbits(s, Py_BuildValue("(i)", v), sub, s->ids[1]) < 0)
                return -1;
            if (expand(s, depth + 1) < 0)
                return -1;
        }
        else if (depth + 1 > s->best_size) {
            record(s, depth + 1);
        }
        if (ids != NULL)
            clear_orbit(cand, words, ids, v);
        if (s->stop_at > 0 && s->best_size >= s->stop_at)
            return 0;
    }
    return 0;
}

/* x with its 64 bits in reverse order */
static u64
reverse64(u64 x)
{
    x = (x >> 1 & 0x5555555555555555ULL) | (x & 0x5555555555555555ULL) << 1;
    x = (x >> 2 & 0x3333333333333333ULL) | (x & 0x3333333333333333ULL) << 2;
    x = (x >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (x & 0x0F0F0F0F0F0F0F0FULL) << 4;
    return __builtin_bswap64(x);
}

/* Copy the Python-int bit sets into s->adj; -1 with an exception set.

   A row arrives with vertex v at bit nv-1-v (see adjacency_bitsets) and is
   stored with v at bit v & 63 of word v >> 6: the row's 64*words bits are
   reversed, which puts v at bit v + pad, and then shifted down by pad. */
static int
load_adjacency(Search *s, PyObject *seq)
{
    const Py_ssize_t words = s->words, nbytes = words * 8;
    const int pad = (int)(words * 64 - s->nv);
    for (Py_ssize_t i = 0; i < s->nv; i++) {
        PyObject *row = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyLong_Check(row)) {
            PyErr_Format(PyExc_TypeError, "adj[%zd] is not an int", i);
            return -1;
        }
        PyObject *bytes = PyObject_CallMethod((PyObject *)&PyLong_Type, "to_bytes",
                                              "Ons", row, nbytes, "little");
        if (bytes == NULL)
            return -1;
        const char *le = PyBytes_AS_STRING(bytes);
        u64 *dst = s->adj + i * words;
        for (Py_ssize_t w = 0; w < words; w++) {
            u64 x;
            memcpy(&x, le + (words - 1 - w) * 8, 8);
            dst[w] = reverse64(x);
        }
        Py_DECREF(bytes);
        if (pad > 0) {
            for (Py_ssize_t w = 0; w + 1 < words; w++)
                dst[w] = dst[w] >> pad | dst[w + 1] << (64 - pad);
            dst[words - 1] >>= pad;
        }
    }
    return 0;
}

static void
release(Search *s)
{
    if (s->frames != NULL) {
        for (Py_ssize_t d = 0; d <= s->nv; d++) {
            free(s->frames[d].cand);
            free(s->frames[d].order);
            free(s->frames[d].color_of);
        }
    }
    free(s->frames);
    free(s->adj);
    free(s->uncolored);
    free(s->avail);
    free(s->cur);
    free(s->best);
    free(s->ids[0]);
    free(s->ids[1]);
}

PyDoc_STRVAR(branch_and_bound_doc,
"branch_and_bound(adj, node_budget, stop_at, lower_bound, orbits=None)\n"
"--\n\n"
"Exact maximum clique of the graph whose vertex i has the row adj[i], in the\n"
"layout of multiekr._kernels_py.adjacency_bitsets.\n\n"
"Same contract as multiekr._kernels_py.branch_and_bound: returns\n"
"(best_size, sorted_witness, nodes); raises BudgetError when more than\n"
"node_budget nodes would be expanded; stop_at > 0 halts once the incumbent\n"
"reaches it; lower_bound seeds the incumbent size without a witness;\n"
"orbits, a callable orbits(fixed, members) giving one orbit id per member,\n"
"prunes orbits at depths 0 and 1.");

static PyObject *
branch_and_bound(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "node_budget", "stop_at", "lower_bound",
                             "orbits", NULL};
    PyObject *adj, *orbits = Py_None, *seq, *result = NULL;
    long long budget;
    Py_ssize_t stop_at, lower_bound;
    Search s;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OLnn|O", kwlist, &adj,
                                     &budget, &stop_at, &lower_bound, &orbits))
        return NULL;
    seq = PySequence_Fast(adj, "adj must be a sequence of int bit sets");
    if (seq == NULL)
        return NULL;
    memset(&s, 0, sizeof s);
    s.nv = PySequence_Fast_GET_SIZE(seq);
    if (s.nv > INT_MAX / 2) {
        PyErr_SetString(PyExc_OverflowError, "too many vertices");
        goto done;
    }
    s.words = (s.nv + 63) / 64;
    s.budget = budget;
    s.stop_at = stop_at;
    s.best_size = lower_bound > 0 ? lower_bound : 0;
    /* +1: malloc(0) may return NULL on an empty graph */
    s.adj = malloc(s.nv * s.words * sizeof(u64) + 1);
    s.uncolored = malloc(s.words * sizeof(u64) + 1);
    s.avail = malloc(s.words * sizeof(u64) + 1);
    s.cur = malloc(s.nv * sizeof(int) + 1);
    s.best = malloc(s.nv * sizeof(int) + 1);
    s.frames = calloc(s.nv + 1, sizeof(Frame));
    if (!s.adj || !s.uncolored || !s.avail || !s.cur || !s.best || !s.frames) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_adjacency(&s, seq) < 0 || reach(&s, 0) < 0)
        goto done;
    if (orbits != Py_None) {
        s.orbits = orbits;
        s.ids[0] = malloc(s.nv * sizeof(long) + 1);
        s.ids[1] = malloc(s.nv * sizeof(long) + 1);
        if (!s.ids[0] || !s.ids[1]) {
            PyErr_NoMemory();
            goto done;
        }
    }
    memset(s.frames[0].cand, 0, s.words * sizeof(u64));
    for (Py_ssize_t v = 0; v < s.nv; v++)
        s.frames[0].cand[v >> 6] |= BIT(v);
    if (s.orbits != NULL && load_orbits(&s, PyTuple_New(0), s.frames[0].cand, s.ids[0]) < 0)
        goto done;
    if (expand(&s, 0) < 0)
        goto done;

    PyObject *witness = PyList_New(s.best_len);
    if (witness == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < s.best_len; i++) {
        PyObject *vertex = PyLong_FromLong(s.best[i]);
        if (vertex == NULL) {
            Py_DECREF(witness);
            goto done;
        }
        PyList_SET_ITEM(witness, i, vertex);
    }
    if (PyList_Sort(witness) < 0) {
        Py_DECREF(witness);
        goto done;
    }
    result = Py_BuildValue("nNL", s.best_size, witness, s.nodes);
done:
    release(&s);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"branch_and_bound", (PyCFunction)(void (*)(void))branch_and_bound,
     METH_VARARGS | METH_KEYWORDS, branch_and_bound_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_clique_c",
    "Compiled clique branch and bound; see multiekr.kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__clique_c(void)
{
    PyObject *errors;

    if (BudgetError == NULL) {
        errors = PyImport_ImportModule("multiekr.errors");
        if (errors == NULL)
            return NULL;
        BudgetError = PyObject_GetAttrString(errors, "BudgetError");
        Py_DECREF(errors);
        if (BudgetError == NULL)
            return NULL;
    }
    return PyModule_Create(&module);
}
