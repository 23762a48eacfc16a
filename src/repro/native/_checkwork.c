/* Compiled inner loop of the incremental-check neighborhood scan.
 *
 * One entry point, scan_hits(): for every dirty-net flat vertex index,
 * walk the precomputed planar interaction offsets (dcol, drow, flat
 * delta), bounds-check the neighbor column/row, and report the neighbors
 * whose occupancy-owner slot holds *another* net (owner != 0 and
 * owner != self_id; the multi-owner sentinel -1 always reports).  The
 * caller post-processes the surviving (source, neighbor) pairs through
 * the same per-hit Python logic as the Python tier's pairs, so reports
 * are identical by construction -- this kernel only removes the
 * overwhelmingly common empty / same-net neighbor probes from the
 * interpreter.
 *
 * Everything is integer arithmetic over caller-owned flat buffers
 * (int64 little-endian, as produced by array('q')), so
 * there is no floating-point rounding contract to defend; the loop runs
 * with the GIL released.
 *
 * ABI: bump KERNEL_ABI_VERSION whenever the argument contract changes;
 * the loader (repro.native.load_check_kernel) refuses binaries whose
 * version does not match its expectation, and rebuilds one whose
 * KERNEL_SOURCE_DIGEST (the sha256 of this file, passed by the build)
 * differs from the source next to it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

#define KERNEL_ABI_VERSION 1

#ifndef KERNEL_SOURCE_DIGEST
#define KERNEL_SOURCE_DIGEST ""
#endif

typedef struct {
    Py_buffer view;
    int held;
} BufferSlot;

static int
acquire(PyObject *obj, BufferSlot *slot, int writable, void **ptr)
{
    slot->held = 0;
    if (obj == Py_None) {
        *ptr = NULL;
        return 0;
    }
    if (PyObject_GetBuffer(obj, &slot->view, writable ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0) {
        return -1;
    }
    slot->held = 1;
    *ptr = slot->view.buf;
    return 0;
}

static void
release_all(BufferSlot *slots, int count)
{
    for (int i = 0; i < count; i++) {
        if (slots[i].held) {
            PyBuffer_Release(&slots[i].view);
        }
    }
}

/* scan_hits(indices, dcols, drows, deltas, owner, num_cols, num_rows,
 *           self_id, out_src, out_dst) -> count
 *
 * indices           int64[n_idx]   dirty-net flat vertex indices
 * dcols/drows/deltas int64[n_off]  planar offset table (parallel arrays)
 * owner             int64[num_vertices]  0 = empty, >0 = single net id,
 *                                        -1 = multi-owner (consult dicts)
 * num_cols/num_rows Py_ssize_t     plane geometry
 * self_id           int64          owner id of the net being scanned
 * out_src/out_dst   int64[>= n_idx * n_off]  hit pairs, i-major order
 */
static PyObject *
py_scan_hits(PyObject *self, PyObject *args)
{
    PyObject *indices_obj, *dcols_obj, *drows_obj, *deltas_obj, *owner_obj;
    PyObject *out_src_obj, *out_dst_obj;
    Py_ssize_t num_cols, num_rows;
    long long self_id;

    if (!PyArg_ParseTuple(
            args, "OOOOOnnLOO:scan_hits",
            &indices_obj, &dcols_obj, &drows_obj, &deltas_obj, &owner_obj,
            &num_cols, &num_rows, &self_id, &out_src_obj, &out_dst_obj)) {
        return NULL;
    }

    BufferSlot slots[7];
    int held = 0;
    const int64_t *indices, *dcols, *drows, *deltas, *owner;
    int64_t *out_src, *out_dst;

#define ACQUIRE(obj, writable, target)                                        \
    do {                                                                      \
        void *ptr = NULL;                                                     \
        if (acquire((obj), &slots[held], (writable), &ptr) < 0) {             \
            release_all(slots, held);                                         \
            return NULL;                                                      \
        }                                                                     \
        held++;                                                               \
        (target) = ptr;                                                       \
    } while (0)

    ACQUIRE(indices_obj, 0, *(const void **)&indices);
    ACQUIRE(dcols_obj, 0, *(const void **)&dcols);
    ACQUIRE(drows_obj, 0, *(const void **)&drows);
    ACQUIRE(deltas_obj, 0, *(const void **)&deltas);
    ACQUIRE(owner_obj, 0, *(const void **)&owner);
    ACQUIRE(out_src_obj, 1, *(void **)&out_src);
    ACQUIRE(out_dst_obj, 1, *(void **)&out_dst);
#undef ACQUIRE

    Py_ssize_t n_idx = slots[0].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_off = slots[3].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_owner = slots[4].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t capacity = slots[5].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t dst_capacity = slots[6].view.len / (Py_ssize_t)sizeof(int64_t);

    if (slots[1].view.len != slots[3].view.len ||
        slots[2].view.len != slots[3].view.len) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "offset arrays disagree on length");
        return NULL;
    }
    if (capacity < n_idx * n_off || dst_capacity < n_idx * n_off) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "output buffers too small");
        return NULL;
    }
    if (num_cols <= 0 || num_rows <= 0 ||
        n_owner < (Py_ssize_t)0) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "bad plane geometry");
        return NULL;
    }

    const int64_t plane = (int64_t)num_cols * (int64_t)num_rows;
    const int64_t cols = (int64_t)num_cols;
    const int64_t rows = (int64_t)num_rows;
    const int64_t own = (int64_t)self_id;
    Py_ssize_t count = 0;
    int bad_index = 0;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n_idx; i++) {
        const int64_t index = indices[i];
        if (index < 0 || index >= (int64_t)n_owner) {
            bad_index = 1;
            break;
        }
        const int64_t pos = index % plane;
        const int64_t col = pos / rows;
        const int64_t row = pos - col * rows;
        for (Py_ssize_t k = 0; k < n_off; k++) {
            const int64_t ncol = col + dcols[k];
            const int64_t nrow = row + drows[k];
            if (ncol < 0 || ncol >= cols || nrow < 0 || nrow >= rows) {
                continue;
            }
            const int64_t neighbor = index + deltas[k];
            const int64_t occupant = owner[neighbor];
            if (occupant == 0 || occupant == own) {
                continue;
            }
            out_src[count] = index;
            out_dst[count] = neighbor;
            count++;
        }
    }
    Py_END_ALLOW_THREADS

    release_all(slots, held);
    if (bad_index) {
        PyErr_SetString(PyExc_ValueError, "vertex index out of range");
        return NULL;
    }
    return PyLong_FromSsize_t(count);
}

static PyMethodDef checkwork_methods[] = {
    {"scan_hits", py_scan_hits, METH_VARARGS,
     "Scan dirty-vertex neighborhoods against the owner mirror; "
     "write surviving (src, dst) pairs and return their count."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef checkwork_module = {
    PyModuleDef_HEAD_INIT,
    "_checkwork",
    "Compiled incremental-check neighborhood scan.",
    -1,
    checkwork_methods,
};

PyMODINIT_FUNC
PyInit__checkwork(void)
{
    PyObject *module = PyModule_Create(&checkwork_module);
    if (module == NULL) {
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "KERNEL_ABI_VERSION", KERNEL_ABI_VERSION) < 0 ||
        PyModule_AddStringConstant(module, "KERNEL_SOURCE_DIGEST",
                                   KERNEL_SOURCE_DIGEST) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
