/* Compiled inner loop of the incremental-check neighborhood scan.
 *
 * One entry point, scan_hits(): for every dirty-net flat vertex index,
 * walk the precomputed planar interaction offsets (dcol, drow, flat
 * delta), bounds-check the neighbor column/row, and report the neighbors
 * that can conflict with the scanned vertex.  A neighbor held by no net
 * or by the scanned net (owner 0 or self_id) never reports.  The
 * multi-owner sentinel -1 always reports.  A neighbor held by one other
 * net reports when its Chebyshev track offset is within the layer's
 * min-spacing reach, or within its Dcolor reach while the neighbor's mask
 * equals the scanned vertex's mask: the vertex rule of
 * ConflictChecker._pair_kind, so a net pair with no surviving probe has no
 * conflict.  The caller post-processes the surviving (source, neighbor)
 * pairs through the same per-hit Python logic as the Python tier's pairs,
 * so reports are identical by construction.
 *
 * Everything is integer arithmetic over caller-owned flat buffers (int64
 * indices and offsets, as produced by array('q'), the int32 owner mirror,
 * as produced by array('i'), and int8 masks, as produced by array('b')),
 * so there is no floating-point rounding contract to defend; the loop
 * runs with the GIL released.
 *
 * ABI: bump KERNEL_ABI_VERSION whenever the argument contract changes;
 * the loader (repro.native.load_check_kernel) refuses binaries whose
 * version does not match its expectation, and rebuilds one whose
 * KERNEL_SOURCE_DIGEST (the sha256 of this file, passed by the build)
 * differs from the source next to it.  This is check ABI 2: the masks,
 * the mask mirror, the two reaches and the int32 owner mirror are part of
 * the contract.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

#define KERNEL_ABI_VERSION 2

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

/* scan_hits(indices, masks, dcols, drows, deltas, owner, owner_masks,
 *           num_cols, num_rows, self_id, spacing_reach, color_reach,
 *           out_src, out_dst) -> count
 *
 * indices           int64[n_idx]   dirty-net flat vertex indices
 * masks             int8[n_idx]    the mask of each scanned vertex
 * dcols/drows/deltas int64[n_off]  planar offset table (parallel arrays)
 * owner             int32[num_vertices]  0 = empty, >0 = single net id,
 *                                        -1 = multi-owner (consult dicts)
 * owner_masks       int8[>= num_vertices]  the single owner's mask
 * num_cols/num_rows Py_ssize_t     plane geometry
 * self_id           int64          owner id of the net being scanned
 * spacing_reach     int64          min-spacing reach in tracks
 * color_reach       int64          Dcolor reach in tracks
 * out_src/out_dst   int64[>= n_idx * n_off]  hit pairs, i-major order
 */
static PyObject *
py_scan_hits(PyObject *self, PyObject *args)
{
    PyObject *indices_obj, *masks_obj, *dcols_obj, *drows_obj, *deltas_obj;
    PyObject *owner_obj, *owner_masks_obj, *out_src_obj, *out_dst_obj;
    Py_ssize_t num_cols, num_rows;
    long long self_id, spacing_reach, color_reach;

    if (!PyArg_ParseTuple(
            args, "OOOOOOOnnLLLOO:scan_hits",
            &indices_obj, &masks_obj, &dcols_obj, &drows_obj, &deltas_obj,
            &owner_obj, &owner_masks_obj, &num_cols, &num_rows, &self_id,
            &spacing_reach, &color_reach, &out_src_obj, &out_dst_obj)) {
        return NULL;
    }

    BufferSlot slots[9];
    int held = 0;
    const int64_t *indices, *dcols, *drows, *deltas;
    const int32_t *owner;
    const int8_t *masks, *owner_masks;
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
    ACQUIRE(masks_obj, 0, *(const void **)&masks);
    ACQUIRE(dcols_obj, 0, *(const void **)&dcols);
    ACQUIRE(drows_obj, 0, *(const void **)&drows);
    ACQUIRE(deltas_obj, 0, *(const void **)&deltas);
    ACQUIRE(owner_obj, 0, *(const void **)&owner);
    ACQUIRE(owner_masks_obj, 0, *(const void **)&owner_masks);
    ACQUIRE(out_src_obj, 1, *(void **)&out_src);
    ACQUIRE(out_dst_obj, 1, *(void **)&out_dst);
#undef ACQUIRE

    Py_ssize_t n_idx = slots[0].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_off = slots[4].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t n_owner = slots[5].view.len / (Py_ssize_t)sizeof(int32_t);
    Py_ssize_t capacity = slots[7].view.len / (Py_ssize_t)sizeof(int64_t);
    Py_ssize_t dst_capacity = slots[8].view.len / (Py_ssize_t)sizeof(int64_t);

    if (slots[2].view.len != slots[4].view.len ||
        slots[3].view.len != slots[4].view.len) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "offset arrays disagree on length");
        return NULL;
    }
    if (slots[5].view.itemsize != (Py_ssize_t)sizeof(int32_t)) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "owner mirror must hold four bytes per vertex");
        return NULL;
    }
    if (slots[1].view.itemsize != 1 || slots[6].view.itemsize != 1) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "mask buffers must hold one byte per vertex");
        return NULL;
    }
    if (slots[1].view.len != n_idx) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "masks and indices disagree on length");
        return NULL;
    }
    if (slots[6].view.len < n_owner) {
        release_all(slots, held);
        PyErr_SetString(PyExc_ValueError, "mask mirror shorter than the owner mirror");
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
    const int64_t spacing_tracks = (int64_t)spacing_reach;
    const int64_t color_tracks = (int64_t)color_reach;
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
        const int8_t mask = masks[i];
        for (Py_ssize_t k = 0; k < n_off; k++) {
            const int64_t dcol = dcols[k];
            const int64_t drow = drows[k];
            const int64_t ncol = col + dcol;
            const int64_t nrow = row + drow;
            if (ncol < 0 || ncol >= cols || nrow < 0 || nrow >= rows) {
                continue;
            }
            const int64_t neighbor = index + deltas[k];
            const int64_t occupant = owner[neighbor];
            if (occupant == 0 || occupant == own) {
                continue;
            }
            if (occupant != -1) {
                const int64_t adcol = dcol < 0 ? -dcol : dcol;
                const int64_t adrow = drow < 0 ? -drow : drow;
                const int64_t cheb = adcol > adrow ? adcol : adrow;
                if (cheb > spacing_tracks &&
                    (cheb > color_tracks || owner_masks[neighbor] != mask)) {
                    continue;
                }
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
     "Scan dirty-vertex neighborhoods against the owner and mask mirrors; "
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
