/* Native relaxation kernel: the compiled Dijkstra/A* inner loop behind
 * repro.search.SearchCore.run.
 *
 * One call executes a whole multi-source search -- heap pops, target
 * acceptance, successor expansion and label relaxation -- over the exact
 * flat buffers the Python engine uses (array('d') cost, array('i')
 * aux/parent, array('q') epoch stamps), without crossing the Python
 * boundary per node.  The three expansion modes mirror the three adapter
 * callbacks bit for bit:
 *
 *   MODE_TRADITIONAL  dr/maze's Cost_trad expand (6 grid moves),
 *   MODE_COLOR_STATE  tpl/search's Alg. 2 per-mask expand (6 moves, 3x1
 *                     mask costs, stitch on planar moves, min + state set),
 *   MODE_MASK_EXPANDED baselines/dac2012's mask-expanded graph (2 in-place
 *                     mask switches + 6 moves, node = vertex * 3 + mask).
 *
 * Bit-exactness contract: every floating-point expression below copies the
 * Python adapters' operation order exactly (each step is an IEEE-754
 * double operation in both runtimes), the binary heap orders entries by
 * the same (f, push counter) key heapq compares first, and that key is a
 * strict total order (the counter is unique) -- so pop order, tie-breaks,
 * labels and backtraced paths are identical to the interpreted loop.  The
 * build deliberately disables FP contraction (-ffp-contract=off): a fused
 * multiply-add would round differently from Python's separate ops.
 *
 * Cost inputs are read in place: the congestion term (hw * history, plus
 * the occupancy penalty at vertices a foreign net owns) and the colour
 * pressure term (gamma * pressure, with the searching net's own
 * contribution subtracted and clamped at zero where it has one) are
 * computed per successor from the grid's live history / owner / pressure
 * buffers, exactly as the lazy Python closures compute them.  The net's
 * own contribution is its sparse pressure overlay, scattered once per call
 * into caller-owned scratch buffers that the search epoch validates, so a
 * call costs O(|overlay|) set-up instead of O(V).
 *
 * The out-of-guide penalty needs no per-net O(V) buffer: it is read
 * through the cost model's vertex -> gcell-slot map (built once, shared by
 * every net) and the searching net's byte mask over gcell slots.  A vertex
 * costs 0.0 where its mask byte is set and the penalty otherwise, exactly
 * the two values the Python closures pick from.
 *
 * Every vertex-indexed buffer is length-checked before the loop, so a
 * short buffer raises ValueError instead of being read out of bounds.  A
 * slot past the end of the mask cannot be found without scanning the
 * whole slot map, so each mask read is bounds-checked instead: such a
 * slot reads as outside the guide and the call raises ValueError after
 * the loop.
 *
 * The GIL is released for the duration of the loop: the kernel only
 * writes the caller-owned label and scratch buffers (exclusive to one
 * SearchCore) and reads grid buffers nothing mutates while a search runs.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdlib.h>
#include <string.h>

/* Bumped whenever the module's argument contract changes (run_search or
 * labelled_box); the Python loader refuses (and rebuilds) a stale binary
 * whose ABI does not match. */
#define KERNEL_ABI_VERSION 4

#define MODE_TRADITIONAL 0
#define MODE_COLOR_STATE 1
#define MODE_MASK_EXPANDED 2

#define NUM_DIRECTIONS 6

/* ------------------------------------------------------------------ */
/* Binary min-heap over (f, counter) -- the prefix of the (f, counter,  */
/* node, g) tuples heapq compares; counter is unique, so the order is   */
/* total and any correct heap pops the same sequence heapq does.        */
/* ------------------------------------------------------------------ */

typedef struct {
    double f;
    long long counter;
    int node;
    double g;
} HeapEntry;

typedef struct {
    HeapEntry *items;
    Py_ssize_t size;
    Py_ssize_t capacity;
} Heap;

static int
heap_init(Heap *heap, Py_ssize_t capacity)
{
    heap->items = (HeapEntry *)malloc((size_t)capacity * sizeof(HeapEntry));
    heap->size = 0;
    heap->capacity = capacity;
    return heap->items == NULL ? -1 : 0;
}

static void
heap_free(Heap *heap)
{
    free(heap->items);
    heap->items = NULL;
    heap->size = heap->capacity = 0;
}

static inline int
entry_less(const HeapEntry *a, const HeapEntry *b)
{
    if (a->f != b->f) {
        return a->f < b->f;
    }
    return a->counter < b->counter;
}

static int
heap_push(Heap *heap, double f, long long counter, int node, double g)
{
    Py_ssize_t child, parent;
    HeapEntry entry;

    if (heap->size == heap->capacity) {
        Py_ssize_t grown = heap->capacity * 2;
        HeapEntry *items =
            (HeapEntry *)realloc(heap->items, (size_t)grown * sizeof(HeapEntry));
        if (items == NULL) {
            return -1;
        }
        heap->items = items;
        heap->capacity = grown;
    }
    entry.f = f;
    entry.counter = counter;
    entry.node = node;
    entry.g = g;
    child = heap->size++;
    while (child > 0) {
        parent = (child - 1) >> 1;
        if (!entry_less(&entry, &heap->items[parent])) {
            break;
        }
        heap->items[child] = heap->items[parent];
        child = parent;
    }
    heap->items[child] = entry;
    return 0;
}

static HeapEntry
heap_pop(Heap *heap)
{
    HeapEntry top = heap->items[0];
    HeapEntry last = heap->items[--heap->size];
    Py_ssize_t hole = 0, child;

    while ((child = 2 * hole + 1) < heap->size) {
        if (child + 1 < heap->size &&
            entry_less(&heap->items[child + 1], &heap->items[child])) {
            child += 1;
        }
        if (!entry_less(&heap->items[child], &last)) {
            break;
        }
        heap->items[hole] = heap->items[child];
        hole = child;
    }
    heap->items[hole] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Search context: every pointer and scalar one run needs.             */
/* ------------------------------------------------------------------ */

typedef struct {
    /* Label buffers (exclusive to the calling SearchCore). */
    double *cost;
    int *aux;
    int *parent;
    long long *stamp;
    double *exp_cost;
    int *exp_aux;
    long long *exp_stamp;
    long long epoch;
    /* Own-pressure scratch (exclusive to the calling SearchCore): a vertex
     * carries the searching net's contribution iff own_stamp == epoch. */
    double *own_pressure;       /* 3 per vertex, or NULL */
    long long *own_stamp;       /* per vertex, or NULL */
    /* Read-only grid/cost tables (the grid's live buffers). */
    const int *neighbor;
    const unsigned char *blocked;
    const double *base_costs;   /* num_layers * 6 */
    const unsigned char *guide_mask; /* per gcell slot: 1 = inside the guide */
    size_t guide_mask_len;
    const int *guide_slot;      /* per vertex: index into guide_mask */
    int bad_slot;               /* set when a slot lies past the mask */
    const double *history;      /* per vertex */
    const int *owner;           /* per vertex */
    const double *pressure;     /* 3 per vertex, or NULL */
    const unsigned char *target_flags;
    /* Scalars. */
    double history_weight;
    double occupancy_penalty;
    double out_of_guide_penalty;
    double gamma;
    int mode;
    int node_stride;
    int plane;
    int rows;
    double alpha;
    double via_cost;
    double improve_eps;
    double tie_eps;
    double stitch;
    double tolerance;
    int merge_aux;
    int use_bounds;
    int min_layer, max_layer, min_col, max_col, min_row, max_row;
    int accept_mode;
    int net_id;
    long long counter;
    Heap heap;
} SearchCtx;

/* A* lower bound -- the exact arithmetic of SearchCore.run's inline heur:
 * alpha * (planar + dlayer * via_cost). */
static inline double
heur_of(const SearchCtx *ctx, int node)
{
    int vertex, layer, rem, col, row, dcol, drow, dlayer;

    if (!ctx->use_bounds) {
        return 0.0;
    }
    vertex = ctx->node_stride != 1 ? node / ctx->node_stride : node;
    layer = vertex / ctx->plane;
    rem = vertex % ctx->plane;
    col = rem / ctx->rows;
    row = rem % ctx->rows;
    dcol = ctx->min_col - col;
    if (dcol < 0) {
        dcol = 0;
    }
    if (col - ctx->max_col > dcol) {
        dcol = col - ctx->max_col;
    }
    drow = ctx->min_row - row;
    if (drow < 0) {
        drow = 0;
    }
    if (row - ctx->max_row > drow) {
        drow = row - ctx->max_row;
    }
    dlayer = ctx->min_layer - layer;
    if (dlayer < 0) {
        dlayer = 0;
    }
    if (layer - ctx->max_layer > dlayer) {
        dlayer = layer - ctx->max_layer;
    }
    return ctx->alpha * ((double)(dcol + drow) + (double)dlayer * ctx->via_cost);
}

/* One relaxation -- the exact body of SearchCore.run's buffered successor
 * loop (fresh label / strict improvement / equal-cost aux merge). */
static inline int
relax(SearchCtx *ctx, int succ, double g_new, int a_new, int node)
{
    double g_old;

    if (ctx->stamp[succ] != ctx->epoch) {
        ctx->stamp[succ] = ctx->epoch;
        ctx->cost[succ] = g_new;
        ctx->aux[succ] = a_new;
        ctx->parent[succ] = node;
        return heap_push(&ctx->heap, g_new + heur_of(ctx, succ), ctx->counter++,
                         succ, g_new);
    }
    g_old = ctx->cost[succ];
    if (g_new < g_old - ctx->improve_eps) {
        ctx->cost[succ] = g_new;
        ctx->aux[succ] = a_new;
        ctx->parent[succ] = node;
        return heap_push(&ctx->heap, g_new + heur_of(ctx, succ), ctx->counter++,
                         succ, g_new);
    }
    if (ctx->merge_aux && g_new <= g_old + ctx->tie_eps &&
        (a_new | ctx->aux[succ]) != ctx->aux[succ]) {
        ctx->aux[succ] |= a_new;
        if (ctx->exp_stamp[succ] == ctx->epoch) {
            return heap_push(&ctx->heap, g_old + heur_of(ctx, succ),
                             ctx->counter++, succ, g_old);
        }
    }
    return 0;
}

/* Out-of-guide penalty at *succ*: 0.0 when its gcell is in the net's
 * mask, the penalty otherwise (also for a slot past the mask, which is
 * flagged for run_search to report). */
static inline double
guide_term(SearchCtx *ctx, int succ)
{
    size_t slot = (size_t)(unsigned int)ctx->guide_slot[succ];

    if (slot >= ctx->guide_mask_len) {
        ctx->bad_slot = 1;
        return ctx->out_of_guide_penalty;
    }
    return ctx->guide_mask[slot] ? 0.0 : ctx->out_of_guide_penalty;
}

/* (base + congestion) + guide of one move -- the operation order of the
 * Python closures, congestion being CostModel's hw * history plus the
 * occupancy penalty when another net owns the successor. */
static inline double
trad_step(SearchCtx *ctx, double base, int succ)
{
    double congestion = ctx->history_weight * ctx->history[succ];
    int holder = ctx->owner[succ];
    double step;

    if (holder != 0 && holder != ctx->net_id) {
        congestion += ctx->occupancy_penalty;
    }
    step = base + congestion;
    return step + guide_term(ctx, succ);
}

/* gamma-weighted conflict cost of mask *color* at *succ*: the grid's
 * pressure, minus the searching net's own contribution (clamped at zero
 * the way Python's max(p - own, 0.0) clamps) where it has one. */
static inline double
color_term(const SearchCtx *ctx, int succ, int color)
{
    size_t slot = 3 * (size_t)succ + (size_t)color;
    double value = ctx->pressure[slot];

    if (ctx->own_stamp[succ] == ctx->epoch) {
        value = value - ctx->own_pressure[slot];
        if (0.0 > value) {
            value = 0.0;
        }
    }
    return ctx->gamma * value;
}

/* dr/maze make_traditional_expand: 6 grid moves at Cost_trad. */
static inline int
expand_traditional(SearchCtx *ctx, int node, double g)
{
    const double *base_row = ctx->base_costs + (size_t)(node / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)node * NUM_DIRECTIONS;
    int direction, succ;
    double step;

    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        succ = ctx->neighbor[slot + direction];
        if (succ < 0 || ctx->blocked[succ]) {
            continue;
        }
        step = trad_step(ctx, base_row[direction], succ);
        if (relax(ctx, succ, g + ctx->alpha * step, 0, node) < 0) {
            return -1;
        }
    }
    return 0;
}

/* tpl/search make_color_state_expand: Alg. 2 lines 9-17 per direction. */
static inline int
expand_color_state(SearchCtx *ctx, int node, double g, int bits)
{
    const double *base_row = ctx->base_costs + (size_t)(node / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)node * NUM_DIRECTIONS;
    int direction, succ, nbits;
    double base_step, cost_red, cost_green, cost_blue, minimum, limit;

    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        succ = ctx->neighbor[slot + direction];
        if (succ < 0 || ctx->blocked[succ]) {
            continue;
        }
        base_step = ctx->alpha * trad_step(ctx, base_row[direction], succ);
        cost_red = base_step + color_term(ctx, succ, 0);
        cost_green = base_step + color_term(ctx, succ, 1);
        cost_blue = base_step + color_term(ctx, succ, 2);
        if (direction < 4) { /* planar move: stitch for masks outside the state */
            if (!(bits & 0x4)) {
                cost_red += ctx->stitch;
            }
            if (!(bits & 0x2)) {
                cost_green += ctx->stitch;
            }
            if (!(bits & 0x1)) {
                cost_blue += ctx->stitch;
            }
        }
        minimum = cost_red <= cost_green ? cost_red : cost_green;
        if (cost_blue < minimum) {
            minimum = cost_blue;
        }
        limit = minimum + ctx->tolerance;
        nbits = (cost_red <= limit ? 0x4 : 0) | (cost_green <= limit ? 0x2 : 0) |
                (cost_blue <= limit ? 0x1 : 0);
        if (relax(ctx, succ, g + minimum, nbits, node) < 0) {
            return -1;
        }
    }
    return 0;
}

/* baselines/dac2012 MaskExpandedSearch._make_expand: 2 in-place mask
 * switches (a stitch on the expanded graph) then 6 moves keeping the mask,
 * each charged the mask's color conflict cost at the destination. */
static inline int
expand_mask_expanded(SearchCtx *ctx, int node, double g)
{
    int vertex = node / 3;
    int color = node % 3;
    int vertex_base = 3 * vertex;
    const double *base_row = ctx->base_costs + (size_t)(vertex / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)vertex * NUM_DIRECTIONS;
    int other, direction, succ;
    double step, g_new;

    for (other = 0; other < 3; other++) {
        if (other != color) {
            if (relax(ctx, vertex_base + other, g + ctx->stitch, 0, node) < 0) {
                return -1;
            }
        }
    }
    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        succ = ctx->neighbor[slot + direction];
        if (succ < 0 || ctx->blocked[succ]) {
            continue;
        }
        step = trad_step(ctx, base_row[direction], succ);
        g_new = (g + ctx->alpha * step) + color_term(ctx, succ, color);
        if (relax(ctx, succ * 3 + color, g_new, 0, node) < 0) {
            return -1;
        }
    }
    return 0;
}

/* The relaxation loop proper; returns 0/-1 (OOM), reports through *out. */
static int
run_loop(SearchCtx *ctx, const int *seed_node, const int *seed_aux,
         Py_ssize_t num_seeds, Py_ssize_t max_expansions,
         int *reached_out, Py_ssize_t *expansions_out)
{
    Py_ssize_t seed, expansions = 0;
    int reached = -1;

    for (seed = 0; seed < num_seeds; seed++) {
        int node = seed_node[seed];
        ctx->cost[node] = 0.0;
        ctx->aux[node] = seed_aux[seed];
        ctx->parent[node] = -1;
        ctx->stamp[node] = ctx->epoch;
        if (heap_push(&ctx->heap, heur_of(ctx, node), ctx->counter++, node, 0.0) < 0) {
            return -1;
        }
    }

    while (ctx->heap.size > 0) {
        HeapEntry entry = heap_pop(&ctx->heap);
        int node = entry.node;
        double g_cur = ctx->cost[node];
        int a_cur;

        if (entry.g - g_cur > ctx->improve_eps) {
            continue; /* stale entry superseded by a strict improvement */
        }
        a_cur = ctx->aux[node];
        if (ctx->exp_stamp[node] == ctx->epoch && ctx->exp_cost[node] == g_cur &&
            ctx->exp_aux[node] == a_cur) {
            continue; /* already expanded with this exact label */
        }
        ctx->exp_stamp[node] = ctx->epoch;
        ctx->exp_cost[node] = g_cur;
        ctx->exp_aux[node] = a_cur;
        expansions += 1;
        if (ctx->target_flags[node]) {
            int accepted = 1;
            if (ctx->accept_mode == 1) {
                /* maze's occupied-target rule: reject vertices another
                 * net's metal already owns (grid.is_occupied_by_other). */
                int holder = ctx->owner[node];
                accepted = !(holder != 0 && holder != ctx->net_id);
            }
            if (accepted) {
                reached = node;
                break;
            }
        }
        if (expansions > max_expansions) {
            break;
        }
        switch (ctx->mode) {
        case MODE_TRADITIONAL:
            if (expand_traditional(ctx, node, g_cur) < 0) {
                return -1;
            }
            break;
        case MODE_COLOR_STATE:
            if (expand_color_state(ctx, node, g_cur, a_cur) < 0) {
                return -1;
            }
            break;
        default:
            if (expand_mask_expanded(ctx, node, g_cur) < 0) {
                return -1;
            }
            break;
        }
    }
    *reached_out = reached;
    *expansions_out = expansions;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Python binding                                                      */
/* ------------------------------------------------------------------ */

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
    if (PyObject_GetBuffer(obj, &slot->view,
                           writable ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0) {
        return -1;
    }
    slot->held = 1;
    *ptr = slot->view.buf;
    return 0;
}

/* Scatter the searching net's pressure overlay ({vertex: [r, g, b]}) into
 * the own-pressure scratch and stamp its vertices with the search epoch.
 * Runs under the GIL; O(|overlay|). */
static int
scatter_overlay(SearchCtx *ctx, PyObject *overlay, Py_ssize_t num_vertices)
{
    Py_ssize_t pos = 0, index;
    PyObject *key, *value, *fast;
    double own;
    int color;

    if (!PyDict_Check(overlay)) {
        PyErr_SetString(PyExc_TypeError, "pressure overlay must be a dict");
        return -1;
    }
    while (PyDict_Next(overlay, &pos, &key, &value)) {
        index = PyLong_AsSsize_t(key);
        if (index == -1 && PyErr_Occurred()) {
            return -1;
        }
        if (index < 0 || index >= num_vertices) {
            PyErr_SetString(PyExc_IndexError, "pressure overlay vertex out of range");
            return -1;
        }
        fast = PySequence_Fast(value, "pressure overlay entry must be a sequence");
        if (fast == NULL) {
            return -1;
        }
        if (PySequence_Fast_GET_SIZE(fast) != 3) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError, "pressure overlay entry needs 3 masks");
            return -1;
        }
        for (color = 0; color < 3; color++) {
            own = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, color));
            if (own == -1.0 && PyErr_Occurred()) {
                Py_DECREF(fast);
                return -1;
            }
            ctx->own_pressure[3 * index + color] = own;
        }
        Py_DECREF(fast);
        ctx->own_stamp[index] = ctx->epoch;
    }
    return 0;
}

/* Raise ValueError unless buffer *slot* holds at least *count* items of
 * *item* bytes (a None buffer holds none). */
static int
require_items(const BufferSlot *slot, Py_ssize_t count, size_t item, const char *name)
{
    if (!slot->held || slot->view.len / (Py_ssize_t)item < count) {
        PyErr_Format(PyExc_ValueError, "%s buffer holds fewer than %zd items",
                     name, count);
        return -1;
    }
    return 0;
}

#define NUM_BUFFERS 20

static PyObject *
run_search(PyObject *self, PyObject *args)
{
    SearchCtx ctx;
    PyObject *cost_obj, *aux_obj, *parent_obj, *stamp_obj;
    PyObject *exp_cost_obj, *exp_aux_obj, *exp_stamp_obj;
    PyObject *seed_node_obj, *seed_aux_obj, *flags_obj;
    PyObject *neighbor_obj, *blocked_obj, *base_obj;
    PyObject *guide_mask_obj, *guide_slot_obj;
    PyObject *history_obj, *owner_obj, *pressure_obj;
    PyObject *own_pressure_obj, *own_stamp_obj, *overlay_obj;
    Py_ssize_t num_nodes, num_vertices, num_layers, num_seeds, max_expansions;
    Py_ssize_t expansions = 0, seed;
    int reached = -1, status = 0, i;
    BufferSlot slots[NUM_BUFFERS];
    void *ptrs[NUM_BUFFERS];
    const int *seed_node = NULL, *seed_aux = NULL;

    memset(&ctx, 0, sizeof(ctx));
    if (!PyArg_ParseTuple(
            args,
            "ini"      /* mode, num_nodes, node_stride */
            "OOOO"     /* cost, aux, parent, stamp */
            "OOO"      /* exp_cost, exp_aux, exp_stamp */
            "L"        /* epoch */
            "OOn"      /* seed_node, seed_aux, num_seeds */
            "O"        /* target_flags */
            "iiiiiii"  /* use_bounds, min/max layer, col, row */
            "dd"       /* alpha, via_cost */
            "ii"       /* plane, rows */
            "dd"       /* improve_eps, tie_eps */
            "in"       /* merge_aux, max_expansions */
            "ii"       /* accept_mode, net_id */
            "OOO"      /* neighbor, blocked, base_costs */
            "OO"       /* guide_mask, guide_slot */
            "OOO"      /* history, owner, pressure */
            "OOO"      /* own_pressure, own_stamp, overlay */
            "dddd"     /* history_weight, occupancy_penalty,
                          out_of_guide_penalty, gamma */
            "dd",      /* stitch, tolerance */
            &ctx.mode, &num_nodes, &ctx.node_stride,
            &cost_obj, &aux_obj, &parent_obj, &stamp_obj,
            &exp_cost_obj, &exp_aux_obj, &exp_stamp_obj,
            &ctx.epoch,
            &seed_node_obj, &seed_aux_obj, &num_seeds,
            &flags_obj,
            &ctx.use_bounds, &ctx.min_layer, &ctx.max_layer, &ctx.min_col,
            &ctx.max_col, &ctx.min_row, &ctx.max_row,
            &ctx.alpha, &ctx.via_cost,
            &ctx.plane, &ctx.rows,
            &ctx.improve_eps, &ctx.tie_eps,
            &ctx.merge_aux, &max_expansions,
            &ctx.accept_mode, &ctx.net_id,
            &neighbor_obj, &blocked_obj, &base_obj,
            &guide_mask_obj, &guide_slot_obj,
            &history_obj, &owner_obj, &pressure_obj,
            &own_pressure_obj, &own_stamp_obj, &overlay_obj,
            &ctx.history_weight, &ctx.occupancy_penalty,
            &ctx.out_of_guide_penalty, &ctx.gamma,
            &ctx.stitch, &ctx.tolerance)) {
        return NULL;
    }
    if (ctx.node_stride < 1 || ctx.plane < 1 || ctx.rows < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "node_stride, plane and rows must be positive");
        return NULL;
    }
    if (num_nodes < 0 || num_seeds < 0) {
        PyErr_SetString(PyExc_ValueError, "num_nodes and num_seeds must be >= 0");
        return NULL;
    }
    num_vertices = num_nodes / ctx.node_stride;
    num_layers = (num_vertices + ctx.plane - 1) / ctx.plane;

    {
        PyObject *objects[NUM_BUFFERS] = {
            cost_obj, aux_obj, parent_obj, stamp_obj,
            exp_cost_obj, exp_aux_obj, exp_stamp_obj,
            own_pressure_obj, own_stamp_obj,
            seed_node_obj, seed_aux_obj, flags_obj,
            neighbor_obj, blocked_obj, base_obj,
            guide_mask_obj, guide_slot_obj,
            history_obj, owner_obj, pressure_obj,
        };
        int writable[NUM_BUFFERS] = {1, 1, 1, 1, 1, 1, 1, 1, 1,
                                     0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
        for (i = 0; i < NUM_BUFFERS; i++) {
            if (acquire(objects[i], &slots[i], writable[i], &ptrs[i]) < 0) {
                while (--i >= 0) {
                    if (slots[i].held) {
                        PyBuffer_Release(&slots[i].view);
                    }
                }
                return NULL;
            }
        }
    }
    ctx.cost = (double *)ptrs[0];
    ctx.aux = (int *)ptrs[1];
    ctx.parent = (int *)ptrs[2];
    ctx.stamp = (long long *)ptrs[3];
    ctx.exp_cost = (double *)ptrs[4];
    ctx.exp_aux = (int *)ptrs[5];
    ctx.exp_stamp = (long long *)ptrs[6];
    ctx.own_pressure = (double *)ptrs[7];
    ctx.own_stamp = (long long *)ptrs[8];
    seed_node = (const int *)ptrs[9];
    seed_aux = (const int *)ptrs[10];
    ctx.target_flags = (const unsigned char *)ptrs[11];
    ctx.neighbor = (const int *)ptrs[12];
    ctx.blocked = (const unsigned char *)ptrs[13];
    ctx.base_costs = (const double *)ptrs[14];
    ctx.guide_mask = (const unsigned char *)ptrs[15];
    ctx.guide_mask_len = slots[15].held ? (size_t)slots[15].view.len : 0;
    ctx.guide_slot = (const int *)ptrs[16];
    ctx.history = (const double *)ptrs[17];
    ctx.owner = (const int *)ptrs[18];
    ctx.pressure = (const double *)ptrs[19];

    /* Every buffer the loop indexes must cover the node / vertex space. */
    if (require_items(&slots[0], num_nodes, sizeof(double), "cost") < 0 ||
        require_items(&slots[1], num_nodes, sizeof(int), "aux") < 0 ||
        require_items(&slots[2], num_nodes, sizeof(int), "parent") < 0 ||
        require_items(&slots[3], num_nodes, sizeof(long long), "stamp") < 0 ||
        require_items(&slots[4], num_nodes, sizeof(double), "exp_cost") < 0 ||
        require_items(&slots[5], num_nodes, sizeof(int), "exp_aux") < 0 ||
        require_items(&slots[6], num_nodes, sizeof(long long), "exp_stamp") < 0 ||
        require_items(&slots[9], num_seeds, sizeof(int), "seed_node") < 0 ||
        require_items(&slots[10], num_seeds, sizeof(int), "seed_aux") < 0 ||
        require_items(&slots[11], num_nodes, 1, "target_flags") < 0 ||
        require_items(&slots[12], NUM_DIRECTIONS * num_vertices, sizeof(int),
                      "neighbor") < 0 ||
        require_items(&slots[13], num_vertices, 1, "blocked") < 0 ||
        require_items(&slots[14], NUM_DIRECTIONS * num_layers, sizeof(double),
                      "base_costs") < 0 ||
        require_items(&slots[16], num_vertices, sizeof(int), "guide_slot") < 0 ||
        require_items(&slots[17], num_vertices, sizeof(double), "history") < 0 ||
        require_items(&slots[18], num_vertices, sizeof(int), "owner") < 0) {
        status = -2;
    }
    else if (ctx.mode != MODE_TRADITIONAL) {
        /* Colour modes read pressure and the own-pressure scratch. */
        if (overlay_obj == Py_None) {
            PyErr_SetString(PyExc_ValueError, "colour modes need a pressure overlay");
            status = -2;
        }
        else if (require_items(&slots[19], 3 * num_vertices, sizeof(double),
                               "pressure") < 0 ||
                 require_items(&slots[7], 3 * num_vertices, sizeof(double),
                               "own_pressure") < 0 ||
                 require_items(&slots[8], num_vertices, sizeof(long long),
                               "own_stamp") < 0 ||
                 scatter_overlay(&ctx, overlay_obj, num_vertices) < 0) {
            status = -2;
        }
    }
    for (seed = 0; status == 0 && seed < num_seeds; seed++) {
        if (seed_node[seed] < 0 || seed_node[seed] >= num_nodes) {
            PyErr_SetString(PyExc_ValueError, "seed node out of range");
            status = -2;
        }
    }

    if (status == 0) {
        if (heap_init(&ctx.heap, num_seeds > 256 ? num_seeds : 256) < 0) {
            status = -1;
        }
        else {
            Py_BEGIN_ALLOW_THREADS
            status = run_loop(&ctx, seed_node, seed_aux, num_seeds, max_expansions,
                              &reached, &expansions);
            Py_END_ALLOW_THREADS
            heap_free(&ctx.heap);
            if (status == 0 && ctx.bad_slot) {
                PyErr_SetString(PyExc_ValueError,
                                "guide_slot entry lies past the guide_mask");
                status = -2;
            }
        }
    }

    for (i = 0; i < NUM_BUFFERS; i++) {
        if (slots[i].held) {
            PyBuffer_Release(&slots[i].view);
        }
    }
    if (status == -2) {
        return NULL; /* exception already set */
    }
    if (status < 0) {
        return PyErr_NoMemory();
    }
    return Py_BuildValue("in", reached, expansions);
}

/* labelled_box(stamp, epoch, node_stride, plane_size, num_rows): the planar
 * (col_lo, row_lo, col_hi, row_hi) bounding box of every node whose stamp
 * equals epoch, or None when there is none -- CoreResult.labelled_planar_box
 * without the interpreted O(nodes) scan. */
static PyObject *
labelled_box(PyObject *self, PyObject *args)
{
    PyObject *stamp_obj;
    BufferSlot slot;
    void *ptr;
    const long long *stamp;
    long long epoch;
    Py_ssize_t num_nodes, node;
    int node_stride, plane, rows, found = 0;
    long long vertex, rem, col, row;
    long long col_lo = 0, row_lo = 0, col_hi = 0, row_hi = 0;

    if (!PyArg_ParseTuple(args, "OLiii", &stamp_obj, &epoch, &node_stride,
                          &plane, &rows)) {
        return NULL;
    }
    if (node_stride < 1 || plane < 1 || rows < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "node_stride, plane and rows must be positive");
        return NULL;
    }
    if (acquire(stamp_obj, &slot, 0, &ptr) < 0) {
        return NULL;
    }
    if (!slot.held) {
        PyErr_SetString(PyExc_TypeError, "stamp must be a buffer");
        return NULL;
    }
    stamp = (const long long *)ptr;
    num_nodes = slot.view.len / (Py_ssize_t)sizeof(long long);

    Py_BEGIN_ALLOW_THREADS
    for (node = 0; node < num_nodes; node++) {
        if (stamp[node] != epoch) {
            continue;
        }
        vertex = (long long)node / node_stride;
        rem = vertex % plane;
        col = rem / rows;
        row = rem % rows;
        if (!found) {
            col_lo = col_hi = col;
            row_lo = row_hi = row;
            found = 1;
            continue;
        }
        if (col < col_lo) {
            col_lo = col;
        }
        else if (col > col_hi) {
            col_hi = col;
        }
        if (row < row_lo) {
            row_lo = row;
        }
        else if (row > row_hi) {
            row_hi = row;
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&slot.view);
    if (!found) {
        Py_RETURN_NONE;
    }
    return Py_BuildValue("(LLLL)", col_lo, row_lo, col_hi, row_hi);
}

static PyMethodDef relaxation_methods[] = {
    {"run_search", run_search, METH_VARARGS,
     "Run one compiled multi-source Dijkstra/A* search over flat buffers."},
    {"labelled_box", labelled_box, METH_VARARGS,
     "Return the planar bounding box of the nodes stamped with an epoch."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef relaxation_module = {
    PyModuleDef_HEAD_INIT,
    "_relaxation",
    "Compiled relaxation kernel behind repro.search.SearchCore.run.",
    -1,
    relaxation_methods,
};

PyMODINIT_FUNC
PyInit__relaxation(void)
{
    PyObject *module = PyModule_Create(&relaxation_module);
    if (module == NULL) {
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "KERNEL_ABI_VERSION",
                                KERNEL_ABI_VERSION) < 0 ||
        PyModule_AddIntConstant(module, "MODE_TRADITIONAL", MODE_TRADITIONAL) < 0 ||
        PyModule_AddIntConstant(module, "MODE_COLOR_STATE", MODE_COLOR_STATE) < 0 ||
        PyModule_AddIntConstant(module, "MODE_MASK_EXPANDED", MODE_MASK_EXPANDED) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
