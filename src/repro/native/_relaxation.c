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
 * double operation in both runtimes), the heap orders entries by the same
 * (f, push counter) key heapq compares first, and that key is a strict
 * total order (the counter is unique) -- so pop order, tie-breaks, labels
 * and backtraced paths are identical to the interpreted loop.  The build
 * deliberately disables FP contraction (-ffp-contract=off): a fused
 * multiply-add would round differently from Python's separate ops.
 *
 * The heap is 4-ary and keys each entry by one unsigned __int128: the
 * order-preserving bits of f above the push counter, so one integer
 * compare decides (f, counter) and the pop's child selection compiles
 * without branches.  A compiler without __int128 stops at the #error
 * below; the loader then finds no binary and the engines run on the
 * Python tier.
 *
 * Cost inputs are read in place: the congestion term (hw * history, plus
 * the occupancy penalty at vertices a foreign net owns) and the colour
 * pressure term (gamma * pressure) are computed per successor from the
 * grid's live history / owner / pressure buffers, exactly as the lazy
 * Python closures compute them, so a call needs no O(V) set-up.  The
 * grid holds none of the searching net's own metal while it routes, so
 * the pressure needs no correction for it.
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
 * Search window (ABI 7): every call carries an inclusive planar window
 * (col_lo, row_lo, col_hi, row_hi) as four ints, and a successor whose
 * vertex lies outside it is never generated -- the call runs as if those
 * vertices were blocked.  SearchCore passes the searching net's guide box
 * grown by two gcells (GuideTables.search_window), or the whole grid when
 * it has none, and re-runs a windowed search that ends without a target
 * with the whole grid.  The popped node's column and row are decoded once
 * per expansion; each move's successor cell follows from them and the
 * direction (east/west step the column, north/south the row, vias and
 * the mask-expanded graph's in-place switches keep the cell), so the
 * window costs no division per successor.  labelled_box takes the same
 * four ints and scans only the window's runs of the stamp buffer.
 *
 * Target floor (ABI 8): every call carries the search's target floor m,
 * the least entry cost beyond the base step of any acceptable target (the
 * adapters' CostModel.target_floor: congestion, out-of-guide penalty and
 * the mode's colour term), and the slack repro.search.core.FLOOR_SLACK.
 * The loop keeps the lowest (f, counter) entry pushed onto a target and
 * returns that target, stamped as expanded, as soon as
 *
 *     best_f + slack < f(heap top) + m.
 *
 * The rule is exact: the bounding-box heuristic is consistent and zero on
 * the targets, so every later push onto a target has f >= f(top) + m (up
 * to the tie_eps of an aux merge's re-push, far below the slack); the
 * best entry would therefore pop before any other target entry, with the
 * same cost, aux and parent chain, and no later relaxation can improve it
 * or merge aux bits into its chain (a merge needs a cost within tie_eps,
 * and slack > tie_eps).  With m = 0 the rule never fires: the best entry
 * sits in the heap, so f(top) <= best_f.  Only the work after the answer
 * is fixed is skipped, so a search that used to exceed max_expansions may
 * now finish.  Targets are the flagged nodes; SearchCore drops the ones an
 * accept predicate rejects before the call, so the kernel has no accept
 * rule of its own.  run_search returns (reached, expansions, stopped),
 * stopped being 1 when the floor ended the search.
 *
 * The GIL is released for the duration of the loop: the kernel only
 * writes the caller-owned label buffers (exclusive to one SearchCore) and
 * reads grid buffers nothing mutates while a search runs.
 *
 * Pressure stamps (ABI 9): stamp_pressure is not part of a search.  A
 * route commit and a net release (RoutingGrid.commit_route / release_net)
 * hand it the net's coloured vertices, their masks and one amount (+ or -
 * the conflict cost), and it adds the amount to each mask's pressure over
 * the clipped (2k+1)^2 Chebyshev square of the vertex's layer reach k, in
 * the order of the grid's interpreted stamp loop.  It follows the search
 * tier's gate (repro.accel.get_native_kernel).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Bumped whenever the module's argument contract or its results change
 * (run_search, labelled_box or stamp_pressure); the Python loader refuses
 * (and rebuilds) a stale binary whose ABI does not match. */
#define KERNEL_ABI_VERSION 9

/* sha256 of this file, passed by the build (repro.native.build); the
 * loader also rebuilds a binary compiled from other source. */
#ifndef KERNEL_SOURCE_DIGEST
#define KERNEL_SOURCE_DIGEST ""
#endif

#define MODE_TRADITIONAL 0
#define MODE_COLOR_STATE 1
#define MODE_MASK_EXPANDED 2

#define NUM_DIRECTIONS 6

/* Window move bits: one per direction slot of the neighbour table (east,
 * west, north, south, up, down), plus the in-place mask switches. */
#define MOVE_EAST 0x01
#define MOVE_WEST 0x02
#define MOVE_NORTH 0x04
#define MOVE_SOUTH 0x08
#define MOVE_VIAS 0x30
#define MOVE_IN_PLACE 0x40

/* ------------------------------------------------------------------ */
/* 4-ary min-heap over one packed 128-bit (f, counter) key -- the      */
/* prefix of the (f, counter, node, g) tuples heapq compares; counter  */
/* is unique, so the order is total and any correct heap pops the same */
/* sequence heapq does.                                                */
/* ------------------------------------------------------------------ */

#ifndef __SIZEOF_INT128__
#error "the relaxation kernel needs unsigned __int128 heap keys"
#endif

typedef unsigned __int128 HeapKey;

typedef struct {
    HeapKey key; /* order_bits(f) << 64 | counter */
    int node;
    double g;
} HeapEntry;

typedef struct {
    HeapEntry *items;
    Py_ssize_t size;
    Py_ssize_t capacity;
} Heap;

/* Map a double to 64 bits whose unsigned order is the double's numeric
 * order: non-negatives get the sign bit set, negatives have every bit
 * flipped.  Adding +0.0 first turns -0.0 into +0.0, so the two zeros map
 * alike just as they compare equal.  (f is never NaN, which no order
 * could place.) */
static inline unsigned long long
order_bits(double f)
{
    unsigned long long bits;

    f = f + 0.0;
    memcpy(&bits, &f, sizeof(bits));
    return bits ^ ((unsigned long long)((long long)bits >> 63) | 0x8000000000000000ULL);
}

static inline HeapKey
heap_key(double f, long long counter)
{
    return ((HeapKey)order_bits(f) << 64) | (HeapKey)(unsigned long long)counter;
}

/* The f of a key: order_bits inverted. */
static inline double
key_f(HeapKey key)
{
    unsigned long long bits = (unsigned long long)(key >> 64);
    double f;

    bits = (bits & 0x8000000000000000ULL) ? bits ^ 0x8000000000000000ULL : ~bits;
    memcpy(&f, &bits, sizeof(f));
    return f;
}

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
    entry.key = heap_key(f, counter);
    entry.node = node;
    entry.g = g;
    child = heap->size++;
    while (child > 0) {
        parent = (child - 1) >> 2;
        if (entry.key >= heap->items[parent].key) {
            break;
        }
        heap->items[child] = heap->items[parent];
        child = parent;
    }
    heap->items[child] = entry;
    return 0;
}

/* Pop the minimum (Floyd's bottom-up scheme): walk the hole from the root
 * to a leaf, each step moving up the smallest of the hole's children,
 * then sift the former last entry up from that leaf.  A node with all 4
 * children picks its smallest by a two-level tournament of key compares
 * the compiler turns into cmp/sbb and conditional moves, so the walk has
 * no data-dependent branch; only the last parent, with 1-3 children,
 * compares in a loop. */
static HeapEntry
heap_pop(Heap *heap)
{
    HeapEntry *items = heap->items;
    HeapEntry top = items[0];
    Py_ssize_t size = --heap->size;
    Py_ssize_t hole = 0, child, best, parent;
    HeapEntry last;

    if (size == 0) {
        return top;
    }
    last = items[size];
    while ((child = 4 * hole + 1) + 3 < size) {
        Py_ssize_t low = child + (items[child + 1].key < items[child].key);
        Py_ssize_t high = child + 2 + (items[child + 3].key < items[child + 2].key);
        best = items[high].key < items[low].key ? high : low;
        items[hole] = items[best];
        hole = best;
    }
    if (child < size) {
        best = child;
        for (child = best + 1; child < size; child++) {
            if (items[child].key < items[best].key) {
                best = child;
            }
        }
        items[hole] = items[best];
        hole = best;
    }
    while (hole > 0) {
        parent = (hole - 1) >> 2;
        if (last.key >= items[parent].key) {
            break;
        }
        items[hole] = items[parent];
        hole = parent;
    }
    items[hole] = last;
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
    const unsigned char *target_flags; /* 1 at every acceptable target */
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
    int win_col_lo, win_row_lo, win_col_hi, win_row_hi; /* inclusive */
    int net_id;
    double target_floor;
    double floor_slack;
    long long counter;
    /* The lowest (f, counter) entry pushed onto a target so far. */
    int best_node;
    double best_f;
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

/* The moves out of *node* whose successor cell lies inside the window:
 * a MOVE_* bit per allowed direction.  A via or an in-place switch keeps
 * the cell, so it is allowed only from a node inside the window. */
static inline int
window_moves(const SearchCtx *ctx, int node)
{
    int vertex = ctx->node_stride != 1 ? node / ctx->node_stride : node;
    int rem = vertex % ctx->plane;
    int col = rem / ctx->rows;
    int row = rem % ctx->rows;
    int col_in = col >= ctx->win_col_lo && col <= ctx->win_col_hi;
    int row_in = row >= ctx->win_row_lo && row <= ctx->win_row_hi;
    int moves = 0;

    if (row_in) {
        if (col + 1 >= ctx->win_col_lo && col + 1 <= ctx->win_col_hi) {
            moves |= MOVE_EAST;
        }
        if (col - 1 >= ctx->win_col_lo && col - 1 <= ctx->win_col_hi) {
            moves |= MOVE_WEST;
        }
    }
    if (col_in) {
        if (row + 1 >= ctx->win_row_lo && row + 1 <= ctx->win_row_hi) {
            moves |= MOVE_NORTH;
        }
        if (row - 1 >= ctx->win_row_lo && row - 1 <= ctx->win_row_hi) {
            moves |= MOVE_SOUTH;
        }
        if (row_in) {
            moves |= MOVE_VIAS | MOVE_IN_PLACE;
        }
    }
    return moves;
}

/* Push a new label of *node* and track the lowest (f, counter) entry
 * pushed onto a target: counters grow, so only a strictly lower f wins. */
static inline int
push_label(SearchCtx *ctx, int node, double g)
{
    double f = g + heur_of(ctx, node);

    if (ctx->target_flags[node] && f < ctx->best_f) {
        ctx->best_f = f;
        ctx->best_node = node;
    }
    return heap_push(&ctx->heap, f, ctx->counter++, node, g);
}

/* One relaxation -- the exact body of SearchCore.run's buffered successor
 * loop (fresh label / strict improvement / equal-cost aux merge).  The
 * merge's re-push needs no target tracking: it re-queues an expanded
 * node, and an expanded target has ended the search. */
static inline int
relax(SearchCtx *ctx, int succ, double g_new, int a_new, int node)
{
    double g_old;

    if (ctx->stamp[succ] != ctx->epoch) {
        ctx->stamp[succ] = ctx->epoch;
        ctx->cost[succ] = g_new;
        ctx->aux[succ] = a_new;
        ctx->parent[succ] = node;
        return push_label(ctx, succ, g_new);
    }
    g_old = ctx->cost[succ];
    if (g_new < g_old - ctx->improve_eps) {
        ctx->cost[succ] = g_new;
        ctx->aux[succ] = a_new;
        ctx->parent[succ] = node;
        return push_label(ctx, succ, g_new);
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

/* gamma-weighted conflict cost of mask *color* at *succ*. */
static inline double
color_term(const SearchCtx *ctx, int succ, int color)
{
    return ctx->gamma * ctx->pressure[3 * (size_t)succ + (size_t)color];
}

/* dr/maze make_traditional_expand: 6 grid moves at Cost_trad. */
static inline int
expand_traditional(SearchCtx *ctx, int node, double g, int moves)
{
    const double *base_row = ctx->base_costs + (size_t)(node / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)node * NUM_DIRECTIONS;
    int direction, succ;
    double step;

    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        if (!(moves & (1 << direction))) {
            continue;
        }
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
expand_color_state(SearchCtx *ctx, int node, double g, int bits, int moves)
{
    const double *base_row = ctx->base_costs + (size_t)(node / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)node * NUM_DIRECTIONS;
    int direction, succ, nbits;
    double base_step, cost_red, cost_green, cost_blue, minimum, limit;

    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        if (!(moves & (1 << direction))) {
            continue;
        }
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

/* baselines/dac2012 MaskExpandedSearch.make_expand: 2 in-place mask
 * switches (a stitch on the expanded graph) then 6 moves keeping the mask,
 * each charged the mask's color conflict cost at the destination. */
static inline int
expand_mask_expanded(SearchCtx *ctx, int node, double g, int moves)
{
    int vertex = node / 3;
    int color = node % 3;
    int vertex_base = 3 * vertex;
    const double *base_row = ctx->base_costs + (size_t)(vertex / ctx->plane) * NUM_DIRECTIONS;
    size_t slot = (size_t)vertex * NUM_DIRECTIONS;
    int other, direction, succ;
    double step, g_new;

    for (other = 0; other < 3 && (moves & MOVE_IN_PLACE); other++) {
        if (other != color) {
            if (relax(ctx, vertex_base + other, g + ctx->stitch, 0, node) < 0) {
                return -1;
            }
        }
    }
    for (direction = 0; direction < NUM_DIRECTIONS; direction++) {
        if (!(moves & (1 << direction))) {
            continue;
        }
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
         int *reached_out, Py_ssize_t *expansions_out, int *stopped_out)
{
    Py_ssize_t seed, expansions = 0;
    int reached = -1;

    ctx->best_node = -1;
    ctx->best_f = HUGE_VAL;
    *stopped_out = 0;
    for (seed = 0; seed < num_seeds; seed++) {
        int node = seed_node[seed];
        ctx->cost[node] = 0.0;
        ctx->aux[node] = seed_aux[seed];
        ctx->parent[node] = -1;
        ctx->stamp[node] = ctx->epoch;
        if (push_label(ctx, node, 0.0) < 0) {
            return -1;
        }
    }

    while (ctx->heap.size > 0) {
        HeapEntry entry;
        int node;
        double g_cur;
        int a_cur, moves;

        if (ctx->best_node >= 0 &&
            ctx->best_f + ctx->floor_slack <
                key_f(ctx->heap.items[0].key) + ctx->target_floor) {
            /* The best target entry provably pops before any other
             * target entry, with this label: end the search on it. */
            node = ctx->best_node;
            ctx->exp_stamp[node] = ctx->epoch;
            ctx->exp_cost[node] = ctx->cost[node];
            ctx->exp_aux[node] = ctx->aux[node];
            expansions += 1;
            reached = node;
            *stopped_out = 1;
            break;
        }
        entry = heap_pop(&ctx->heap);
        node = entry.node;
        g_cur = ctx->cost[node];

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
            reached = node;
            break;
        }
        if (expansions > max_expansions) {
            break;
        }
        moves = window_moves(ctx, node);
        switch (ctx->mode) {
        case MODE_TRADITIONAL:
            if (expand_traditional(ctx, node, g_cur, moves) < 0) {
                return -1;
            }
            break;
        case MODE_COLOR_STATE:
            if (expand_color_state(ctx, node, g_cur, a_cur, moves) < 0) {
                return -1;
            }
            break;
        default:
            if (expand_mask_expanded(ctx, node, g_cur, moves) < 0) {
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

#define NUM_BUFFERS 18

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
    Py_ssize_t num_nodes, num_vertices, num_layers, num_seeds, max_expansions;
    Py_ssize_t expansions = 0, seed;
    int reached = -1, stopped = 0, status = 0, i;
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
            "iiii"     /* window col_lo, row_lo, col_hi, row_hi */
            "dd"       /* alpha, via_cost */
            "ii"       /* plane, rows */
            "dd"       /* improve_eps, tie_eps */
            "in"       /* merge_aux, max_expansions */
            "dd"       /* target_floor, floor_slack */
            "i"        /* net_id */
            "OOO"      /* neighbor, blocked, base_costs */
            "OO"       /* guide_mask, guide_slot */
            "OOO"      /* history, owner, pressure */
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
            &ctx.win_col_lo, &ctx.win_row_lo, &ctx.win_col_hi, &ctx.win_row_hi,
            &ctx.alpha, &ctx.via_cost,
            &ctx.plane, &ctx.rows,
            &ctx.improve_eps, &ctx.tie_eps,
            &ctx.merge_aux, &max_expansions,
            &ctx.target_floor, &ctx.floor_slack,
            &ctx.net_id,
            &neighbor_obj, &blocked_obj, &base_obj,
            &guide_mask_obj, &guide_slot_obj,
            &history_obj, &owner_obj, &pressure_obj,
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
            seed_node_obj, seed_aux_obj, flags_obj,
            neighbor_obj, blocked_obj, base_obj,
            guide_mask_obj, guide_slot_obj,
            history_obj, owner_obj, pressure_obj,
        };
        int writable[NUM_BUFFERS] = {1, 1, 1, 1, 1, 1, 1,
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
    seed_node = (const int *)ptrs[7];
    seed_aux = (const int *)ptrs[8];
    ctx.target_flags = (const unsigned char *)ptrs[9];
    ctx.neighbor = (const int *)ptrs[10];
    ctx.blocked = (const unsigned char *)ptrs[11];
    ctx.base_costs = (const double *)ptrs[12];
    ctx.guide_mask = (const unsigned char *)ptrs[13];
    ctx.guide_mask_len = slots[13].held ? (size_t)slots[13].view.len : 0;
    ctx.guide_slot = (const int *)ptrs[14];
    ctx.history = (const double *)ptrs[15];
    ctx.owner = (const int *)ptrs[16];
    ctx.pressure = (const double *)ptrs[17];

    /* Every buffer the loop indexes must cover the node / vertex space. */
    if (require_items(&slots[0], num_nodes, sizeof(double), "cost") < 0 ||
        require_items(&slots[1], num_nodes, sizeof(int), "aux") < 0 ||
        require_items(&slots[2], num_nodes, sizeof(int), "parent") < 0 ||
        require_items(&slots[3], num_nodes, sizeof(long long), "stamp") < 0 ||
        require_items(&slots[4], num_nodes, sizeof(double), "exp_cost") < 0 ||
        require_items(&slots[5], num_nodes, sizeof(int), "exp_aux") < 0 ||
        require_items(&slots[6], num_nodes, sizeof(long long), "exp_stamp") < 0 ||
        require_items(&slots[7], num_seeds, sizeof(int), "seed_node") < 0 ||
        require_items(&slots[8], num_seeds, sizeof(int), "seed_aux") < 0 ||
        require_items(&slots[9], num_nodes, 1, "target_flags") < 0 ||
        require_items(&slots[10], NUM_DIRECTIONS * num_vertices, sizeof(int),
                      "neighbor") < 0 ||
        require_items(&slots[11], num_vertices, 1, "blocked") < 0 ||
        require_items(&slots[12], NUM_DIRECTIONS * num_layers, sizeof(double),
                      "base_costs") < 0 ||
        require_items(&slots[14], num_vertices, sizeof(int), "guide_slot") < 0 ||
        require_items(&slots[15], num_vertices, sizeof(double), "history") < 0 ||
        require_items(&slots[16], num_vertices, sizeof(int), "owner") < 0) {
        status = -2;
    }
    else if (ctx.mode != MODE_TRADITIONAL &&
             require_items(&slots[17], 3 * num_vertices, sizeof(double),
                           "pressure") < 0) {
        /* Colour modes read the pressure buffer. */
        status = -2;
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
                              &reached, &expansions, &stopped);
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
    return Py_BuildValue("ini", reached, expansions, stopped);
}

/* labelled_box(stamp, epoch, node_stride, plane_size, num_rows, col_lo,
 * row_lo, col_hi, row_hi): the planar (col_lo, row_lo, col_hi, row_hi)
 * bounding box of every node whose stamp equals epoch and whose cell lies
 * in the given inclusive window, or None when there is none --
 * CoreResult.labelled_planar_box without the interpreted scan.  Each
 * (layer, column) of the window is one contiguous run of nodes, so only
 * the window's share of the buffer is read. */
static PyObject *
labelled_box(PyObject *self, PyObject *args)
{
    PyObject *stamp_obj;
    BufferSlot slot;
    void *ptr;
    const long long *stamp;
    long long epoch;
    Py_ssize_t num_nodes, node, first, stop, layer_base;
    int node_stride, plane, rows, found = 0;
    int win_col_lo, win_row_lo, win_col_hi, win_row_hi, col;
    long long row;
    long long col_lo = 0, row_lo = 0, col_hi = 0, row_hi = 0;

    if (!PyArg_ParseTuple(args, "OLiiiiiii", &stamp_obj, &epoch, &node_stride,
                          &plane, &rows, &win_col_lo, &win_row_lo, &win_col_hi,
                          &win_row_hi)) {
        return NULL;
    }
    if (node_stride < 1 || plane < 1 || rows < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "node_stride, plane and rows must be positive");
        return NULL;
    }
    if (win_col_lo < 0) {
        win_col_lo = 0;
    }
    if (win_row_lo < 0) {
        win_row_lo = 0;
    }
    if (win_col_hi > plane / rows - 1) {
        win_col_hi = plane / rows - 1;
    }
    if (win_row_hi > rows - 1) {
        win_row_hi = rows - 1;
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
    for (layer_base = 0; layer_base * node_stride < num_nodes; layer_base += plane) {
        for (col = win_col_lo; col <= win_col_hi; col++) {
            first = (layer_base + (Py_ssize_t)col * rows + win_row_lo) * node_stride;
            stop = (layer_base + (Py_ssize_t)col * rows + win_row_hi + 1) * node_stride;
            if (stop > num_nodes) {
                stop = num_nodes;
            }
            for (node = first; node < stop; node++) {
                if (stamp[node] != epoch) {
                    continue;
                }
                row = ((long long)node / node_stride - layer_base) % rows;
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
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&slot.view);
    if (!found) {
        Py_RETURN_NONE;
    }
    return Py_BuildValue("(LLLL)", col_lo, row_lo, col_hi, row_hi);
}

/* Read item *i* of the fast sequence *seq* as a C long into *out*; raise
 * ValueError unless lo <= value < hi. */
static int
bounded_item(PyObject *seq, Py_ssize_t i, long lo, long hi, const char *name, long *out)
{
    long value = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (value < lo || value >= hi) {
        PyErr_Format(PyExc_ValueError, "%s %ld out of range [%ld, %ld)", name, value,
                     lo, hi);
        return -1;
    }
    *out = value;
    return 0;
}

/* stamp_pressure(pressure, nodes, colors, amount, num_cols, num_rows,
 * reaches): add amount to mask colors[i]'s pressure at every vertex of the
 * clipped (2k+1)^2 square around nodes[i] on its layer, k = reaches[layer]
 * (-1: the layer carries no pressure), column-major and
 * stamp by stamp -- RoutingGrid._stamp_pressure's interpreted loop in the
 * same order, so both tiers round alike.  Every node and colour is
 * checked before the first write: an out-of-range one raises ValueError
 * and leaves the buffer unchanged. */
static PyObject *
stamp_pressure(PyObject *self, PyObject *args)
{
    PyObject *pressure_obj, *nodes_obj, *colors_obj, *reaches_obj;
    PyObject *nodes = NULL, *colors = NULL, *reaches = NULL, *result = NULL;
    BufferSlot slot;
    void *ptr;
    double *pressure, amount;
    Py_ssize_t count, num_layers, i;
    long *stamp = NULL, layer_reach[64];
    long cols, rows, plane, num_vertices;

    slot.held = 0;
    if (!PyArg_ParseTuple(args, "OOOdllO", &pressure_obj, &nodes_obj, &colors_obj,
                          &amount, &cols, &rows, &reaches_obj)) {
        return NULL;
    }
    if (cols < 1 || rows < 1) {
        PyErr_SetString(PyExc_ValueError, "num_cols and num_rows must be positive");
        return NULL;
    }
    if ((nodes = PySequence_Fast(nodes_obj, "nodes must be a sequence")) == NULL ||
        (colors = PySequence_Fast(colors_obj, "colors must be a sequence")) == NULL ||
        (reaches = PySequence_Fast(reaches_obj, "reaches must be a sequence")) == NULL) {
        goto done;
    }
    count = PySequence_Fast_GET_SIZE(nodes);
    num_layers = PySequence_Fast_GET_SIZE(reaches);
    if (PySequence_Fast_GET_SIZE(colors) != count) {
        PyErr_SetString(PyExc_ValueError, "nodes and colors differ in length");
        goto done;
    }
    if (num_layers < 1 || num_layers > 64) {
        PyErr_SetString(PyExc_ValueError, "reaches must hold 1 to 64 layers");
        goto done;
    }
    for (i = 0; i < num_layers; i++) {
        if (bounded_item(reaches, i, -1, LONG_MAX, "reach", &layer_reach[i]) < 0) {
            goto done;
        }
        if (layer_reach[i] > cols + rows) {
            layer_reach[i] = cols + rows; /* covers the plane; no overflow below */
        }
    }
    plane = cols * rows;
    num_vertices = plane * (long)num_layers;
    if (acquire(pressure_obj, &slot, 1, &ptr) < 0 ||
        require_items(&slot, 3 * (Py_ssize_t)num_vertices, sizeof(double),
                      "pressure") < 0) {
        goto done;
    }
    pressure = (double *)ptr;
    stamp = (long *)PyMem_Malloc((size_t)(count > 0 ? count : 1) * 2 * sizeof(long));
    if (stamp == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < count; i++) {
        if (bounded_item(nodes, i, 0, num_vertices, "node", &stamp[2 * i]) < 0 ||
            bounded_item(colors, i, 0, 3, "color", &stamp[2 * i + 1]) < 0) {
            goto done;
        }
    }
    for (i = 0; i < count; i++) {
        long node = stamp[2 * i], layer = node / plane, rem = node % plane;
        long col = rem / rows, row = rem % rows, reach = layer_reach[layer];
        long col_lo, col_hi, row_lo, row_hi, c, r;
        double *column;
        if (reach < 0) {
            continue;
        }
        col_lo = col > reach ? col - reach : 0;
        col_hi = col + reach < cols - 1 ? col + reach : cols - 1;
        row_lo = row > reach ? row - reach : 0;
        row_hi = row + reach < rows - 1 ? row + reach : rows - 1;
        for (c = col_lo; c <= col_hi; c++) {
            column = pressure + 3 * ((layer * cols + c) * rows) + stamp[2 * i + 1];
            for (r = row_lo; r <= row_hi; r++) {
                column[3 * r] += amount;
            }
        }
    }
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_Free(stamp);
    if (slot.held) {
        PyBuffer_Release(&slot.view);
    }
    Py_XDECREF(nodes);
    Py_XDECREF(colors);
    Py_XDECREF(reaches);
    return result;
}

static PyMethodDef relaxation_methods[] = {
    {"run_search", run_search, METH_VARARGS,
     "Run one compiled multi-source Dijkstra/A* search over flat buffers."},
    {"labelled_box", labelled_box, METH_VARARGS,
     "Return the planar bounding box of the nodes stamped with an epoch."},
    {"stamp_pressure", stamp_pressure, METH_VARARGS,
     "Add colour-pressure stamps around coloured vertices, in order."},
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
        PyModule_AddStringConstant(module, "KERNEL_SOURCE_DIGEST",
                                   KERNEL_SOURCE_DIGEST) < 0 ||
        PyModule_AddIntConstant(module, "MODE_TRADITIONAL", MODE_TRADITIONAL) < 0 ||
        PyModule_AddIntConstant(module, "MODE_COLOR_STATE", MODE_COLOR_STATE) < 0 ||
        PyModule_AddIntConstant(module, "MODE_MASK_EXPANDED", MODE_MASK_EXPANDED) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
