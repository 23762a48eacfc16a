"""The shared best-first search engine over flat vertex indices.

All three routers in this repository run the same algorithm -- multi-source
Dijkstra/A* over the routing grid -- and differ only in their *label*:

* the plain maze router labels a vertex with a cost,
* color-state searching (paper Alg. 2) adds a 3-bit
  :class:`~repro.tpl.color_state.ColorState` merged on equal-cost revisits,
* the DAC-2012 baseline searches the mask-expanded graph, i.e. its node
  space is ``vertex_index * 3 + mask`` with extra in-place mask-switch
  edges.

:class:`SearchCore` owns the one queue/relaxation loop all of them share.
Nodes are plain ints (flat grid indices, optionally mask-expanded with a
*stride*), labels are ``(cost, aux)`` where ``aux`` is an engine-specific
small int (a color-state bitmask, or 0 when unused).

Label storage (zero-allocation hot path)
----------------------------------------

Labels live in preallocated flat buffers owned by the core -- ``array('d')``
cost, ``array('i')`` aux/parent -- validated by an ``array('q')`` epoch
stamp: a label is live only while its stamp equals the current run's epoch,
so the buffers are reused across runs without clearing.  Per relaxation the
loop performs array reads/writes only; no dict hashing, no per-run maps.
The returned :class:`CoreResult` views the live buffers; starting the next
run on the same core snapshots (C-level ``array`` slice copies) any previous
result still referenced, so late inspection (tests, debugging) stays
correct while the common drop-after-backtrace pattern costs nothing.

Expand protocol
---------------

Engines supply an expansion callback that writes successors into
preallocated output buffers and returns a count::

    count = expand(node, cost, aux, succ_node, succ_cost, succ_aux)

The loop uses :mod:`heapq` with lazy deletion and a monotone push counter,
so entries pop in ``(f, counter)`` order: a node re-pushed on a strict
improvement sorts by its new, larger counter, and ties between distinct
nodes resolve by push order.  The compiled kernel reproduces the same
order, so both tiers produce bit-identical labels.

Search window
-------------

A run may be confined to an inclusive planar :data:`CellWindow`: a
successor whose vertex lies outside it is never generated.  A windowed run
that ends without an accepted target is re-run once over the whole grid
(see :meth:`SearchCore.run`), so a window only ever saves work; the
routers pass the net's guide box grown by two gcells
(:meth:`repro.gr.guide.GuideTables.search_window`).

Target floor
------------

Every target the routers search for carries history, foreign occupancy or
colour pressure, so exact A* would label everything cheaper than that
entry cost before it pops a target.  Each adapter therefore passes
``target_floor``: the least entry cost beyond the base step of any
acceptable target (:meth:`repro.dr.cost.CostModel.target_floor`).  The
loop keeps the lowest ``(f, counter)`` entry pushed onto a target and ends
the search on it, stamped as expanded, as soon as ``best_f +``
:data:`FLOOR_SLACK` ``< f(heap top) + target_floor``.  The heuristic is
consistent and zero on the targets, so any later target entry has
``f >= f(top) + target_floor``: the search returns the target, cost, aux
and parent chain it would pop without the rule, and only the work after
the answer is fixed is skipped (so a search that used to exceed
``max_expansions`` may now finish).  A floor of 0 never fires.
"""

from __future__ import annotations

import weakref
from array import array
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accel import get_native_kernel

if TYPE_CHECKING:  # imported lazily to keep this module dependency-free
    from repro.dr.cost import CostModel, TargetBounds
    from repro.grid import CellWindow, RoutingGrid

#: Default strict-improvement epsilon (matches the seed maze router).
IMPROVE_EPS = 1e-12

#: Default equal-cost tolerance for aux (color-state) merging; matches the
#: seed color-state search's ``_COST_TOLERANCE``.
TIE_EPS = 1e-9

#: Margin of the target-floor stop rule (``best_f + FLOOR_SLACK < f(top) +
#: floor``).  Above :data:`TIE_EPS`, so no aux merge can reach a chain the
#: rule has fixed, and far above the rounding of the separately summed
#: floor.
FLOOR_SLACK = 1e-6

#: Capacity of the preallocated successor buffers handed to buffered expand
#: callbacks.  The densest expansion is the DAC-2012 mask-expanded graph
#: (2 mask switches + 6 moves = 8 successors); 32 leaves generous headroom.
SUCC_CAPACITY = 32


class CoreResult:
    """Raw outcome of one :meth:`SearchCore.run` call (int-node space).

    Views the core's live label buffers; the owning core snapshots the
    buffers into this result (cheap ``array`` slice copies) before reusing
    them for a subsequent run, so the result stays valid indefinitely.  The
    dict views (:attr:`cost` / :attr:`aux` / :attr:`parent`), used by the
    label-level parity tests, are materialised on first access by scanning
    the epoch stamps.
    """

    __slots__ = (
        "reached",
        "expansions",
        "_cost_buf",
        "_aux_buf",
        "_parent_buf",
        "_stamp_buf",
        "_epoch",
        "_cost_map",
        "_aux_map",
        "_parent_map",
        "_detached",
        "_window",
        "_seed_nodes",
        "_target_nodes",
        "__weakref__",
    )

    def __init__(
        self,
        reached: int,
        expansions: int,
        cost_buf: array,
        aux_buf: array,
        parent_buf: array,
        stamp_buf: array,
        epoch: int,
        window: Optional[CellWindow] = None,
        seed_nodes: Sequence[int] = (),
        target_nodes: Iterable[int] = (),
    ) -> None:
        self.reached = reached  #: reached node, or -1 when the search failed
        self.expansions = expansions
        self._cost_buf = cost_buf
        self._aux_buf = aux_buf
        self._parent_buf = parent_buf
        self._stamp_buf = stamp_buf
        self._epoch = epoch
        self._cost_map: Optional[Dict[int, float]] = None
        self._aux_map: Optional[Dict[int, int]] = None
        self._parent_map: Optional[Dict[int, int]] = None
        self._detached = False
        # The window the labels were computed in (None: the whole grid) and
        # the seed nodes, labelled even where they lie outside it; the
        # targets whose entry costs fed a positive target floor, labelled
        # or not.
        self._window = window
        self._seed_nodes = seed_nodes
        self._target_nodes = target_nodes

    @classmethod
    def empty(cls) -> "CoreResult":
        """Return a failed result with no labels (a search given no targets)."""
        return cls(-1, 0, array("d"), array("i"), array("i"), array("q"), 1)

    @property
    def found(self) -> bool:
        """Return ``True`` when a target node was reached."""
        return self.reached >= 0

    def _detach(self) -> None:
        """Snapshot the shared buffers before the owning core reuses them."""
        if self._detached:
            return
        self._cost_buf = self._cost_buf[:]
        self._aux_buf = self._aux_buf[:]
        self._parent_buf = self._parent_buf[:]
        self._stamp_buf = self._stamp_buf[:]
        self._detached = True

    # -- per-node accessors (hot consumers: backtrace, color_state_of) ----

    def aux_at(self, node: int) -> int:
        """Return the aux bits labelled at *node* (must be labelled)."""
        return self._aux_buf[node]

    def aux_of(self, nodes: Iterable[int]) -> List[int]:
        """Return the aux bits labelled at each of *nodes* (all labelled), in order."""
        aux = self._aux_buf
        return [aux[node] for node in nodes]

    def is_labelled(self, node: int) -> bool:
        """Return ``True`` when *node* received a label during the run."""
        return self._stamp_buf[node] == self._epoch

    def node_path(self, node: Optional[int] = None) -> List[int]:
        """Return the node path from *node* (default: reached) back to a seed.

        Ordered destination-first, the order Algorithm 3's backtrace walks.
        Raises :class:`ValueError` on a failed search.
        """
        if node is None:
            node = self.reached
        if node < 0:
            raise ValueError("cannot backtrace a failed search")
        parent = self._parent_buf
        path: List[int] = []
        cursor = node
        while cursor >= 0:
            path.append(cursor)
            cursor = parent[cursor]
        return path

    # -- dict views (built on demand) --------------------------------------

    def _labelled_nodes(self) -> List[int]:
        stamp, epoch = self._stamp_buf, self._epoch
        return [node for node, mark in enumerate(stamp) if mark == epoch]

    def labelled_planar_box(
        self, plane_size: int, num_rows: int, node_stride: int = 1
    ) -> Optional[CellWindow]:
        """Return the planar ``(col_lo, row_lo, col_hi, row_hi)`` bounding box
        of every vertex labelled during the run, or ``None`` when no node was
        labelled.

        Every vertex whose mutable grid state the result depends on
        (successor costs, target acceptance, backtrace cost queries) is
        labelled -- a successor dropped for lying outside the window
        leaves no trace -- so this box bounds that state: the
        speculative batch executor compares it against committed batch-mate
        deltas to decide whether a snapshot-computed route is still exact.
        A windowed run labels only its window's cells and its seeds, so
        only the window's share of the stamp buffer is scanned and the
        seeds are added to the box.  A run with a positive target floor
        also read the grid state of targets it may never have labelled
        (their entry costs set the floor, which decides where the run
        stops), so its targets are added too.  The scan runs in the
        native kernel when it is active.
        """
        stamp, epoch = self._stamp_buf, self._epoch
        num_cols = plane_size // num_rows
        window = self._window
        if window is None:
            col_lo, row_lo, col_hi, row_hi = 0, 0, num_cols - 1, num_rows - 1
        else:
            col_lo, row_lo, col_hi, row_hi = window
        cells: List[Tuple[int, int]] = []
        kernel = get_native_kernel()
        if kernel is not None:
            box = kernel.labelled_box(
                stamp, epoch, node_stride, plane_size, num_rows, col_lo, row_lo, col_hi, row_hi
            )
            if box is not None:
                cells += [box[:2], box[2:]]
        else:
            # Each (layer, column) of the window is one run of nodes.
            row_lo, row_hi = max(row_lo, 0), min(row_hi, num_rows - 1)
            for layer_base in range(0, -(-len(stamp) // node_stride), plane_size):
                for col in range(max(col_lo, 0), min(col_hi, num_cols - 1) + 1):
                    first = (layer_base + col * num_rows + row_lo) * node_stride
                    run = stamp[first : (layer_base + col * num_rows + row_hi + 1) * node_stride]
                    cells += [
                        (col, row_lo + offset // node_stride)
                        for offset, mark in enumerate(run)
                        if mark == epoch
                    ]
        extra = list(self._target_nodes)
        if window is not None:
            extra += self._seed_nodes
        for node in extra:
            vertex = node // node_stride if node_stride != 1 else node
            cells.append(divmod(vertex % plane_size, num_rows))
        if not cells:
            return None
        return (
            min(col for col, _ in cells),
            min(row for _, row in cells),
            max(col for col, _ in cells),
            max(row for _, row in cells),
        )

    @property
    def cost(self) -> Dict[int, float]:
        """Return the ``node -> best cost`` map (materialised on demand)."""
        if self._cost_map is None:
            buf = self._cost_buf
            self._cost_map = {node: buf[node] for node in self._labelled_nodes()}
        return self._cost_map

    @property
    def aux(self) -> Dict[int, int]:
        """Return the ``node -> aux bits`` map (materialised on demand)."""
        if self._aux_map is None:
            buf = self._aux_buf
            self._aux_map = {node: buf[node] for node in self._labelled_nodes()}
        return self._aux_map

    @property
    def parent(self) -> Dict[int, int]:
        """Return the ``node -> predecessor`` map (``-1`` for seeds)."""
        if self._parent_map is None:
            buf = self._parent_buf
            self._parent_map = {node: buf[node] for node in self._labelled_nodes()}
        return self._parent_map


class SearchCore:
    """Shared Dijkstra/A* engine over int nodes with pluggable relaxation.

    Parameters
    ----------
    grid:
        The routing grid; supplies dimensions for the inline heuristic.
    cost_model:
        Used only for the rules (alpha / via cost) of the A* lower bound;
        edge costs are entirely the ``expand`` callback's business.
    max_expansions:
        Expansion budget per :meth:`run` call.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        cost_model: CostModel,
        max_expansions: int = 2_000_000,
    ) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.max_expansions = max_expansions
        # Flat label buffers, allocated on first run and reused (epoch-
        # validated) ever after; capacity grows with the node stride.
        self._capacity = 0
        self._cost_buf: Optional[array] = None
        self._aux_buf: Optional[array] = None
        self._parent_buf: Optional[array] = None
        self._stamp_buf: Optional[array] = None
        # "Expanded with label" tracking, epoch-stamped like the labels.
        self._exp_cost_buf: Optional[array] = None
        self._exp_aux_buf: Optional[array] = None
        self._exp_stamp_buf: Optional[array] = None
        self._epoch = 0
        # Successor output buffers shared with buffered expand callbacks.
        self._succ_node: List[int] = [0] * SUCC_CAPACITY
        self._succ_cost: List[float] = [0.0] * SUCC_CAPACITY
        self._succ_aux: List[int] = [0] * SUCC_CAPACITY
        # The previous run's (possibly still referenced) result: snapshot it
        # before its buffers are overwritten.
        self._last_result: Optional[weakref.ref] = None
        # Per-node target flags for the native kernel (set before a kernel
        # call, cleared right after; allocated lazily with the labels).
        self._target_flags: Optional[bytearray] = None
        # Optional observer called with every finished CoreResult while its
        # label buffers are guaranteed live (the batch executor's explored-
        # region tracker hooks in here without forcing buffer snapshots).
        self.on_result: Optional[Callable[[CoreResult], None]] = None
        #: Windowed runs that ended without a target and were re-run over
        #: the whole grid.
        self.window_retries = 0
        #: Runs the target floor ended before their best target popped.
        self.floor_stops = 0

    # ------------------------------------------------------------------

    def _ensure_buffers(self, num_nodes: int) -> None:
        if num_nodes <= self._capacity:
            return
        self._capacity = num_nodes
        self._cost_buf = array("d", [0.0]) * num_nodes
        self._aux_buf = array("i", [0]) * num_nodes
        self._parent_buf = array("i", [-1]) * num_nodes
        self._stamp_buf = array("q", [0]) * num_nodes
        self._exp_cost_buf = array("d", [0.0]) * num_nodes
        self._exp_aux_buf = array("i", [0]) * num_nodes
        self._exp_stamp_buf = array("q", [0]) * num_nodes

    def _try_run_native(
        self,
        seeds: List[Tuple[int, int]],
        targets: "set[int]",
        expand: Callable[..., object],
        bounds: Optional[TargetBounds],
        node_stride: int,
        merge_aux: bool,
        improve_eps: float,
        tie_eps: float,
        target_floor: float,
        window: Optional[CellWindow],
        epoch: int,
    ) -> Optional[Tuple[int, int, bool]]:
        """Run the search on the compiled kernel, or ``None`` to fall back.

        Dispatches only when the kernel is loaded and the expand closure
        carries a :class:`repro.native.spec.NativeExpandSpec` whose stride
        matches the call.  The kernel mutates the exact label buffers the
        Python loop would and returns ``(reached, expansions, stopped)``,
        so the run is indistinguishable from an interpreted one.
        """
        spec = getattr(expand, "native_spec", None)
        if spec is None or spec.node_stride != node_stride:
            return None
        kernel = get_native_kernel()
        if kernel is None:
            return None

        seed_node = array("i", [node for node, _ in seeds])
        seed_aux = array("i", [node_aux for _, node_aux in seeds])

        flags = self._target_flags
        if flags is None or len(flags) < self._capacity:
            flags = self._target_flags = bytearray(self._capacity)
        for node in targets:
            flags[node] = 1
        try:
            grid = self.grid
            rules = grid.rules
            if bounds is not None:
                use_bounds = 1
                min_layer, max_layer = bounds.min_layer, bounds.max_layer
                min_col, max_col = bounds.min_col, bounds.max_col
                min_row, max_row = bounds.min_row, bounds.max_row
            else:
                use_bounds = 0
                min_layer = max_layer = min_col = max_col = min_row = max_row = 0
            if window is None:
                window_ints = (0, 0, grid.num_cols - 1, grid.num_rows - 1)
            else:
                window_ints = window
            outcome = kernel.run_search(
                spec.mode,
                grid.num_vertices * node_stride,
                node_stride,
                self._cost_buf,
                self._aux_buf,
                self._parent_buf,
                self._stamp_buf,
                self._exp_cost_buf,
                self._exp_aux_buf,
                self._exp_stamp_buf,
                epoch,
                seed_node,
                seed_aux,
                len(seed_node),
                flags,
                use_bounds,
                min_layer,
                max_layer,
                min_col,
                max_col,
                min_row,
                max_row,
                *window_ints,
                rules.alpha,
                rules.via_cost,
                grid.plane_size,
                grid.num_rows,
                improve_eps,
                tie_eps,
                1 if merge_aux else 0,
                self.max_expansions,
                target_floor,
                FLOOR_SLACK,
                spec.net_id,
                spec.neighbor,
                spec.blocked,
                spec.base_costs,
                spec.guide_mask,
                spec.guide_slots,
                spec.history,
                spec.owner,
                spec.pressure,
                spec.history_weight,
                spec.occupancy_penalty,
                spec.out_of_guide_penalty,
                spec.gamma,
                spec.stitch,
                spec.tolerance,
            )
        finally:
            for node in targets:
                flags[node] = 0
        reached, expansions, stopped = outcome
        return reached, expansions, bool(stopped)

    def run(
        self,
        seeds: Iterable[Tuple[int, int]],
        targets: "set[int]",
        expand: Callable[..., object],
        bounds: Optional[TargetBounds] = None,
        node_stride: int = 1,
        merge_aux: bool = False,
        improve_eps: float = IMPROVE_EPS,
        tie_eps: float = TIE_EPS,
        accept: Optional[Callable[[int], bool]] = None,
        window: Optional[CellWindow] = None,
        target_floor: float = 0.0,
    ) -> CoreResult:
        """Run one multi-source search.

        Parameters
        ----------
        seeds:
            ``(node, aux)`` pairs, each starting at cost 0, in deterministic
            order (the order fixes tie-breaking).
        targets:
            Node set whose first accepted pop ends the search.
        expand:
            The expansion callback: ``expand(node, cost, aux, succ_node,
            succ_cost, succ_aux) -> count`` filling the three preallocated
            output buffers (capacity :data:`SUCC_CAPACITY`).  Successors
            must be valid (in-bounds, unblocked) nodes.
        bounds:
            Target bounding box for the admissible A* lower bound (grid
            coordinates); ``None`` disables the heuristic.  It must hold
            every target, so the bound is zero on them.
        node_stride:
            Nodes per grid vertex (1, or 3 on the mask-expanded graph);
            ``node // node_stride`` must be the flat vertex index.
        merge_aux:
            When ``True``, a revisit within *tie_eps* of the stored cost
            OR-merges the aux bits instead of being discarded, and the node
            is re-expanded if the merge widened its bits after it had
            already been expanded (Alg. 2's color-state union).
        improve_eps:
            A revisit must undercut the stored cost by more than this to
            replace the label.
        accept:
            Optional extra predicate a target must satisfy (e.g. the maze
            router's occupied-target rule).  Grid state does not change
            during a run, so it is evaluated once per target before the
            search; a rejected target is searched through like any node.
        window:
            Optional inclusive planar ``(col_lo, row_lo, col_hi, row_hi)``
            window.  A successor whose vertex lies outside it is never
            generated (seeds are labelled wherever they lie).  When the
            windowed run ends without an accepted target -- exhausted or
            over budget -- the search runs again with no window under a
            fresh epoch, and that second result is returned: its
            ``expansions`` is the sum of both runs, :attr:`on_result` sees
            both results, and :attr:`window_retries` counts the re-run.
        target_floor:
            A lower bound on every edge cost into an accepted target beyond
            the A* bound of the edge's tail: ``cost(u, t) >= h(u) +
            target_floor``.  The run tracks the lowest ``(f, counter)``
            entry pushed onto an accepted target and returns it, stamped as
            expanded, once ``best_f + FLOOR_SLACK < f(heap top) +
            target_floor``; :attr:`floor_stops` counts those runs.  The
            result (reached node, its cost, aux and parent chain) is the one
            the run would pop without the rule, only sooner, so a run that
            used to exceed ``max_expansions`` may now finish.  0 (the
            default) never stops a run early.
        """
        seeds = list(seeds)
        if accept is not None:
            accepted = {node for node in targets if accept(node)}
        else:
            accepted = targets
        # A positive floor read every target's grid state, labelled or not.
        read_targets = targets if target_floor > 0.0 else ()
        args = (
            seeds, accepted, expand, bounds, node_stride, merge_aux, improve_eps, tie_eps,
            target_floor, read_targets,
        )
        result = self._run_once(*args, window)
        if window is not None and not result.found:
            self.window_retries += 1
            if self.on_result is not None:
                self.on_result(result)
            spent = result.expansions
            # Drop the windowed result first: a result nothing else holds
            # needs no snapshot before its buffers are reused.
            del result
            result = self._run_once(*args, None)
            result.expansions += spent
        if self.on_result is not None:
            self.on_result(result)
        return result

    def _run_once(
        self,
        seeds: List[Tuple[int, int]],
        targets: "set[int]",
        expand: Callable[..., object],
        bounds: Optional[TargetBounds],
        node_stride: int,
        merge_aux: bool,
        improve_eps: float,
        tie_eps: float,
        target_floor: float,
        read_targets: Iterable[int],
        window: Optional[CellWindow],
    ) -> CoreResult:
        """One search under a fresh epoch, on the native tier when it can.

        *targets* holds the accepted targets only.
        """
        previous = self._last_result() if self._last_result is not None else None
        if previous is not None:
            previous._detach()

        grid = self.grid
        self._ensure_buffers(grid.num_vertices * node_stride)
        self._epoch += 1
        epoch = self._epoch

        # Native tier: when the adapter attached a kernel descriptor to
        # its expand closure, the whole relaxation loop runs compiled over
        # the same buffers -- bit-identical by the kernel's contract,
        # proven by tests/test_native_kernel.py.  Otherwise the
        # interpreted loop below runs.
        outcome = self._try_run_native(
            seeds,
            targets,
            expand,
            bounds,
            node_stride,
            merge_aux,
            improve_eps,
            tie_eps,
            target_floor,
            window,
            epoch,
        )
        if outcome is None:
            outcome = self._run_python(
                seeds, targets, expand, bounds, node_stride, merge_aux, improve_eps, tie_eps,
                target_floor, window, epoch,
            )
        reached, expansions, stopped = outcome
        self.floor_stops += stopped
        result = CoreResult(
            reached,
            expansions,
            self._cost_buf,
            self._aux_buf,
            self._parent_buf,
            self._stamp_buf,
            epoch,
            window,
            [node for node, _ in seeds],
            read_targets,
        )
        self._last_result = weakref.ref(result)
        return result

    def _run_python(
        self,
        seeds: List[Tuple[int, int]],
        targets: "set[int]",
        expand: Callable[..., object],
        bounds: Optional[TargetBounds],
        node_stride: int,
        merge_aux: bool,
        improve_eps: float,
        tie_eps: float,
        target_floor: float,
        window: Optional[CellWindow],
        epoch: int,
    ) -> Tuple[int, int, bool]:
        """The interpreted loop; returns ``(reached, expansions, stopped)``."""
        grid = self.grid
        cost = self._cost_buf
        aux = self._aux_buf
        parent = self._parent_buf
        stamp = self._stamp_buf
        exp_cost = self._exp_cost_buf
        exp_aux = self._exp_aux_buf
        exp_stamp = self._exp_stamp_buf
        succ_node = self._succ_node
        succ_cost = self._succ_cost
        succ_aux = self._succ_aux

        rows = grid.num_rows
        plane = grid.plane_size
        windowed = window is not None
        if windowed:
            col_lo, row_lo, col_hi, row_hi = window
        if bounds is not None:
            rules = grid.rules
            alpha = rules.alpha
            via_cost = rules.via_cost
            min_layer, max_layer = bounds.min_layer, bounds.max_layer
            min_col, max_col = bounds.min_col, bounds.max_col
            min_row, max_row = bounds.min_row, bounds.max_row

            def heur(node: int) -> float:
                vertex = node // node_stride if node_stride != 1 else node
                layer, rem = divmod(vertex, plane)
                col, row = divmod(rem, rows)
                dcol = max(min_col - col, 0, col - max_col)
                drow = max(min_row - row, 0, row - max_row)
                dlayer = max(min_layer - layer, 0, layer - max_layer)
                return alpha * (float(dcol + drow) + float(dlayer) * via_cost)
        else:
            def heur(_node: int) -> float:
                return 0.0

        heap: List[Tuple[float, int, int, float]] = []  # (f, counter, node, g)
        counter = 0
        # The lowest (f, counter) entry pushed onto a target: counters
        # grow, so only a strictly lower f replaces it.
        best_node = -1
        best_f = float("inf")
        for node, node_aux in seeds:
            cost[node] = 0.0
            aux[node] = node_aux
            parent[node] = -1
            stamp[node] = epoch
            f = heur(node)
            if f < best_f and node in targets:
                best_f, best_node = f, node
            heappush(heap, (f, counter, node, 0.0))
            counter += 1

        expansions = 0
        max_expansions = self.max_expansions
        while heap:
            if best_node >= 0 and best_f + FLOOR_SLACK < heap[0][0] + target_floor:
                # The best target entry provably pops before any other
                # target entry, with this label: end the search on it.
                exp_stamp[best_node] = epoch
                exp_cost[best_node] = cost[best_node]
                exp_aux[best_node] = aux[best_node]
                return best_node, expansions + 1, True
            _f, _cnt, node, g_pushed = heappop(heap)
            g_cur = cost[node]
            if g_pushed - g_cur > improve_eps:
                continue  # stale entry superseded by a strict improvement
            a_cur = aux[node]
            if (
                exp_stamp[node] == epoch
                and exp_cost[node] == g_cur
                and exp_aux[node] == a_cur
            ):
                continue  # already expanded with this exact label
            exp_stamp[node] = epoch
            exp_cost[node] = g_cur
            exp_aux[node] = a_cur
            expansions += 1
            if node in targets:
                return node, expansions, False
            if expansions > max_expansions:
                break
            count = expand(node, g_cur, a_cur, succ_node, succ_cost, succ_aux)
            for slot in range(count):
                succ = succ_node[slot]
                if windowed:
                    vertex = succ // node_stride if node_stride != 1 else succ
                    col, row = divmod(vertex % plane, rows)
                    if col < col_lo or col > col_hi or row < row_lo or row > row_hi:
                        continue  # outside the window: never generated
                g_new = succ_cost[slot]
                if stamp[succ] != epoch:
                    stamp[succ] = epoch
                    cost[succ] = g_new
                    aux[succ] = succ_aux[slot]
                    parent[succ] = node
                    f = g_new + heur(succ)
                    if f < best_f and succ in targets:
                        best_f, best_node = f, succ
                    heappush(heap, (f, counter, succ, g_new))
                    counter += 1
                    continue
                g_old = cost[succ]
                if g_new < g_old - improve_eps:
                    cost[succ] = g_new
                    aux[succ] = succ_aux[slot]
                    parent[succ] = node
                    f = g_new + heur(succ)
                    if f < best_f and succ in targets:
                        best_f, best_node = f, succ
                    heappush(heap, (f, counter, succ, g_new))
                    counter += 1
                elif (
                    merge_aux
                    and g_new <= g_old + tie_eps
                    and (succ_aux[slot] | aux[succ]) != aux[succ]
                ):
                    # Equal-cost revisit with extra mask freedom: widen
                    # the stored color state (paper Alg. 2 merge) keeping
                    # the established cost and parent.  If the successor
                    # was already expanded with the narrower state, queue
                    # it again so the widening propagates downstream; a
                    # pending queue entry will pick the merged state up
                    # at pop time.  (An expanded target has ended the
                    # run, so this re-push is never a target's.)
                    aux[succ] |= succ_aux[slot]
                    if exp_stamp[succ] == epoch:
                        heappush(heap, (g_old + heur(succ), counter, succ, g_old))
                        counter += 1
        return -1, expansions, False
