"""Incremental counterpart of :class:`repro.dr.drc.DRCChecker`.

The full checker re-walks the entire solution on every call; this one
maintains running tallies (shorts, spacing violations, open nets, guide and
direction statistics) and, on :meth:`refresh`, re-validates only the nets
dirtied since the previous call.  Dirtiness comes from two sources:

* the :class:`~repro.check.dirty.DirtyRegionTracker` draining the grid's
  per-net occupancy/color delta hooks, and
* route-object replacement in the :class:`~repro.grid.RoutingSolution`
  (rip-up & reroute swaps ``NetRoute`` instances; snapshot restores swap
  them back), detected by the routes' monotone ``revision`` stamps
  (identity comparison is unsound: the allocator reuses addresses of
  collected routes).

Violations between two *clean* nets cannot change -- shorts and spacing
depend only on the two nets' geometry -- so invalidation is exact: every
cached violation involving a dirty net is dropped and the dirty net's new
metal is re-scanned against the maintained occupancy mirror inside its
spacing radius (the per-vertex interaction offsets are the dirty-region
expansion of :mod:`repro.check.dirty`, applied net by net).

The neighborhood scan itself runs on the tiered
:func:`repro.check.kernels.scan_hits` fast path (the native
``_checkwork`` kernel over the flat owner mirror) when :mod:`repro.accel`
has it open; the original pure dict/set loop is kept verbatim as the
fallback and behavioral reference.

The full :class:`DRCChecker` remains the frozen reference oracle;
``tests/test_incremental_check.py`` and ``tests/test_check_kernels.py``
differentially prove every tier reports the same violations after every
mutation.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.check.dirty import DirtyRegionTracker
from repro.check.kernels import scan_hits, zero_owner_mirror
from repro.design import Design
from repro.dr.drc import DRCChecker, Violation
from repro.geometry import GridPoint
from repro.gr.guide import GuideSet
from repro.grid import RoutingGrid, RoutingSolution

#: Canonical spacing-pair key: ``(net_a, net_b, index_a, index_b)``.
#: Net names ordered ascending with each flat index kept on its net's side;
#: flat index order equals GridPoint (layer, col, row) order, so the key
#: reproduces the full checker's ``_pair_key`` canonicalisation (two nets in
#: a spacing pair never share a name) without hashing GridPoints per probe.
PairKey = Tuple[str, str, int, int]


class IncrementalDRCChecker:
    """Incrementally maintained design-rule tallies over a routing solution."""

    def __init__(
        self,
        design: Design,
        grid: RoutingGrid,
        guides: Optional[GuideSet] = None,
        tracker: Optional[DirtyRegionTracker] = None,
    ) -> None:
        self.design = design
        self.grid = grid
        self.guides = guides
        self.rules = grid.rules
        self.oracle = DRCChecker(design, grid, guides)
        self.tracker = tracker if tracker is not None else DirtyRegionTracker(grid)
        # Canonical offset table shared through the grid cache; the center
        # offset is dropped because exact overlap is a short, not spacing.
        self._offset_arrays = grid.interaction_offset_arrays(
            self.rules.min_spacing, include_center=False
        )
        self._spacing_offsets = self._offset_arrays.offsets
        self._reset_state()

    def _reset_state(self) -> None:
        self._built = False
        self._route_revisions: Dict[str, int] = {}
        # Per-net caches (all routes, including failed ones, mirror
        # RoutingSolution.vertex_ownership()).
        self._net_indices: Dict[str, array] = {}
        self._net_routed: Dict[str, bool] = {}
        # Flat-index mirrors.
        self._vertex_nets: Dict[int, Set[str]] = {}
        self._spacing_occ: Dict[int, Set[str]] = {}
        # Flat owner mirror of _spacing_occ for the scan kernels: 0 = empty,
        # interned id = single occupant, -1 = multiple occupants.
        self._spacing_owner = zero_owner_mirror(self.grid.num_vertices)
        self._name_ids: Dict[str, int] = {}
        # Reverse interning table (_name_ids inverted, index = id) so the
        # hit loop resolves single-occupant cells without touching the
        # occupancy dict.
        self._id_names: List[str] = [""]
        # Running tallies.
        self._shorts: Dict[int, Violation] = {}
        self._spacing: Dict[PairKey, Violation] = {}
        self._spacing_by_net: Dict[str, Set[PairKey]] = {}
        self._opens: Dict[str, Violation] = {}
        self._out_of_guide: Dict[str, int] = {}
        self._wrong_way: Dict[str, int] = {}
        self._pin_groups: Dict[str, List[List[GridPoint]]] = {}
        self._routable: Dict[str, object] = {}

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self._name_ids) + 1
            self._name_ids[name] = ident
            self._id_names.append(name)
        return ident

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(self, solution: RoutingSolution) -> Set[str]:
        """Re-validate dirty nets against *solution*; return the dirty set."""
        tracked_nets, raw_indices, rebuild = self.tracker.consume()
        if rebuild or not self._built:
            self._reset_state()
            self._built = True
            self._routable = {net.name: net for net in self.design.routable_nets()}
            dirty = set(solution.routes) | set(self._routable)
            raw_indices = set()
        else:
            dirty = set(tracked_nets)
            for name, route in solution.routes.items():
                if self._route_revisions.get(name) != route.revision:
                    dirty.add(name)
            for name in self._route_revisions:
                if name not in solution.routes:
                    dirty.add(name)
        dirty.discard("")
        if not dirty:
            return dirty

        touched = set(raw_indices)
        for name in dirty:
            self._remove_net(name, touched)
        # Register all dirty nets' metal before pair scanning so dirty-dirty
        # spacing pairs are discovered from either side.
        present: List[str] = []
        for name in dirty:
            route = solution.routes.get(name)
            if route is None:
                self._route_revisions.pop(name, None)
            else:
                self._route_revisions[name] = route.revision
                self._add_net(name, route, touched)
                present.append(name)
        self._rescan_shorts(touched)
        for name in present:
            if self._net_routed.get(name):
                self._scan_spacing(name)
        for name in dirty:
            if name in self._routable:
                self._check_open(name, solution)
        return dirty

    # -- per-net removal / addition ----------------------------------------

    def _remove_net(self, name: str, touched: Set[int]) -> None:
        routed = self._net_routed.get(name)
        owner = self._spacing_owner
        for index in self._net_indices.pop(name, ()):
            touched.add(index)
            nets = self._vertex_nets.get(index)
            if nets is not None:
                nets.discard(name)
                if not nets:
                    del self._vertex_nets[index]
            if routed:
                occ = self._spacing_occ.get(index)
                if occ is not None:
                    occ.discard(name)
                    if not occ:
                        del self._spacing_occ[index]
                        owner[index] = 0
                    elif len(occ) == 1:
                        owner[index] = self._intern(next(iter(occ)))
        self._net_routed.pop(name, None)
        for key in self._spacing_by_net.pop(name, ()):
            self._spacing.pop(key, None)
            partner = key[1] if key[0] == name else key[0]
            partner_keys = self._spacing_by_net.get(partner)
            if partner_keys is not None:
                partner_keys.discard(key)
        self._opens.pop(name, None)
        self._out_of_guide.pop(name, None)
        self._wrong_way.pop(name, None)

    def _add_net(self, name: str, route, touched: Set[int]) -> None:
        index_of = self.grid.index_of
        indices = array("q", [index_of(vertex) for vertex in route.vertices])
        self._net_indices[name] = indices
        self._net_routed[name] = bool(route.routed)
        for index in indices:
            touched.add(index)
            self._vertex_nets.setdefault(index, set()).add(name)
        if route.routed:
            net_id = self._intern(name)
            owner = self._spacing_owner
            for index in indices:
                occ = self._spacing_occ.setdefault(index, set())
                occ.add(name)
                owner[index] = net_id if len(occ) == 1 else -1
            self._wrong_way[name] = self.oracle.route_wrong_way(route)
            if self.guides is not None:
                self._out_of_guide[name] = self.oracle.route_out_of_guide(route)

    # -- shorts -------------------------------------------------------------

    def _rescan_shorts(self, touched: Set[int]) -> None:
        vertex_of = self.grid.vertex_of
        for index in touched:
            owners = self._vertex_nets.get(index, ())
            if len(owners) > 1:
                self._shorts[index] = Violation(
                    kind="short",
                    nets=tuple(sorted(owners)),
                    location=vertex_of(index),
                    detail=f"{len(owners)} nets overlap",
                )
            else:
                self._shorts.pop(index, None)

    # -- spacing ------------------------------------------------------------

    def _scan_spacing(self, name: str) -> None:
        if not self._spacing_offsets:
            return
        indices = self._net_indices.get(name)
        if not indices:
            return
        hits = scan_hits(
            indices,
            self._offset_arrays,
            self._spacing_owner,
            self._name_ids.get(name, 0),
            self.grid.num_cols,
            self.grid.num_rows,
        )
        if hits is None:
            self._scan_spacing_pure(name)
            return
        vertex_table = self.grid.vertex_table()
        detail = f"below min spacing {self.rules.min_spacing}"
        occ_get = self._spacing_occ.get
        owner = self._spacing_owner
        id_names = self._id_names
        spacing = self._spacing
        for src, dst in hits:
            # The kernel only reports occupied non-self cells; a positive
            # owner id resolves the single occupant without touching the
            # occupancy dict (the common case -- shorts are rare).
            occupant = owner[dst]
            if occupant > 0:
                others: Tuple[str, ...] = (id_names[occupant],)
            else:
                found = occ_get(dst)
                if not found:
                    continue
                others = found
            for other in others:
                if other == name:
                    continue
                key = (
                    (name, other, src, dst)
                    if name < other
                    else (other, name, dst, src)
                )
                if key in spacing:
                    continue
                spacing[key] = Violation(
                    kind="spacing",
                    nets=(key[0], key[1]),
                    location=vertex_table[key[2]],
                    detail=detail,
                )
                self._spacing_by_net.setdefault(name, set()).add(key)
                self._spacing_by_net.setdefault(other, set()).add(key)

    def _scan_spacing_pure(self, name: str) -> None:
        """The original dict/set scan: fallback tier and behavioral reference."""
        grid = self.grid
        rows, cols, plane = grid.num_rows, grid.num_cols, grid.plane_size
        vertex_table = grid.vertex_table()
        detail = f"below min spacing {self.rules.min_spacing}"
        occ_get = self._spacing_occ.get
        spacing = self._spacing
        for index in self._net_indices.get(name, ()):
            col, row = divmod(index % plane, rows)
            for dcol, drow, delta in self._spacing_offsets:
                if not (0 <= col + dcol < cols and 0 <= row + drow < rows):
                    continue
                neighbor = index + delta
                others = occ_get(neighbor)
                if not others:
                    continue
                for other in others:
                    if other == name:
                        continue
                    key = (
                        (name, other, index, neighbor)
                        if name < other
                        else (other, name, neighbor, index)
                    )
                    if key in spacing:
                        continue
                    spacing[key] = Violation(
                        kind="spacing",
                        nets=(key[0], key[1]),
                        location=vertex_table[key[2]],
                        detail=detail,
                    )
                    self._spacing_by_net.setdefault(name, set()).add(key)
                    self._spacing_by_net.setdefault(other, set()).add(key)

    # -- opens / statistics -------------------------------------------------

    def _check_open(self, name: str, solution: RoutingSolution) -> None:
        route = solution.routes.get(name)
        if route is None or not route.routed:
            self._opens[name] = Violation(
                kind="open", nets=(name,), location=GridPoint(0, 0, 0), detail="unrouted"
            )
            return
        groups = self._pin_groups.get(name)
        if groups is None:
            net = self._routable[name]
            groups = [self.grid.pin_access_vertices(pin) for pin in net.pins]
            self._pin_groups[name] = groups
        if self._route_connects_all(route, groups):
            self._opens.pop(name, None)
        else:
            anchor = next(iter(route.vertices), GridPoint(0, 0, 0))
            self._opens[name] = Violation(
                kind="open",
                nets=(name,),
                location=anchor,
                detail="routed metal does not connect every pin",
            )

    def _route_connects_all(self, route, groups: List[List[GridPoint]]) -> bool:
        """Int-keyed twin of :meth:`NetRoute.connects_all`.

        Same union structure over the same members (union-find partitions do
        not depend on root choice), keyed by flat index so the per-refresh
        open re-check skips GridPoint hashing on every union/find.
        """
        if not groups:
            return True
        index_of = self.grid.index_of
        vertices = route.vertices
        parent: Dict[int, int] = {}
        for vertex in vertices:
            index = index_of(vertex)
            parent[index] = index

        def find(index: int) -> int:
            root = parent.setdefault(index, index)
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            return root

        for a, b in route.edges:
            root_a = find(index_of(a))
            root_b = find(index_of(b))
            if root_a != root_b:
                parent[root_b] = root_a
        anchors: List[int] = []
        for group in groups:
            touched = [v for v in group if v in vertices]
            if not touched:
                return False
            first = index_of(touched[0])
            anchors.append(first)
            for vertex in touched[1:]:
                root_a = find(first)
                root_b = find(index_of(vertex))
                if root_a != root_b:
                    parent[root_b] = root_a
        root = find(anchors[0])
        return all(find(anchor) == root for anchor in anchors[1:])

    # ------------------------------------------------------------------
    # Reports (same shapes as the full checker)
    # ------------------------------------------------------------------

    def check(self, solution: RoutingSolution) -> Dict[str, List[Violation]]:
        """Refresh against *solution* and return violations grouped by kind."""
        self.refresh(solution)
        return {
            "short": sorted(self._shorts.values(), key=_violation_order),
            "spacing": sorted(self._spacing.values(), key=_violation_order),
            "open": sorted(self._opens.values(), key=_violation_order),
        }

    def summary(self, solution: RoutingSolution) -> Dict[str, int]:
        """Refresh against *solution* and return the running tallies."""
        self.refresh(solution)
        return {
            "shorts": len(self._shorts),
            "spacing": len(self._spacing),
            "opens": len(self._opens),
            "out_of_guide": sum(self._out_of_guide.values()),
            "wrong_way": sum(self._wrong_way.values()),
        }

    def shorted_nets(self) -> Set[str]:
        """Return every net currently involved in a short (after a refresh)."""
        offenders: Set[str] = set()
        for violation in self._shorts.values():
            offenders.update(violation.nets)
        return offenders

    def detach(self) -> None:
        """Stop listening to grid deltas (the tallies freeze)."""
        self.tracker.detach()


def _violation_order(violation: Violation) -> Tuple:
    return (violation.nets, violation.location, violation.detail)
