"""Incremental counterpart of :class:`repro.tpl.conflict.ConflictChecker`.

Conflicts are counted between features (maximal same-net, same-layer,
same-mask connected runs).  A conflict between features of nets *A* and *B*
depends only on the two nets' geometry and masks, so the cached per-pair
conflict lists stay valid until one of the nets changes:

* on :meth:`refresh`, nets dirtied by grid deltas (via the
  :class:`~repro.check.dirty.DirtyRegionTracker`) or by route-object
  replacement (detected through the routes' monotone ``revision`` stamps)
  get their features re-extracted with the *same* ``_net_features``
  routine the full checker uses,
* every cached pair involving a dirty net is dropped, and partners within
  the interaction radius (``max(Dcolor, min_spacing)``, the dirty-region
  expansion applied to the net's feature vertices) are re-classified with
  the full checker's own ``_classify_pair`` / ``_obstacle_conflicts``
  helpers, so kinds and thresholds cannot drift apart,
* per-net obstacle-conflict and uncolored-vertex tallies are recomputed for
  dirty nets only.

The candidate-partner neighborhood scan runs on the tiered
:func:`repro.check.kernels.scan_hits` fast path (the native
``_checkwork`` kernel over the flat feature-owner mirror) when :mod:`repro.accel`
has it open; the original pure dict/set loop is kept verbatim as the
fallback and behavioral reference.

The running tallies therefore match a fresh full scan on counts, kinds and
net pairs (locations are anchored at the feature vertex nearest the
partner), which ``tests/test_incremental_check.py`` and
``tests/test_check_kernels.py`` assert after every mutation.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.check.dirty import DirtyRegionTracker
from repro.check.kernels import scan_hits, zero_owner_mirror
from repro.design import Design
from repro.geometry import GridPoint, Rect
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tpl.conflict import ColorConflict, ConflictChecker, ConflictReport, Feature

#: Canonical unordered net-pair key.
NetPair = Tuple[str, str]


class _FeatureEntry(NamedTuple):
    """One cached feature with everything the scan/classify paths need.

    ``ordered`` / ``coords`` hold the feature's vertices in sorted order
    with their vertex-rect corner coordinates, so the conflict-anchor
    search runs over plain ints instead of rebuilding ``Rect`` objects on
    every candidate pair (the sorted order reproduces the reference
    ``min``'s smallest-vertex tie-breaking exactly).
    """

    feature: Feature
    bbox: Rect
    indices: array
    ordered: Tuple[GridPoint, ...]
    coords: Tuple[Tuple[int, int, int, int], ...]


class IncrementalConflictChecker:
    """Incrementally maintained color-conflict tallies over a solution."""

    def __init__(
        self,
        design: Design,
        grid: RoutingGrid,
        tracker: Optional[DirtyRegionTracker] = None,
    ) -> None:
        self.design = design
        self.grid = grid
        self.rules = grid.rules
        self.oracle = ConflictChecker(design, grid)
        self.tracker = tracker if tracker is not None else DirtyRegionTracker(grid)
        self._reset_state()

    def _reset_state(self) -> None:
        self._built = False
        self._route_revisions: Dict[str, int] = {}
        # Per net: features plus their bounding boxes (pair prefilter),
        # flat vertex indices (the scan kernels' input) and cached
        # sorted-vertex rect coordinates (the anchor search's input).
        self._features: Dict[str, List[_FeatureEntry]] = {}
        # Flat index -> names of nets with a feature vertex there.
        self._occ: Dict[int, Set[str]] = {}
        # Flat owner mirror of _occ for the scan kernels: 0 = empty,
        # interned id = single occupant, -1 = multiple occupants.
        self._occ_owner = zero_owner_mirror(self.grid.num_vertices)
        self._name_ids: Dict[str, int] = {}
        # Reverse interning table (_name_ids inverted, index = id) so the
        # hit loop resolves single-occupant cells without touching _occ.
        self._id_names: List[str] = [""]
        # Cached conflicts: per unordered net pair and per net vs obstacles.
        self._pair_conflicts: Dict[NetPair, List[ColorConflict]] = {}
        self._pairs_by_net: Dict[str, Set[NetPair]] = {}
        self._obstacle_conflicts: Dict[str, List[ColorConflict]] = {}
        self._uncolored: Dict[str, int] = {}

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self._name_ids) + 1
            self._name_ids[name] = ident
            self._id_names.append(name)
        return ident

    def _offsets_for(self, layer: int) -> Tuple[Tuple[int, int, int], ...]:
        # The canonical per-layer interaction radius (max(Dcolor,
        # min_spacing)) shared with the batch scheduler, cached on the grid.
        return self.grid.layer_interaction_offsets(layer)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(self, solution: RoutingSolution) -> Set[str]:
        """Re-validate dirty nets against *solution*; return the dirty set."""
        tracked_nets, _raw, rebuild = self.tracker.consume()
        if rebuild or not self._built:
            self._reset_state()
            self._built = True
            dirty = set(solution.routes)
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

        for name in dirty:
            self._remove_net(name)
        for name in dirty:
            route = solution.routes.get(name)
            if route is None:
                self._route_revisions.pop(name, None)
            else:
                self._route_revisions[name] = route.revision
                self._add_net(name, route)
        for name in dirty:
            if name in self._features:
                self._scan_pairs(name)
        return dirty

    # -- per-net removal / addition ----------------------------------------

    def _remove_net(self, name: str) -> None:
        owner = self._occ_owner
        for entry in self._features.pop(name, ()):
            for index in entry.indices:
                nets = self._occ.get(index)
                if nets is not None:
                    nets.discard(name)
                    if not nets:
                        del self._occ[index]
                        owner[index] = 0
                    elif len(nets) == 1:
                        owner[index] = self._intern(next(iter(nets)))
        for pair in self._pairs_by_net.pop(name, ()):
            self._pair_conflicts.pop(pair, None)
            partner = pair[1] if pair[0] == name else pair[0]
            partner_pairs = self._pairs_by_net.get(partner)
            if partner_pairs is not None:
                partner_pairs.discard(pair)
        self._obstacle_conflicts.pop(name, None)
        self._uncolored.pop(name, None)

    def _extract_features(self, route: NetRoute) -> List[Feature]:
        """Flat-index twin of the oracle's ``_net_features``.

        Returns the identical feature list -- same partition, same order,
        same fields -- built with an int-keyed union-find instead of the
        oracle's GridPoint-keyed DisjointSet.  Extraction runs for every
        dirty net on every refresh, where GridPoint hashing dominated the
        profile; group order is preserved because a group enters the result
        when its first member appears in ``vertex_colors`` order, exactly
        like the oracle's ``groups[dsu.find(vertex)]`` insertion.  The
        differential suites pin the equivalence against the oracle.
        """
        vertices = route.vertices
        colored = [
            (vertex, color)
            for vertex, color in route.vertex_colors.items()
            if vertex in vertices
        ]
        if not colored:
            return []
        index_of = self.grid.index_of
        color_at: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        keyed: List[Tuple[int, GridPoint]] = []
        for vertex, color in colored:
            index = index_of(vertex)
            color_at[index] = color
            parent[index] = index
            keyed.append((index, vertex))
        color_get = color_at.get
        for a, b in route.edges:
            if a.layer != b.layer:
                continue
            ia = index_of(a)
            color_a = color_get(ia)
            if color_a is None:
                continue
            ib = index_of(b)
            if color_get(ib) != color_a:
                continue
            # Union by path-halving find; root choice cannot affect the
            # partition, which is all the oracle's grouping depends on.
            while parent[ia] != ia:
                parent[ia] = parent[parent[ia]]
                ia = parent[ia]
            while parent[ib] != ib:
                parent[ib] = parent[parent[ib]]
                ib = parent[ib]
            if ia != ib:
                parent[ib] = ia
        groups: Dict[int, List[GridPoint]] = {}
        group_colors: Dict[int, int] = {}
        for index, vertex in keyed:
            root = index
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            members = groups.get(root)
            if members is None:
                groups[root] = [vertex]
                group_colors[root] = color_at[index]
            else:
                members.append(vertex)
        name = route.net_name
        return [
            Feature(
                net_name=name,
                layer=members[0].layer,
                color=group_colors[root],
                vertices=frozenset(members),
            )
            for root, members in groups.items()
        ]

    def _add_net(self, name: str, route: NetRoute) -> None:
        features = self._extract_features(route)
        index_of = self.grid.index_of
        vertex_rect = self.grid.vertex_rect
        net_id = self._intern(name)
        owner = self._occ_owner
        entries: List[_FeatureEntry] = []
        for feature in features:
            ordered = tuple(sorted(feature.vertices))
            rects = [vertex_rect(v) for v in ordered]
            bbox = Rect.bounding(rects)
            coords = tuple((r.xlo, r.ylo, r.xhi, r.yhi) for r in rects)
            indices = array("q", [index_of(v) for v in ordered])
            entries.append(_FeatureEntry(feature, bbox, indices, ordered, coords))
            for index in indices:
                occ = self._occ.setdefault(index, set())
                occ.add(name)
                owner[index] = net_id if len(occ) == 1 else -1
        self._features[name] = entries
        if features:
            obstacle = self._obstacle_conflicts_prefiltered(entries)
            if obstacle:
                self._obstacle_conflicts[name] = obstacle
        uncolored = self._count_uncolored(route, entries)
        if uncolored:
            self._uncolored[name] = uncolored

    def _obstacle_conflicts_prefiltered(
        self, entries: List[_FeatureEntry]
    ) -> List[ColorConflict]:
        """Bbox-prefiltered twin of the oracle's ``_obstacle_conflicts``.

        The feature bbox contains every member rect, so its gap to the
        obstacle lower-bounds every member gap: pairs whose bbox gap already
        meets ``dcolor`` skip the per-vertex rect walk.  Surviving pairs run
        the oracle's exact loop over the same frozenset (same iteration
        order), so the emitted conflicts -- and their order -- are identical.
        """
        obstacles = self.design.colored_obstacles()
        if not obstacles:
            return []
        conflicts: List[ColorConflict] = []
        vertex_rect = self.grid.vertex_rect
        for entry in entries:
            feature = entry.feature
            dcolor = self.rules.color_spacing_on(feature.layer)
            bbox = entry.bbox
            for obstacle in obstacles:
                if obstacle.layer != feature.layer or obstacle.color != feature.color:
                    continue
                if bbox.distance_to(obstacle.rect) >= dcolor:
                    continue
                hit = None
                for vertex in feature.vertices:
                    if vertex_rect(vertex).distance_to(obstacle.rect) < dcolor:
                        hit = vertex
                        break
                if hit is not None:
                    conflicts.append(
                        ColorConflict(
                            net_a=feature.net_name,
                            net_b=f"__fixed__{obstacle.name or 'obstacle'}",
                            layer=feature.layer,
                            color=feature.color,
                            location=hit,
                            kind="same-mask",
                        )
                    )
        return conflicts

    def _count_uncolored(self, route: NetRoute, entries: List[_FeatureEntry]) -> int:
        """Count routed TPL-layer vertices without a mask assignment.

        Equivalent to the oracle's per-vertex ``vertex not in colors``
        membership walk: the cached feature entries hold exactly the
        colored vertices that are part of the route, so the count is the
        route's TPL-layer vertex total minus the entries' TPL-layer vertex
        total -- no per-vertex hashing.
        """
        if not route.routed:
            return 0
        layers = self.design.tech.layers
        total = sum(1 for vertex in route.vertices if layers[vertex.layer].tpl)
        colored = sum(
            len(entry.ordered)
            for entry in entries
            if layers[entry.feature.layer].tpl
        )
        return total - colored

    # -- pair scanning ------------------------------------------------------

    def _scan_pairs(self, name: str) -> None:
        """Re-classify *name* against every net within its interaction radius.

        Candidate partners are found by expanding the net's feature vertices
        by the layer's reach (the same offsets the dirty-region expansion
        uses) and reading the feature-occupancy mirror -- a net outside the
        expanded region cannot conflict with *name*.
        """
        grid = self.grid
        occ_get = self._occ.get
        self_id = self._name_ids.get(name, 0)
        candidates: Set[str] = set()
        # One scan per layer, not per feature: the features' vertex arrays
        # are concatenated so small features do not pay per-call overhead.
        by_layer: Dict[int, List[_FeatureEntry]] = {}
        for entry in self._features.get(name, ()):
            by_layer.setdefault(entry.feature.layer, []).append(entry)
        for layer, entries in by_layer.items():
            if len(entries) == 1:
                merged = entries[0].indices
            else:
                merged = array("q")
                for entry in entries:
                    merged.extend(entry.indices)
            hits = scan_hits(
                merged,
                grid.layer_interaction_offset_arrays(layer),
                self._occ_owner,
                self_id,
                grid.num_cols,
                grid.num_rows,
            )
            if hits is None:
                for entry in entries:
                    self._feature_candidates_pure(
                        entry.feature, entry.indices, candidates
                    )
                continue
            owner = self._occ_owner
            id_names = self._id_names
            for _src, dst in hits:
                # A positive owner id names the lone occupant directly; only
                # multi-occupant cells (-1) fall back to the occupancy dict.
                occupant = owner[dst]
                if occupant > 0:
                    candidates.add(id_names[occupant])
                else:
                    others = occ_get(dst)
                    if others:
                        candidates.update(others)
        candidates.discard(name)
        for partner in candidates:
            pair = (name, partner) if name <= partner else (partner, name)
            if pair in self._pair_conflicts:
                continue  # the partner was dirty too and already rescanned
            conflicts = self._classify_net_pair(name, partner)
            self._pair_conflicts[pair] = conflicts
            self._pairs_by_net.setdefault(name, set()).add(pair)
            self._pairs_by_net.setdefault(partner, set()).add(pair)

    def _feature_candidates_pure(
        self, feature: Feature, indices: array, candidates: Set[str]
    ) -> None:
        """The original dict/set scan: fallback tier and behavioral reference."""
        grid = self.grid
        rows, cols, plane = grid.num_rows, grid.num_cols, grid.plane_size
        occ_get = self._occ.get
        offsets = self._offsets_for(feature.layer)
        for index in indices:
            col, row = divmod(index % plane, rows)
            for dcol, drow, delta in offsets:
                if not (0 <= col + dcol < cols and 0 <= row + drow < rows):
                    continue
                others = occ_get(index + delta)
                if others:
                    candidates.update(others)

    def _classify_net_pair(self, name: str, partner: str) -> List[ColorConflict]:
        conflicts: List[ColorConflict] = []
        partner_entries = self._features.get(partner, ())
        for entry in self._features.get(name, ()):
            feature, bbox = entry.feature, entry.bbox
            dcolor = self.rules.color_spacing_on(feature.layer)
            reach = max(dcolor, self.rules.min_spacing)
            for other_entry in partner_entries:
                other = other_entry.feature
                if other.layer != feature.layer:
                    continue
                # The bbox gap lower-bounds every vertex-pair gap, so pairs
                # outside the reach can be skipped without exact distances.
                if bbox.distance_to(other_entry.bbox) >= reach:
                    continue
                # Anchor the conflict at the feature vertex nearest the
                # partner so rip-up history lands where the metal clashes.
                # Inlined L-infinity rect gap over the cached corner ints;
                # the sorted walk keeps only strictly closer vertices, which
                # reproduces the reference min()'s smallest-vertex
                # tie-breaking, and a zero gap cannot be beaten.
                oxlo, oylo, oxhi, oyhi = (
                    other_entry.bbox.xlo,
                    other_entry.bbox.ylo,
                    other_entry.bbox.xhi,
                    other_entry.bbox.yhi,
                )
                anchor = entry.ordered[0]
                best = None
                for vertex, (xlo, ylo, xhi, yhi) in zip(entry.ordered, entry.coords):
                    gap = oxlo - xhi
                    if xlo - oxhi > gap:
                        gap = xlo - oxhi
                    if oylo - yhi > gap:
                        gap = oylo - yhi
                    if ylo - oyhi > gap:
                        gap = ylo - oyhi
                    if gap <= 0:
                        anchor = vertex
                        break
                    if best is None or gap < best:
                        best = gap
                        anchor = vertex
                conflict = self.oracle._classify_pair(feature, other, anchor, dcolor)
                if conflict is not None:
                    conflicts.append(conflict)
        return conflicts

    # ------------------------------------------------------------------
    # Reports (same shapes as the full checker)
    # ------------------------------------------------------------------

    def check(self, solution: RoutingSolution) -> ConflictReport:
        """Refresh against *solution* and return the aggregated report."""
        self.refresh(solution)
        return self.report()

    def report(self) -> ConflictReport:
        """Return a :class:`ConflictReport` assembled from the running tallies."""
        conflicts: List[ColorConflict] = []
        for pair in sorted(self._pair_conflicts):
            conflicts.extend(self._pair_conflicts[pair])
        for name in sorted(self._obstacle_conflicts):
            conflicts.extend(self._obstacle_conflicts[name])
        return ConflictReport(
            conflicts=conflicts,
            uncolored_vertices=sum(self._uncolored.values()),
        )

    def conflict_count(self) -> int:
        """Return the running conflict tally (after a refresh)."""
        return sum(len(found) for found in self._pair_conflicts.values()) + sum(
            len(found) for found in self._obstacle_conflicts.values()
        )

    def count(self, solution: RoutingSolution) -> int:
        """Refresh against *solution* and return only the conflict count."""
        self.refresh(solution)
        return self.conflict_count()

    def detach(self) -> None:
        """Stop listening to grid deltas (the tallies freeze)."""
        self.tracker.detach()
