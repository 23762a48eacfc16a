"""Incremental counterpart of :class:`repro.tpl.conflict.ConflictChecker`.

Conflicts are counted between features (maximal same-net, same-layer,
same-mask connected runs).  A conflict between features of nets *A* and *B*
depends only on the two nets' geometry and masks, so the cached per-pair
conflict lists stay valid until one of the nets changes:

* on :meth:`refresh`, the dirty nets -- those whose route's monotone
  ``revision`` stamp changed since the previous refresh (a replaced route
  object, or an in-place :meth:`NetRoute.set_color`), plus those gone from
  the solution -- get their features re-extracted with the full checker's
  own ``_net_groups`` routine (one union-find over flat vertex indices),
* every cached pair involving a dirty net is dropped, and partners within
  the interaction radius (``max(Dcolor, min_spacing)``, probed over
  :meth:`RoutingGrid.track_offsets` around the net's feature vertices) are
  re-classified with the full checker's own ``_pair_kind`` /
  ``_obstacle_conflicts`` helpers, so kinds and thresholds cannot drift
  apart,
* per-net obstacle-conflict and uncolored-vertex tallies are recomputed for
  dirty nets only.

The tallies are computed from the solution alone; the grid supplies only
static geometry.  The candidate-partner neighborhood scan runs on the
tiered :func:`repro.check.kernels.scan_hits` (the native ``_checkwork``
kernel or its Python loop) over the flat feature-owner mirror.

The running tallies therefore match a fresh full scan on counts, kinds and
net pairs (locations are anchored at the feature vertex nearest the
partner), which ``tests/test_incremental_check.py`` and
``tests/test_check_kernels.py`` assert after every mutation.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Set, Tuple

from repro.check.kernels import OffsetBuffers, offset_buffers, scan_hits, zero_owner_mirror
from repro.design import Design
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tpl.conflict import ColorConflict, ConflictChecker, ConflictReport

#: Canonical unordered net-pair key.
NetPair = Tuple[str, str]


class _FeatureEntry(NamedTuple):
    """One cached feature on flat vertex indices.

    ``members`` are the feature's indices in extraction order (an obstacle
    conflict is anchored in the iteration order of their frozen
    ``GridPoint`` copy); ``indices`` holds them sorted, and ``cols`` /
    ``rows`` their track coordinates in that order (the conflict-anchor
    search walks them, and the sorted order reproduces the reference
    ``min``'s smallest-vertex tie-breaking exactly); ``box`` is the track
    bounding box ``(col_lo, col_hi, row_lo, row_hi)``.  The fields
    :meth:`ConflictChecker._pair_kind` and ``_obstacle_conflicts`` read are
    named as on :class:`~repro.tpl.conflict.Feature`.
    """

    net_name: str
    layer: int
    color: int
    members: List[int]
    indices: array
    cols: Tuple[int, ...]
    rows: Tuple[int, ...]
    box: Tuple[int, int, int, int]


class IncrementalConflictChecker:
    """Incrementally maintained color-conflict tallies over a solution."""

    def __init__(self, design: Design, grid: RoutingGrid) -> None:
        self.design = design
        self.grid = grid
        self.rules = grid.rules
        self.oracle = ConflictChecker(design, grid)
        # Per layer: the interaction offsets as kernel buffers.
        self._layer_offsets: Dict[int, OffsetBuffers] = {}
        # Per layer: the track reach within which a feature pair can conflict.
        self._pair_reach = [
            max(self.oracle._layer_reaches(layer)) for layer in range(grid.num_layers)
        ]
        # The first refresh validates every net of the solution.
        self._built = False
        self._route_revisions: Dict[str, int] = {}
        # Per net: its feature entries (bounding boxes for the pair
        # prefilter, flat indices for the scan kernels, sorted track
        # coordinates for the threshold walk and the anchor search).
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

    def _offsets_for(self, layer: int) -> OffsetBuffers:
        """Return *layer*'s interaction offsets as kernel buffers.

        The reach is the layer's :meth:`RoutingGrid.interaction_radius`
        (``max(Dcolor, min_spacing)``).
        """
        cached = self._layer_offsets.get(layer)
        if cached is None:
            cached = offset_buffers(
                self.grid.track_offsets(self.grid.interaction_radius(layer=layer))
            )
            self._layer_offsets[layer] = cached
        return cached

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(self, solution: RoutingSolution) -> Set[str]:
        """Re-validate dirty nets against *solution*; return the dirty set."""
        if not self._built:
            self._built = True
            dirty = set(solution.routes)
        else:
            dirty = set()
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

    def _add_net(self, name: str, route: NetRoute) -> None:
        grid = self.grid
        plane_size, num_rows = grid.plane_size, grid.num_rows
        vertex_of = grid.vertex_of
        net_id = self._intern(name)
        owner = self._occ_owner
        occ_setdefault = self._occ.setdefault
        entries: List[_FeatureEntry] = []
        obstacle: List[ColorConflict] = []
        for layer, color, members in self.oracle._net_groups(route):
            indices = array("q", sorted(members))
            base = layer * plane_size
            cols = []
            rows = []
            for index in indices:
                col, row = divmod(index - base, num_rows)
                cols.append(col)
                rows.append(row)
                occ = occ_setdefault(index, set())
                occ.add(name)
                owner[index] = net_id if len(occ) == 1 else -1
            entry = _FeatureEntry(
                name,
                layer,
                color,
                members,
                indices,
                tuple(cols),
                tuple(rows),
                (cols[0], cols[-1], min(rows), max(rows)),
            )
            entries.append(entry)
            # Frozen from the member list, not from a set as the full scan
            # does: obstacle conflicts are anchored at the first feature
            # vertex in iteration order, rip-up history goes there, and the
            # routing digests are pinned to this order.
            obstacle.extend(
                self.oracle._obstacle_conflicts(
                    entry, lambda: frozenset([vertex_of(index) for index in members])
                )
            )
        self._features[name] = entries
        if obstacle:
            self._obstacle_conflicts[name] = obstacle
        uncolored = self.oracle._route_uncolored(route, entries)
        if uncolored:
            self._uncolored[name] = uncolored

    # -- pair scanning ------------------------------------------------------

    def _scan_pairs(self, name: str) -> None:
        """Re-classify *name* against every net within its interaction radius.

        Candidate partners are found by expanding the net's feature vertices
        by the layer's reach and reading the feature-occupancy mirror -- a
        net outside the expanded region cannot conflict with *name*.
        """
        grid = self.grid
        occ_get = self._occ.get
        self_id = self._name_ids.get(name, 0)
        candidates: Set[str] = set()
        # One scan per layer, not per feature: the features' vertex arrays
        # are concatenated so small features do not pay per-call overhead.
        by_layer: Dict[int, List[_FeatureEntry]] = {}
        for entry in self._features.get(name, ()):
            by_layer.setdefault(entry.layer, []).append(entry)
        for layer, entries in by_layer.items():
            if len(entries) == 1:
                merged = entries[0].indices
            else:
                merged = array("q")
                for entry in entries:
                    merged.extend(entry.indices)
            hits = scan_hits(
                merged,
                self._offsets_for(layer),
                self._occ_owner,
                self_id,
                grid.num_cols,
                grid.num_rows,
            )
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

    def _classify_net_pair(self, name: str, partner: str) -> List[ColorConflict]:
        """Classify every same-layer feature pair of *name* and *partner*.

        Kinds come from the full checker's :meth:`ConflictChecker._pair_kind`;
        only a conflicting pair pays for its anchor.
        """
        conflicts: List[ColorConflict] = []
        partner_entries = self._features.get(partner, ())
        grid = self.grid
        vertex_of = grid.vertex_of
        pair_kind = self.oracle._pair_kind
        # A signed track distance up to ``touch`` means the squares touch.
        touch = 2 * max(self.rules.wire_width // 2, 0) // grid.pitch
        for entry in self._features.get(name, ()):
            layer = entry.layer
            reach = self._pair_reach[layer]
            col_lo, col_hi, row_lo, row_hi = entry.box
            for other in partner_entries:
                if other.layer != layer:
                    continue
                # The box distance lower-bounds every vertex-pair distance,
                # so pairs outside the reach can be skipped.
                ocol_lo, ocol_hi, orow_lo, orow_hi = other.box
                if (
                    ocol_lo - col_hi > reach
                    or col_lo - ocol_hi > reach
                    or orow_lo - row_hi > reach
                    or row_lo - orow_hi > reach
                ):
                    continue
                kind = pair_kind(entry, other)
                if kind is None:
                    continue
                # Anchor the conflict at the feature vertex nearest the
                # partner's box so rip-up history lands where the metal
                # clashes.  The sorted walk keeps only strictly closer
                # vertices, which reproduces the reference min()'s
                # smallest-vertex tie-breaking, and touching cannot be beaten.
                anchor = 0
                best = None
                for position, (col, row) in enumerate(zip(entry.cols, entry.rows)):
                    tracks = max(ocol_lo - col, col - ocol_hi, orow_lo - row, row - orow_hi)
                    if tracks <= touch:
                        anchor = position
                        break
                    if best is None or tracks < best:
                        best = tracks
                        anchor = position
                conflicts.append(
                    ColorConflict(
                        net_a=entry.net_name,
                        net_b=other.net_name,
                        layer=layer,
                        color=entry.color,
                        location=vertex_of(entry.indices[anchor]),
                        kind=kind,
                    )
                )
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
