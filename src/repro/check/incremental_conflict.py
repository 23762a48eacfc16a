"""Incremental counterpart of :class:`repro.tpl.conflict.ConflictChecker`.

Conflicts are counted between features (maximal same-net, same-layer,
same-mask connected runs).  A conflict between features of nets *A* and *B*
depends only on the two nets' geometry and masks, so the cached per-pair
conflict lists stay valid until one of the nets changes:

* on :meth:`refresh`, the dirty nets -- those whose route's monotone
  ``revision`` stamp changed since the previous refresh (a replaced route
  object, or an in-place :meth:`NetRoute.set_color`), plus those gone from
  the solution -- get their :class:`~repro.tpl.conflict.Feature` records
  re-extracted by the full checker's own ``_net_features``,
* every cached pair involving a dirty net is dropped, and the partners
  that can conflict are re-classified and anchored by the full checker's
  own ``_net_pair_conflicts`` (the pair is anchored on the dirty net's
  side).  A partner can conflict when some of its metal sits within the
  layer's min-spacing reach of the net's feature vertices, or within the
  Dcolor reach on the same mask, or shares a vertex with another net
  (:func:`repro.check.kernels.scan_hits`' candidate rule, which is
  ``_pair_kind``'s own vertex rule).  Only pairs that do conflict are
  kept,
* per-net obstacle-conflict and uncolored-vertex tallies are recomputed for
  dirty nets only, through the full checker's ``_obstacle_conflicts`` /
  ``_route_uncolored``.  Obstacle conflicts keep the rip-up loop's own
  location rule (``member_set_order``), which the routing digests are
  pinned to.

So this module builds no feature and picks no anchor of its own.  The
tallies are computed from the solution alone; the grid supplies only
static geometry.  The neighborhood scan runs on the tiered
:func:`~repro.check.kernels.scan_hits` (the native ``_checkwork`` kernel,
ABI 2, or its Python loop) over two flat mirrors of the features' vertices:
the owner of each vertex and the mask of a vertex with one owner.

A conflicting pair is found from the same dirty net, in the same order of
the dirty set, as a scan that takes every net within the interaction
radius as a candidate, so the running tallies match a fresh full scan on
counts, kinds and net pairs (``tests/test_incremental_check.py`` and
``tests/test_check_kernels.py`` assert it after every mutation) and that
unfiltered scan conflict by conflict, anchors included
(``tests/test_partner_scan.py``).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set, Tuple

from repro.check.kernels import (
    OffsetBuffers,
    offset_buffers,
    scan_hits,
    zero_mask_mirror,
    zero_owner_mirror,
)
from repro.design import Design
from repro.grid import NetRoute, RoutingGrid, RoutingSolution
from repro.tpl.conflict import ColorConflict, ConflictChecker, ConflictReport, Feature

#: Canonical unordered net-pair key.
NetPair = Tuple[str, str]


class IncrementalConflictChecker:
    """Incrementally maintained color-conflict tallies over a solution."""

    def __init__(self, design: Design, grid: RoutingGrid) -> None:
        self.grid = grid
        self.oracle = ConflictChecker(design, grid)
        # Per layer: the interaction offsets as kernel buffers.
        self._layer_offsets: Dict[int, OffsetBuffers] = {}
        # The first refresh validates every net of the solution.
        self._built = False
        self._route_revisions: Dict[str, int] = {}
        # Per net: its feature records (flat indices for the scan kernels,
        # track coordinates and boxes for classification and anchoring).
        self._features: Dict[str, List[Feature]] = {}
        # Flat owner mirror of the features' vertices for the scan kernels:
        # 0 = empty, interned id = single occupant, -1 = several occupants.
        self._occ_owner = zero_owner_mirror(self.grid.num_vertices)
        # The single occupant's mask at each vertex (0 elsewhere).
        self._occ_mask = zero_mask_mirror(self.grid.num_vertices)
        # Flat index of a vertex with several occupants -> {name: mask}.
        self._occ: Dict[int, Dict[str, int]] = {}
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
        # Net pairs classified by this refresh, conflicting or not.
        classified: Set[NetPair] = set()
        for name in dirty:
            if name in self._features:
                self._scan_pairs(name, classified)
        return dirty

    # -- per-net removal / addition ----------------------------------------

    def _remove_net(self, name: str) -> None:
        owner, masks, occ = self._occ_owner, self._occ_mask, self._occ
        net_id = self._name_ids.get(name, 0)
        for feature in self._features.pop(name, ()):
            for index in feature.indices:
                if owner[index] == net_id:
                    owner[index] = 0
                    masks[index] = 0
                    continue
                occupants = occ[index]
                del occupants[name]
                if len(occupants) == 1:
                    ((other, mask),) = occupants.items()
                    owner[index] = self._name_ids[other]
                    masks[index] = mask
                    del occ[index]
        for pair in self._pairs_by_net.pop(name, ()):
            self._pair_conflicts.pop(pair, None)
            partner = pair[1] if pair[0] == name else pair[0]
            partner_pairs = self._pairs_by_net.get(partner)
            if partner_pairs is not None:
                partner_pairs.discard(pair)
        self._obstacle_conflicts.pop(name, None)
        self._uncolored.pop(name, None)

    def _add_net(self, name: str, route: NetRoute) -> None:
        net_id = self._intern(name)
        owner, masks, occ = self._occ_owner, self._occ_mask, self._occ
        id_names = self._id_names
        features = self.oracle._net_features(route)
        obstacle: List[ColorConflict] = []
        for feature in features:
            color = feature.color
            for index in feature.indices:
                occupant = owner[index]
                if occupant == 0:
                    owner[index] = net_id
                    masks[index] = color
                elif occupant == -1:
                    occ[index][name] = color
                else:
                    occ[index] = {id_names[occupant]: masks[index], name: color}
                    owner[index] = -1
                    masks[index] = 0
            obstacle.extend(self.oracle._obstacle_conflicts(feature, member_set_order=True))
        self._features[name] = features
        if obstacle:
            self._obstacle_conflicts[name] = obstacle
        uncolored = self.oracle._route_uncolored(route, features)
        if uncolored:
            self._uncolored[name] = uncolored

    # -- pair scanning ------------------------------------------------------

    def _scan_pairs(self, name: str, classified: Set[NetPair]) -> None:
        """Re-classify *name* against every net that can conflict with it.

        Candidate partners are found by expanding the net's feature vertices
        by the layer's reach and reading the owner and mask mirrors under
        :func:`~repro.check.kernels.scan_hits`' candidate rule -- a net no
        probe reaches has no conflict with *name*.  A pair already in
        *classified* (its partner was dirty too and scanned first) is
        skipped; only conflicting pairs are stored.
        """
        grid = self.grid
        owner = self._occ_owner
        id_names = self._id_names
        occ = self._occ
        self_id = self._name_ids.get(name, 0)
        candidates: Set[str] = set()
        # One scan per layer, not per feature: the features' vertex arrays
        # are concatenated so small features do not pay per-call overhead.
        by_layer: Dict[int, List[Feature]] = {}
        for feature in self._features.get(name, ()):
            by_layer.setdefault(feature.layer, []).append(feature)
        for layer, features in by_layer.items():
            merged = array("q")
            merged_masks = array("b")
            for feature in features:
                merged.extend(feature.indices)
                merged_masks.extend(array("b", [feature.color]) * len(feature.indices))
            hits = scan_hits(
                merged,
                merged_masks,
                self._offsets_for(layer),
                owner,
                self._occ_mask,
                self_id,
                self.oracle._reaches[layer],
                grid.num_cols,
                grid.num_rows,
            )
            for _src, dst in hits:
                # A positive owner id names the lone occupant directly; only
                # cells with several occupants (-1) read the occupancy dict.
                occupant = owner[dst]
                if occupant > 0:
                    candidates.add(id_names[occupant])
                else:
                    candidates.update(occ[dst])
        candidates.discard(name)
        for partner in candidates:
            pair = (name, partner) if name <= partner else (partner, name)
            if pair in classified:
                continue
            classified.add(pair)
            conflicts = self.oracle._net_pair_conflicts(
                self._features[name], self._features[partner]
            )
            if conflicts:
                self._pair_conflicts[pair] = conflicts
                self._pairs_by_net.setdefault(name, set()).add(pair)
                self._pairs_by_net.setdefault(partner, set()).add(pair)

    # ------------------------------------------------------------------
    # Reports (same shapes as the full checker)
    # ------------------------------------------------------------------

    def check(self, solution: RoutingSolution) -> ConflictReport:
        """Refresh against *solution* and return the aggregated report."""
        self.refresh(solution)
        conflicts: List[ColorConflict] = []
        for pair in sorted(self._pair_conflicts):
            conflicts.extend(self._pair_conflicts[pair])
        for name in sorted(self._obstacle_conflicts):
            conflicts.extend(self._obstacle_conflicts[name])
        return ConflictReport(
            conflicts=conflicts,
            uncolored_vertices=sum(self._uncolored.values()),
        )
