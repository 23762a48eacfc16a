"""Build a net's expansion closure once per net route.

A router's ``compute_route`` runs one search per pin it connects, all for
the same net against the same grid buffers, so the net's expansion closure
(and the :class:`~repro.native.spec.NativeExpandSpec` attached to it) is
the same for every one of them.  :class:`RouteScopedExpand` lets the
search engines build it once::

    with engine.net_route(net.name):
        ...  # every engine.search(..., net.name) reuses one closure

The closure aliases the grid's live state buffers, which
``RoutingGrid.reset`` and ``restore_state`` rebind, so it lives exactly as
long as the ``with`` block -- one net route -- and never longer.  A search
outside a block (or for another net) builds its own closure as before.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple


class RouteScopedExpand:
    """Mixin for search engines that provide ``make_expand(net_name)``."""

    _route_expand: Optional[Tuple[str, Callable]] = None

    def make_expand(self, net_name: str) -> Callable:
        """Return a fresh expansion closure for *net_name* (engine-specific)."""
        raise NotImplementedError

    @contextmanager
    def net_route(self, net_name: str) -> Iterator[None]:
        """Share one expansion closure among the searches of one net route."""
        self._route_expand = (net_name, self.make_expand(net_name))
        try:
            yield
        finally:
            self._route_expand = None

    def expand_for(self, net_name: str) -> Callable:
        """Return the route's closure for *net_name*, or build a fresh one."""
        bound = self._route_expand
        if bound is not None and bound[0] == net_name:
            return bound[1]
        return self.make_expand(net_name)
