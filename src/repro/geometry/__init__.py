"""Integer geometry kernel used throughout the router.

All coordinates are integers in database units (DBU), matching how detailed
routers and the ISPD contest benchmarks represent layouts.  The kernel
provides points (2-D and 3-D with a layer index), axis-aligned rectangles,
closed integer intervals and macro placement transforms.
"""

from repro.geometry.point import Point, GridPoint
from repro.geometry.interval import Interval
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform

__all__ = [
    "Point",
    "GridPoint",
    "Interval",
    "Rect",
    "Orientation",
    "Transform",
]
