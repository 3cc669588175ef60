"""The rectangle walk leg by leg, as the library ran it before the walk
kept only the line's crossing of the top: the tests' geometric oracle
for the flow and for the measure's chains, which read its y values."""

from ribbonflow.exact import QuadNum, as_quad

_ZERO = QuadNum(0)


def leg_walk(surface, u, e, cx, cy, scalar=as_quad) -> list:
    """Follow the line of slope 1/u from (cx, cy) inside the rectangle
    over e through side gluings up to its first crossing of a top edge.

    Returns the legs, one (edge, width, x0, y0, x1, y1) per rectangle
    crossed.  The last leg ends on the top edge with x1 in [0, width), so
    a line through a top-right corner ends at offset 0 of the east
    neighbor.  scalar converts the surface's exact lengths into the
    arithmetic of the walk: as_quad, which keeps them, for exact walks,
    float for float ones.
    """
    zero = scalar(_ZERO)
    # east and west keep the A-vertex, so every rectangle crossed has the
    # height of the first
    h = scalar(surface.height(e))
    legs = []
    while True:
        w = scalar(surface.width(e))
        x1 = cx + u * (h - cy)
        if x1 < zero:
            y1 = cy - cx / u
            legs.append((e, w, cx, cy, zero, y1))
            e = surface.west(e)
            cx, cy = scalar(surface.width(e)), y1
        elif x1 < w:
            legs.append((e, w, cx, cy, x1, h))
            return legs
        else:
            # u == 0 here means a vertical line up the right side
            y1 = cy + (w - cx) / u if u else cy
            legs.append((e, w, cx, cy, w, y1))
            e, cx, cy = surface.east(e), zero, y1
