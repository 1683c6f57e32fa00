"""Per-band reference for ``roughmarket.variation.crossings`` and
``band_crossings``.

One pure-Python scan over the samples per band and per direction: the plain
form of the completed-move state machine, kept as the oracle that the
sorted-edge kernel ``variation._band_moves`` must match exactly.
"""

from roughmarket.errors import BadInterval
from roughmarket.variation import CrossingCount


def crossings(path, a: float, b: float) -> CrossingCount:
    """Count completed moves <=a -> >=b (up) and >=b -> <=a (down).

    Matches hitting the closed sets [0, a] and [b, inf) in sample order,
    which on a step path happens exactly at sample points.
    """
    if not (0.0 <= a < b):
        raise BadInterval(f"need 0 <= a < b, got ({a}, {b})")
    low = (path.values <= a).tolist()
    high = (path.values >= b).tolist()
    return CrossingCount(up=_moves(low, high), down=_moves(high, low))


def _moves(start: list[bool], end: list[bool]) -> int:
    """Completed moves from a ``start`` sample to a later ``end`` sample."""
    count = 0
    armed = False
    for s, e in zip(start, end):
        if not armed:
            armed = s
        elif e:
            count += 1
            armed = False
    return count
