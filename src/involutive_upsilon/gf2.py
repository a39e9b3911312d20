"""F2 linear algebra on integer bitmasks.

Vectors are plain Python ints: bit i is coordinate i, and a row operation
is one big-integer XOR.  Windows of long staircase cones reach a few
thousand coordinates; dense bitmask rows stay exact there and cost one
machine word per 64 coordinates.
"""

from __future__ import annotations


def mask(positions) -> int:
    """The vector with bit k set for each k of `positions` (distinct)."""
    return sum(map((1).__lshift__, positions))


class Eliminator:
    """Incremental row reduction, pivoting on the highest set bit."""

    def __init__(self, vectors=()):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def residual(self, v: int) -> int:
        """Reduce v against the stored pivots without recording it."""
        pivots = self.pivots
        while v:
            row = pivots.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row
        return v

    def add(self, v: int) -> int:
        """Reduce v and record it if independent.  Returns the residual."""
        r = self.residual(v)
        if r:
            self.pivots[r.bit_length() - 1] = r
        return r


def kernel_basis(columns) -> list[int]:
    """Kernel of the map sending coordinate i to columns[i].

    Returned masks live in the column-index space; each has a distinct
    leading bit, the index of the column whose dependence it records.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, col in enumerate(columns):
        v, combo = col, 1 << i
        while v:
            hb = v.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = (v, combo)
                break
            pv, pc = pivots[hb]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return kernel
