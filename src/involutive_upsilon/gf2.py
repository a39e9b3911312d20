"""F2 linear algebra on integer bitmasks.

Vectors are plain Python ints: bit i is coordinate i, and a row operation
is one big-integer XOR.  Windows of long staircase cones reach a few
thousand coordinates; dense bitmask rows stay exact there and cost one
machine word per 64 coordinates.  `reduce_columns` reduces a complex's
columns once for its homology.  `Eliminator` serves the Upsilon sweep of a
tower with a boundary column of three or more positions, which reduces
the same boundaries again under the bit order of each stop, once per piece
of the answer, and back-substitutes over the stored pivots for its dual
witness.  `components`, the one union-find, reduces columns of two
positions by joining them, for towers with no wider column and for
arrow-connected components.
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


def reduce_columns(columns) -> tuple[list[int], dict[int, int]]:
    """Column reduction of the map sending coordinate i to columns[i].

    Returns the kernel and the pivots.  Kernel masks live in the
    column-index space; each has a distinct leading bit, the index of the
    column whose dependence it records.  The pivots map each leading bit of
    the image to the index of the column that took it; columns go in order,
    so those indices, the independent columns, come out ascending.
    """
    rows: dict[int, tuple[int, int]] = {}
    pivots: dict[int, int] = {}
    kernel = []
    for i, col in enumerate(columns):
        v, combo = col, 1 << i
        while v:
            hb = v.bit_length() - 1
            if hb not in rows:
                rows[hb] = (v, combo)
                pivots[hb] = i
                break
            pv, pc = rows[hb]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return kernel, pivots


def components(n: int, pairs) -> list[int]:
    """Each position's root once the two positions of every pair are joined.
    This is the column reduction of columns with two positions: they span
    exactly the even subsets of each component."""
    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for a, b in pairs:
        parent[find(a)] = find(b)
    return list(map(find, range(n)))
