"""F2 linear algebra on integer bitmasks.

Vectors are plain Python ints: bit i is coordinate i, and a row operation
is one big-integer XOR.  Windows of long staircase cones reach a few
thousand coordinates; dense bitmask rows stay exact there and cost one
machine word per 64 coordinates.
"""

from __future__ import annotations


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


def image_basis(columns) -> list[int]:
    """Independent subset of the given columns (a basis of their span)."""
    elim = Eliminator()
    basis = []
    for col in columns:
        if elim.add(col):
            basis.append(col)
    return basis


def kernel_basis(columns) -> list[int]:
    """Kernel of the map sending coordinate i to columns[i].

    Returned masks live in the column-index space.
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


def quotient_representatives(cycles, boundaries) -> list[int]:
    """Cycle vectors completing a boundary basis: representatives of H."""
    elim = Eliminator(boundaries)
    reps = []
    for z in cycles:
        if elim.add(z):
            reps.append(z)
    return reps
