"""F2 linear algebra on integer bitmasks.

Vectors are plain Python ints: bit i is coordinate i, and a row operation
is one big-integer XOR.  Windows of long staircase cones reach a few
thousand coordinates; dense bitmask rows stay exact there and cost one
machine word per 64 coordinates.  `reduce_columns` is the one elimination.
A complex's homology calls it once per parity class of columns.  The
Upsilon sweep of a tower with a boundary column of three or more positions
calls it once per piece of the answer, on the boundaries and the base cycle
under the bit order of that stop, and back-substitutes over its rows for
the dual witness.  `mask` and `positions` convert between a vector and the
sorted tuple of its positions, the form chains take outside this module.
`components`, the one union-find, reduces columns of two positions by
joining them, for towers with no wider column and for arrow-connected
components.
"""

from __future__ import annotations


def mask(positions) -> int:
    """The vector with bit k set for each k of `positions` (distinct)."""
    return sum(map((1).__lshift__, positions))


def positions(v: int) -> tuple:
    """The ascending positions of the set bits of v: the inverse of `mask`."""
    return tuple(k for k, b in enumerate(reversed(bin(v))) if b == "1")


def reduce_columns(columns) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Column reduction of the map sending coordinate i to columns[i],
    pivoting on the highest set bit.

    Returns the kernel and the rows.  Kernel masks live in the
    column-index space; each has a distinct leading bit, the index of the
    column whose dependence it records, and the columns it names XOR to
    zero.  The rows map each leading bit of the image to (row, combination):
    the row is the XOR of the columns the combination names, and the
    combination's leading bit is the index of the column that took that
    pivot.  Columns go in order, so the rows come out in ascending order of
    that index, and their combinations name the independent columns.
    """
    rows: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, col in enumerate(columns):
        v, combo = col, 1 << i
        while v:
            hb = v.bit_length() - 1
            if hb not in rows:
                rows[hb] = (v, combo)
                break
            pv, pc = rows[hb]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return kernel, rows


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
