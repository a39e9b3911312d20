"""F2 linear algebra on sets of positions.

A vector is the set of its positions, as a chain is the sorted tuple of
its positions everywhere else in the package; a row operation is one
symmetric difference.  A stored vector costs its support, not its highest
position, so the reductions of staircases, folds and cones, whose columns
and combinations hold a few positions each, stay linear in the arrows.
`reduce_columns` is the one elimination.  A complex's homology calls it
once per parity class of columns.  The Upsilon sweep of a tower with a
boundary column of three or more positions calls it once per stop, that is
once per expiry of a witness, on the boundaries and the base cycle under
the position order of that stop, and back-substitutes over its rows for
the dual witness.  `column_sum` is the image of one chain, for checks and
for sums of a few columns.  `components`, the one union-find, reduces
columns of two positions by joining them, for towers with no wider column
and for arrow-connected components.
"""

from __future__ import annotations


def column_sum(columns, ks) -> set:
    """The sum of the columns at the indices ks, as a set of positions."""
    out: set = set()
    for k in ks:
        out.symmetric_difference_update(columns[k])
    return out


def reduce_columns(columns) -> tuple[list[set], dict[int, tuple[set, set]]]:
    """Column reduction of the map sending coordinate i to columns[i] (any
    collection of distinct positions), pivoting on the highest position.

    Returns the kernel and the rows, every vector a set.  Kernel vectors
    live in the column-index space; each has a distinct leading element,
    the index of the column whose dependence it records, and the columns it
    names sum to zero.  The rows map each leading position of the image to
    (row, combination): the row is the sum of the columns the combination
    names, and the combination's leading element is the index of the
    column that took that pivot.  Columns go in order, so the rows come out
    in ascending order of that index, and their combinations name the
    independent columns.
    """
    rows: dict[int, tuple[set, set]] = {}
    kernel = []
    for i, col in enumerate(columns):
        v, combo = set(col), {i}
        while v:
            top = max(v)
            if top not in rows:
                rows[top] = (v, combo)
                break
            pv, pc = rows[top]
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
