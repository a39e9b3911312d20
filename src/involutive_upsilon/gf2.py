"""F2 linear algebra on sets of positions.

A vector is a collection of its positions, as a chain is the sorted tuple
of its positions everywhere else in the package; a row operation is one
symmetric difference.  A row is a tuple until its first row operation: a
column that takes its pivot untouched is stored as given, and only a row
operation copies it into a set.  A stored vector costs its support, not
its highest position, so the reductions of staircases, folds and cones,
whose columns and combinations hold a few positions each, stay linear in
the arrows.
`reduce_columns` is the one elimination.  A complex's homology calls it
once per parity class of columns.  The Upsilon sweep of a tower with a
boundary column of three or more positions calls it once per stop, that is
once per expiry of a witness, on the boundaries and the base cycle under
the position order of that stop, and back-substitutes over its rows for
the dual witness.  `column_sum` is the image of one chain, for checks.
`components`, the one union-find, reduces columns of two positions by
joining them, for towers with no wider column and for arrow-connected
components.
"""

from __future__ import annotations


def column_sum(columns, ks) -> set:
    """The sum of the columns at the indices ks, as a set of positions."""
    out: set = set()
    for k in ks:
        out.symmetric_difference_update(columns[k])
    return out


def reduce_columns(columns) -> tuple[list, dict[int, tuple]]:
    """Column reduction of the map sending coordinate i to columns[i] (any
    collection of distinct positions), pivoting on the highest position.

    Returns the kernel and the rows.  Kernel vectors live in the
    column-index space; each has a distinct leading element, the index of
    the column whose dependence it records, and the columns it names sum to
    zero.  The rows map each leading position of the image to (row,
    combination): the row is the sum of the columns the combination names,
    and the combination's leading element is the index of the column that
    took that pivot.  Columns go in order, so the rows come out in
    ascending order of that index, and their combinations name the
    independent columns.  A row is the column as given, and its combination
    (i,), until a row operation copies both into sets; no column is changed.
    """
    rows, kernel = {}, []
    for i, col in enumerate(columns):
        v, combo = col, (i,)
        while v and (top := max(v)) in rows:
            if v is col:
                v, combo = set(col), {i}
            pv, pc = rows[top]
            v.symmetric_difference_update(pv)
            combo.symmetric_difference_update(pc)
        if v:
            rows[top] = (v, combo)
        else:
            kernel.append(combo)
    return kernel, rows


def components(n: int, pairs) -> list[int]:
    """Each position's root once the two positions of every pair are joined.
    This is the column reduction of columns with two positions: they span
    exactly the even subsets of each component.  Finds halve their paths."""
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    for k in range(n):
        r = k
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[k] = r
    return parent
