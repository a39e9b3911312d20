"""deg_t, tower classes, and the exact Upsilon invariants.

For t in [0, 2] the interpolated filtration degree of a translated
generator is deg_t = (t/2) * Max + (1 - t/2) * Min, dropping by 1 per
U power.  The level of a homology class is the minimum of deg_t over its
cycle representatives; Upsilon is -2 times that level, computed exactly
as a piecewise-linear function by `tower_upsilon`, which reads the
complex's per-parity homology and finds the pieces (t_start, (slope,
intercept)) with integer lines, which `PLFunction` stores as they are.
When every boundary column has at most two positions (staircases, their
mirrors and folds, reduced cones and stripped file knots), Upsilon is a
lower envelope of upper envelopes of lines, read off one union-find with
no elimination.  Otherwise a sweep over t reduces the base cycle in
filtration order wherever a witness of the current piece expires.

Variants: all four are `tower_upsilon` of one complex.  CLASSIC applies
the same weights verbatim to the (alg, Alex) pair of an unfolded complex
(t/2 on Alex); FOLDED uses the grading-0 tower of the folded complex;
UPPER and LOWER use the grading-0 and grading-1 towers of the involutive
mapping cone.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from fractions import Fraction

from . import gf2
from .complexes import BifilteredComplex, FiltrationMode
from .involutive import ChainMap, fold, mapping_cone, staircase_involution
from .plfunction import PLFunction
from .reduction import reduced_cone, strip_acyclic


class UpsilonVariant(Enum):
    CLASSIC = "classic"
    FOLDED = "folded"
    UPPER = "upper"
    LOWER = "lower"


def tower_upsilon(C: BifilteredComplex, grading: int) -> PLFunction:
    """Upsilon of the rank-1 tower class in a grading.

    Each coordinate (the translate U^u x living in the grading, for a
    generator x of the grading's parity) carries the integer line
    -2 * (f1 - u) - t * (f2 - f1), and Upsilon(t) is the largest, over the
    cycles z of the class, of the least line of z's support.

    When every boundary column has at most two positions (a forest tower:
    staircases, their mirrors and folds, reduced cones, stripped file
    knots), Upsilon is read off the columns with no elimination.  Join the
    two positions of each 2-entry column, and the one position of each
    1-entry column to an extra ground position (`gf2.components`).  A
    component's columns then span exactly its even subsets, and the ground
    is no chain position, so the boundaries are the chains whose parity is
    even on every component but the ground's, and the class is every chain
    whose parity on each such component matches the base cycle's.  Call
    the components where the base is odd, other than the ground's, odd.
    Then Upsilon(t) is the least, over the odd components, of the largest
    line of the component:

    - primal: the chain holding the top-line position of each odd component
      and nothing else is in the class, so Upsilon >= that least top line;
    - dual: the indicator of the component giving the least (the lead
      component) is one on the base and zero on every boundary, so every
      cycle of the class meets it, and Upsilon <= its top line.

    So Upsilon is a lower envelope of upper envelopes of lines, found in
    O(n log n): one union-find, one hull per odd component, and pairwise
    merges of the hulls.  Any wider column goes to `_sweep_upsilon`.
    """
    lines, base, boundaries = _tower(C, grading)
    if all(len(b) <= 2 for b in boundaries):
        return _forest_upsilon(lines, base, boundaries)
    return _sweep_upsilon(lines, base, boundaries)


def _tower(C: BifilteredComplex, grading: int):
    """(lines, base, boundaries) of the grading's tower: the (slope,
    intercept) of each coordinate, and the base cycle and the boundary
    columns as the position tuples of `homology`.  ValueError unless the
    homology has rank 1.  The set-up is linear in the arrows."""
    indices, reps, boundaries = C.homology[grading % 2]
    if len(reps) != 1:
        raise ValueError(
            f"homology rank in grading {grading} is {len(reps)}, need exactly 1")
    lines = [(C.f1[i] - C.f2[i], 2 * ((C.gradings[i] - grading) // 2 - C.f1[i]))
             for i in indices]
    return lines, reps[0], boundaries


def _forest_upsilon(lines, base, boundaries) -> PLFunction:
    """The forest path of `tower_upsilon`: every column has <= 2 positions."""
    n = len(lines)  # the ground: a 1-entry column joins its position to it
    roots = gf2.components(n + 1, (col if len(col) == 2 else (col[0], n) for col in boundaries))
    odd = set()
    for k in base:
        odd ^= {roots[k]}
    odd.discard(roots[n])
    members = {root: [] for root in odd}
    for root, line in zip(roots, lines):
        if root in odd:
            members[root].append(line)
    hulls = deque(map(_upper_envelope, members.values()))
    while len(hulls) > 1:  # pairwise, so each piece is merged O(log m) times
        hulls.append(_lower_envelope(hulls.popleft(), hulls.popleft()))
    return PLFunction.from_pieces((Fraction(*t), line) for t, line in hulls[0])


def _upper_envelope(lines) -> list:
    """Pieces (start, line) of the largest of integer lines on [0, 2], each
    start an integer pair (num, den) with den > 0."""
    hull = []  # the envelope on the whole real line, slopes increasing
    for s, b in sorted(lines):
        while hull and hull[-1][0] == s:  # the same slope, a lower intercept
            hull.pop()
        # the top line is hidden once the new line meets the one below it
        # no later than the top line does
        while len(hull) > 1 and ((hull[-2][1] - b) * (hull[-1][0] - hull[-2][0])
                                 <= (hull[-2][1] - hull[-1][1]) * (s - hull[-2][0])):
            hull.pop()
        hull.append((s, b))
    pieces = [((0, 1), hull[0])]
    for (s0, b0), line in zip(hull, hull[1:]):
        num, den = b0 - line[1], line[0] - s0  # where `line` takes over
        if num >= 2 * den:
            break
        if num <= 0:  # `line` is already on top at 0
            pieces = [((0, 1), line)]
        else:
            pieces.append(((num, den), line))
    return pieces


def _lower_envelope(f, g) -> list:
    """Pieces of the smaller of two functions given by such pieces."""
    out, i, j, a = [], 0, 0, (0, 1)
    while True:
        (s1, c1), (s2, c2) = f[i][1], g[j][1]
        nf = f[i + 1][0] if i + 1 < len(f) else (2, 1)
        ng = g[j + 1][0] if j + 1 < len(g) else (2, 1)
        order = nf[0] * ng[1] - ng[0] * nf[1]  # the sign of nf - ng
        b = nf if order <= 0 else ng
        ds, dc = s1 - s2, c1 - c2
        da, db = ds * a[0] + dc * a[1], ds * b[0] + dc * b[1]  # signs of f - g at a, b
        low, high = ((f[i][1], g[j][1]) if da < 0 or (da == 0 and db <= 0)
                     else (g[j][1], f[i][1]))
        pieces = [(a, low)]
        if da * db < 0:  # they cross inside (a, b)
            pieces.append(((-dc, ds) if ds > 0 else (dc, -ds), high))
        for t, line in pieces:
            if not out or out[-1][1] != line:
                out.append((t, line))
        if i + 1 == len(f) and j + 1 == len(g):
            return out
        i, j, a = i + (order <= 0), j + (order >= 0), b


def _sweep_upsilon(lines, base, boundaries) -> PLFunction:
    """The elimination path of `tower_upsilon`, taken when a boundary column
    has three or more positions (it holds on any tower): a sweep over t.

    At a stop t, order the coordinates so that the lowest value takes the
    highest position, ties broken by slope (the order just after t), and
    reduce the boundary columns and then the base cycle with
    `gf2.reduce_columns`, pivoting on the highest position.  The base is
    independent of the boundaries (its class is not zero), so its residual
    r takes the last row.  The row's combination, less the base's index,
    names the boundary columns r added: r = base + d(w), w the sum of the
    generators of those columns (the w of a certificate).  The leading
    position `lead` of r has line L; two witnesses show Upsilon = L after t:

    - primal: r is in the class and every line of its support is >= L, so
      Upsilon >= L;
    - dual: the functional phi, found by back-substitution over the
      boundary rows whose pivot is above `lead`, is zero on every boundary
      row (rows pivoting below `lead` hold no position >= `lead`) and one on
      the base (every position of r is <= `lead`), and its support lies in
      the positions >= `lead`.  Every cycle of the class meets that
      support, whose lines are <= L, so Upsilon <= L.

    Both hold until a line of supp r or supp phi crosses L, so the next stop
    is the first such crossing after t.  New witnesses may keep L, so stops
    can outnumber pieces (K#-K, K = T(20,21): 46 stops, one piece).  A line
    of supp r with a larger slope than L, or of supp phi with a smaller
    one, meets L at or before t, so no direction filter is needed.
    """
    n = len(lines)
    pieces = []
    p, q = 0, 1  # the sweep position t = p / q
    while True:
        # ascending value at t, then ascending slope: the j-th takes position n-1-j
        order = sorted(range(n), key=lambda k: (lines[k][0] * p + lines[k][1] * q,
                                                 lines[k][0]))
        pos = [0] * n
        for j, k in enumerate(order):
            pos[k] = n - 1 - j
        _, rows = gf2.reduce_columns(map(pos.__getitem__, vec) for vec in (*boundaries, base))
        lead, (r, _) = rows.popitem()  # the base's row, the last one stored
        slope, icpt = lines[order[n - 1 - lead]]
        pieces.append((Fraction(p, q), (slope, icpt)))  # PLFunction merges repeats
        dual = {lead}
        for top in sorted(rows):
            if top > lead and len(rows[top][0] & dual) & 1:
                dual.add(top)
        # the first crossing xn / xd > t of L by a watched line, with xd >= 0 (a
        # parallel line has xd = 0 and never passes); t = 2 ends the sweep
        num, den = 2, 1
        for j in r | dual:
            s, b = lines[order[n - 1 - j]]
            xn, xd = (b - icpt, slope - s) if s < slope else (icpt - b, s - slope)
            if xn * q > p * xd and xn * den < num * xd:
                num, den = xn, xd
        if num == 2 * den:
            return PLFunction.from_pieces(pieces)
        p, q = num, den


def upsilon_pair_from_cone(cone: BifilteredComplex):
    """(upper, lower) Upsilon functions of an involutive cone complex."""
    return tower_upsilon(cone, 0), tower_upsilon(cone, 1)


def involutive_cone(C_knot: BifilteredComplex, involution: ChainMap | None = None,
                    *, reduce_cone: bool = True,
                    strip: bool = False) -> BifilteredComplex:
    """Fold once, cone off (involution + identity), and optionally reduce.
    The reduced cone comes from `reduction.reduced_cone`, which builds the
    whole cone only when the involution is not a matching or the complex
    has an arrow within one bidegree.  The one gate on involutions: ValueError unless the given or derived one
    is a skew-filtered chain map of C_knot (checked once per map, through
    `ChainMap.skew_violations`).  Folding keeps indices, so the
    involution's `images` serve unchanged."""
    if involution is None:
        involution = staircase_involution(C_knot)
    elif involution.source != C_knot or involution.target != C_knot:
        raise ValueError("involution must be a self map of the knot complex")
    F = fold(C_knot)
    if involution.skew_violations:
        raise ValueError("involution is not a skew-filtered chain map: "
                         + "; ".join(involution.skew_violations))
    I = ChainMap.indexed(F, F, involution.images)
    cone = reduced_cone(F, I) if reduce_cone else mapping_cone(F, I)
    if strip:
        cone = strip_acyclic(cone)
    return cone


def upsilon(C_knot: BifilteredComplex, which: UpsilonVariant,
            involution: ChainMap | None = None, *, strip: bool = False) -> PLFunction:
    """One of the four Upsilon functions of an unfolded knot complex.

    UPPER and LOWER need an involution; it is derived automatically for
    symmetric staircase complexes and must be supplied otherwise.  `strip`
    drops the cone's acyclic components, so it affects UPPER and LOWER only.
    """
    if C_knot.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError("upsilon expects the unfolded (ALG_ALEX) knot complex")
    which = UpsilonVariant(which)
    if which is UpsilonVariant.CLASSIC:
        return tower_upsilon(C_knot, 0)
    if which is UpsilonVariant.FOLDED:
        return tower_upsilon(fold(C_knot), 0)
    cone = involutive_cone(C_knot, involution, strip=strip)
    return tower_upsilon(cone, 0 if which is UpsilonVariant.UPPER else 1)


def v0_invariants(C_knot: BifilteredComplex,
                  involution: ChainMap | None = None):
    """(upper V0, lower V0) = -1/2 of the respective Upsilon at t = 2.

    Integral: at t = 2 every sweep line is 2 * (u - f2), an even integer."""
    upper, lower = upsilon_pair_from_cone(involutive_cone(C_knot, involution))
    return -upper(Fraction(2)) / 2, -lower(Fraction(2)) / 2


def filtration_width(C: BifilteredComplex) -> int:
    """Largest |f1 - f2| over the generators (Max - Min once folded)."""
    return max((abs(a - b) for a, b in zip(C.f1, C.f2)), default=0)


def slope_bound_check(f: PLFunction, C_knot: BifilteredComplex) -> bool:
    """True iff every segment slope of f is at most the filtration width."""
    w = filtration_width(C_knot)
    return all(abs(s) <= w for s in f.slopes())
