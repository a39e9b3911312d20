"""deg_t, tower classes, and the exact Upsilon invariants.

For t in [0, 2] the interpolated filtration degree of a translated
generator is deg_t = (t/2) * Max + (1 - t/2) * Min, dropping by 1 per
U power.  The level of a homology class is the minimum of deg_t over its
cycle representatives; Upsilon is -2 times that level, computed exactly
as a piecewise-linear function by a sweep over t that reduces the base
cycle in filtration order once per breakpoint.  The sweep,
`tower_upsilon`, reads the complex's per-parity homology and finds the
pieces (t_start, (slope, intercept)) with integer lines, which `PLFunction`
stores as they are.

Variants: all four are `tower_upsilon` of one complex.  CLASSIC applies
the same weights verbatim to the (alg, Alex) pair of an unfolded complex
(t/2 on Alex); FOLDED uses the grading-0 tower of the folded complex;
UPPER and LOWER use the grading-0 and grading-1 towers of the involutive
mapping cone.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import gf2
from .complexes import BifilteredComplex, FiltrationMode
from .involutive import (ChainMap, chain_map_violations, fold, mapping_cone,
                         staircase_involution)
from .plfunction import PLFunction
from .reduction import reduce_bifiltered, strip_acyclic


class UpsilonVariant(Enum):
    CLASSIC = "classic"
    FOLDED = "folded"
    UPPER = "upper"
    LOWER = "lower"


def tower_upsilon(C: BifilteredComplex, grading: int) -> PLFunction:
    """Upsilon of the rank-1 tower class in a grading, by a sweep over t.

    Each coordinate (the translate U^u x living in the grading, for a
    generator x of the grading's parity) carries the integer line
    -2 * (f1 - u) - t * (f2 - f1), and Upsilon(t) is the largest, over the
    cycles z of the class, of the least line of z's support.  At a stop t,
    order the coordinates so that the lowest value takes the highest bit,
    ties broken by slope (the order just after t), and reduce the base
    cycle against the boundary basis, pivoting on the highest bit.  The
    residual r = base + (boundaries) has leading bit `lead` with line L, and
    two witnesses show Upsilon = L just after t:

    - primal: r is in the class and every line of its support is >= L, so
      Upsilon >= L;
    - dual: the functional phi, found by back-substitution over the rows
      whose pivot is above `lead`, is zero on every boundary row (rows
      pivoting below `lead` have no bit >= `lead`) and one on the base
      (every bit of r is <= `lead`), and its support lies in the bits
      >= `lead`.  Every cycle of the class meets that support, whose lines
      are <= L, so Upsilon <= L.

    Both hold until a line of supp r or supp phi crosses L, so the next stop
    is the first such crossing after t: the sweep stops once per piece.  A
    line of supp r with a larger slope than L, or of supp phi with a smaller
    one, meets L at or before t, so no direction filter is needed.  The
    boundaries arrive as position tuples and the base mask is read once, so
    the set-up is linear in the arrows.
    """
    indices, reps, boundaries = C.homology[grading % 2]
    if len(reps) != 1:
        raise ValueError(
            f"homology rank in grading {grading} is {len(reps)}, need exactly 1")
    base = [c for c, b in enumerate(reversed(bin(reps[0]))) if b == "1"]
    lines = [(C.f1[i] - C.f2[i], 2 * ((C.gradings[i] - grading) // 2 - C.f1[i]))
             for i in indices]
    n = len(lines)
    pieces = []
    p, q = 0, 1  # the sweep position t = p / q
    while True:
        # ascending value at t, then ascending slope: position j takes bit n-1-j
        order = sorted(range(n), key=lambda k: (lines[k][0] * p + lines[k][1] * q,
                                                 lines[k][0]))
        bit = [0] * n
        for j, k in enumerate(order):
            bit[k] = n - 1 - j
        elim = gf2.Eliminator(sum(1 << bit[k] for k in vec) for vec in boundaries)
        r = elim.residual(sum(1 << bit[k] for k in base))
        lead = r.bit_length() - 1
        slope, icpt = lines[order[n - 1 - lead]]
        pieces.append((Fraction(p, q), (slope, icpt)))  # PLFunction merges repeats
        dual = 1 << lead
        for top in sorted(elim.pivots):
            if top > lead and (elim.pivots[top] & dual).bit_count() & 1:
                dual |= 1 << top
        # the first crossing xn / xd > t of L by a watched line, with xd >= 0 (a
        # parallel line has xd = 0 and never passes); t = 2 ends the sweep
        num, den = 2, 1
        for j, w in enumerate(reversed(bin(r | dual))):
            if w == "1":
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
    The one gate on involutions: ValueError unless the given or derived one
    is a skew-filtered chain map of C_knot.  Folding keeps indices, so the
    involution's `images` serve unchanged."""
    if involution is None:
        involution = staircase_involution(C_knot)
    elif involution.source != C_knot or involution.target != C_knot:
        raise ValueError("involution must be a self map of the knot complex")
    F = fold(C_knot)
    problems = chain_map_violations(involution, skew=True)
    if problems:
        raise ValueError("involution is not a skew-filtered chain map: " + "; ".join(problems))
    cone = mapping_cone(F, ChainMap.indexed(F, F, involution.images))
    if reduce_cone:
        cone = reduce_bifiltered(cone).reduced
    if strip:
        cone = strip_acyclic(cone)
    return cone


def upsilon(C_knot: BifilteredComplex, which: UpsilonVariant,
            involution: ChainMap | None = None, *, strip: bool = False) -> PLFunction:
    """One of the four Upsilon functions of an unfolded knot complex.

    UPPER and LOWER need an involution; it is derived automatically for
    symmetric staircase complexes and must be supplied otherwise.
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
