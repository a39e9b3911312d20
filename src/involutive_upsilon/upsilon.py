"""deg_t, tower classes, and the exact Upsilon invariants.

For t in [0, 2] the interpolated filtration degree of a translated
generator is deg_t = (t/2) * Max + (1 - t/2) * Min, dropping by 1 per
U power.  The level of a homology class is the minimum of deg_t over its
cycle representatives; Upsilon is -2 times that level, computed exactly
as a piecewise-linear function by a sweep over t that reduces the base
cycle in filtration order once per breakpoint.

Variants: CLASSIC applies the same weights verbatim to the (alg, Alex)
pair of an unfolded complex (t/2 on Alex); FOLDED uses the grading-0
tower of the folded complex; UPPER and LOWER use the grading-0 and
grading-1 towers of the involutive mapping cone.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import gf2
from .complexes import BifilteredComplex, FiltrationMode, homology_data
from .involutive import ChainMap, fold, fold_map, mapping_cone, staircase_involution
from .plfunction import PLFunction
from .reduction import reduce_bifiltered, strip_acyclic


class UpsilonVariant(Enum):
    CLASSIC = "classic"
    FOLDED = "folded"
    UPPER = "upper"
    LOWER = "lower"


def _upsilon_pieces(C: BifilteredComplex, grading: int):
    """Upsilon of the rank-1 tower class as a piece list, by a sweep over t.

    Each coordinate (a U-translate of a generator) carries the integer line
    -2 * (f1 - u) - t * (f2 - f1).  At a fixed t, order the coordinates so
    that the lowest value takes the highest bit; reducing the base cycle
    against the boundary basis, pivoting on the highest bit, leaves the
    coset element whose leading coordinate is lowest, and that leading
    line is the class's value.  Ties are broken by slope, which is the
    order just after t, so the same line stays the value until it crosses
    another coordinate's line: swaps between two lines on the same side of
    it change no coset element's leading coordinate.  Only coordinates in
    the support of the coset are ever looked at.
    """
    coords, reps, boundaries = homology_data(C, grading)
    if len(reps) != 1:
        raise ValueError(
            f"homology rank in grading {grading} is {len(reps)}, need exactly 1")
    base = reps[0]
    support = base
    for v in boundaries:
        support |= v
    used = [i for i in range(support.bit_length()) if support >> i & 1]
    local = {c: k for k, c in enumerate(used)}
    lines = []
    for c in used:
        u, gid = coords[c]
        g = C.by_id[gid]
        lines.append((-(g.f2 - g.f1), -2 * (g.f1 - u)))
    distinct = set(lines)

    def bits(mask):
        return [local[i] for i in range(mask.bit_length()) if mask >> i & 1]

    base_bits = bits(base)
    boundary_bits = [bits(v) for v in boundaries]
    n = len(used)
    pieces = []
    p, q = 0, 1  # the sweep position t = p / q
    while True:
        # ascending value at t, then ascending slope: position j takes bit n-1-j
        order = sorted(range(n), key=lambda k: (lines[k][0] * p + lines[k][1] * q,
                                                 lines[k][0]))
        bit = [0] * n
        for j, k in enumerate(order):
            bit[k] = n - 1 - j
        elim = gf2.Eliminator(sum(1 << bit[k] for k in vec) for vec in boundary_bits)
        lead = elim.residual(sum(1 << bit[k] for k in base_bits)).bit_length() - 1
        slope, icpt = lines[order[n - 1 - lead]]
        if not pieces or pieces[-1][1] != (slope, icpt):
            pieces.append((Fraction(p, q), (slope, icpt)))
        # the nearest crossing after t, as num / den; t = 2 ends the sweep
        num, den = 2, 1
        for s, b in distinct:
            if s == slope:
                continue
            xn, xd = b - icpt, slope - s
            if xd < 0:
                xn, xd = -xn, -xd
            if xn * q > p * xd and xn * den < num * xd:
                num, den = xn, xd
        if num == 2 * den:
            return pieces
        p, q = num, den


def nu_function(C: BifilteredComplex, grading: int) -> PLFunction:
    """Exact minimal deg_t level of the rank-1 tower class, as a PL function."""
    if C.mode is not FiltrationMode.MIN_MAX:
        raise ValueError("nu_function needs a folded (MIN_MAX) complex")
    pieces = _upsilon_pieces(C, grading)
    return PLFunction.from_pieces(pieces).scale(Fraction(-1, 2))


def upsilon_pair_from_cone(cone: BifilteredComplex):
    """(upper, lower) Upsilon functions of an involutive cone complex."""
    upper = PLFunction.from_pieces(_upsilon_pieces(cone, 0))
    lower = PLFunction.from_pieces(_upsilon_pieces(cone, 1))
    return upper, lower


def involutive_cone(C_knot: BifilteredComplex, involution: ChainMap | None = None,
                    *, reduce_cone: bool = True,
                    strip: bool = False) -> BifilteredComplex:
    """Fold, cone off (involution + identity), and optionally reduce."""
    if involution is None:
        involution = staircase_involution(C_knot)
    cone = mapping_cone(fold(C_knot), fold_map(involution))
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
        return PLFunction.from_pieces(_upsilon_pieces(C_knot, 0))
    if which is UpsilonVariant.FOLDED:
        return PLFunction.from_pieces(_upsilon_pieces(fold(C_knot), 0))
    cone = involutive_cone(C_knot, involution, strip=strip)
    return PLFunction.from_pieces(
        _upsilon_pieces(cone, 0 if which is UpsilonVariant.UPPER else 1))


def v0_invariants(C_knot: BifilteredComplex,
                  involution: ChainMap | None = None):
    """(upper V0, lower V0) = -1/2 of the respective Upsilon at t = 2."""
    cone = involutive_cone(C_knot, involution)
    upper, lower = upsilon_pair_from_cone(cone)
    v_up = -upper(Fraction(2)) / 2
    v_low = -lower(Fraction(2)) / 2
    for name, v in (("upper", v_up), ("lower", v_low)):
        if v.denominator != 1:
            raise ValueError(f"{name} V0 = {v} is not an integer")
    return v_up, v_low


def filtration_width(C: BifilteredComplex) -> int:
    """Largest |f1 - f2| over the generators (Max - Min once folded)."""
    return max((abs(g.f1 - g.f2) for g in C.generators), default=0)


def slope_bound_check(f: PLFunction, C_knot: BifilteredComplex) -> bool:
    """True iff every segment slope of f is at most the filtration width."""
    w = filtration_width(C_knot)
    return all(abs(s) <= w for s in f.slopes())
