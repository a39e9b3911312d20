"""Independent oracles used to compute expected values.

These deliberately avoid the production algorithms: homology by exhaustive
subset enumeration, nu by direct minimisation over the whole representative
coset at fixed t, envelopes by the candidate-midpoint scan, torus-knot
steps from the semigroup gap description of the Alexander polynomial, and
classic Upsilon of L-space knots from the corners of the staircase.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from involutive_upsilon.complexes import u_window


def window_setup(C, grading):
    win = u_window(C, grading)
    pos = {term: i for i, term in enumerate(win)}
    return win, pos


def _column(C, term, pos):
    u, gid = term
    m = 0
    for t in C.targets_of(gid):
        m |= 1 << pos[(u, t)]
    return m


def brute_homology(C, grading, max_dim=14):
    """Cycle set, boundary set and rank by full enumeration (tiny windows)."""
    win, pos = window_setup(C, grading)
    n = len(win)
    assert n <= max_dim, f"window of size {n} too large for the brute oracle"
    win_down, pos_down = window_setup(C, grading - 1)
    win_up, _ = window_setup(C, grading + 1)
    down_cols = [_column(C, term, pos_down) for term in win]
    up_cols = [_column(C, term, pos) for term in win_up]

    cycles = set()
    for mask in range(1 << n):
        img = 0
        for i in range(n):
            if mask >> i & 1:
                img ^= down_cols[i]
        if img == 0:
            cycles.add(mask)
    boundaries = set()
    m = len(up_cols)
    assert m <= max_dim
    for mask in range(1 << m):
        img = 0
        for i in range(m):
            if mask >> i & 1:
                img ^= up_cols[i]
        boundaries.add(img)
    rank = (len(cycles).bit_length() - 1) - (len(boundaries).bit_length() - 1)
    return win, cycles, boundaries, rank


def brute_nu_value(C, grading, t):
    """Direct minimisation of deg_t over every representative of the class."""
    win, cycles, boundaries, rank = brute_homology(C, grading)
    assert rank == 1
    base = next(z for z in sorted(cycles) if z not in boundaries)
    t = Fraction(t)
    best = None
    for b in boundaries:
        z = base ^ b
        worst = None
        for i in range(z.bit_length()):
            if z >> i & 1:
                u, gid = win[i]
                g = C.by_id[gid]
                val = Fraction(t, 2) * (g.f2 - u) + (1 - Fraction(t, 2)) * (g.f1 - u)
                worst = val if worst is None else max(worst, val)
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def envelope_by_midpoints(lines, upper=True):
    """Envelope of lines on [0, 2] via candidate crossings and midpoints.

    Returns the list of (t, value) breakpoints including both endpoints.
    """
    lines = sorted(set(lines))
    candidates = {Fraction(0), Fraction(2)}
    for (s1, b1), (s2, b2) in combinations(lines, 2):
        if s1 != s2:
            tx = Fraction(b2 - b1, s1 - s2)
            if 0 < tx < 2:
                candidates.add(tx)
    grid = sorted(candidates)

    def env(t):
        vals = [b + s * t for s, b in lines]
        return max(vals) if upper else min(vals)

    pts = [(grid[0], env(grid[0]))]
    for t0, t1 in zip(grid, grid[1:]):
        mid = (t0 + t1) / 2
        pts.append((mid, env(mid)))
        pts.append((t1, env(t1)))
    return pts


def semigroup_torus_steps(p, q):
    """Torus-knot staircase steps from the gap sequence of the semigroup.

    The Alexander polynomial is 1 + (t - 1) * sum of t^g over the gaps of
    the numerical semigroup generated by p and q; its exponent differences
    give the steps.
    """
    genus = (p - 1) * (q - 1) // 2
    top = 2 * genus
    semigroup = {i * p + j * q for i in range(top // p + 1)
                 for j in range(top // q + 1)}
    gaps = [n for n in range(1, top + 1) if n not in semigroup]
    coeffs = {0: 1}
    for g in gaps:
        coeffs[g + 1] = coeffs.get(g + 1, 0) + 1
        coeffs[g] = coeffs.get(g, 0) - 1
    exps = sorted((e for e, c in coeffs.items() if c), reverse=True)
    return tuple(exps[i] - exps[i + 1] for i in range(len(exps) - 1))


def lspace_corners(steps):
    """(alg, Alex) corners of the positive staircase with these steps.

    The walk starts at (0, sum of the down steps) and alternates a step
    right with a step down; a corner follows each down step.
    """
    assert len(steps) % 2 == 0
    alg, alex = 0, sum(steps[1::2])
    corners = [(alg, alex)]
    for right, down in zip(steps[::2], steps[1::2]):
        alg += right
        alex -= down
        corners.append((alg, alex))
    return corners


def oss_classic_value(steps, t):
    """Classic Upsilon at t of the L-space knot with this positive staircase.

    Ozsvath-Stipsicz-Szabo (arXiv 1407.1795): -2 times the least
    (t/2) * Alex + (1 - t/2) * alg over the corners.  As a function of t it
    is a maximum of lines, hence convex.
    """
    t = Fraction(t)
    return -2 * min(t / 2 * alex + (1 - t / 2) * alg
                    for alg, alex in lspace_corners(steps))
