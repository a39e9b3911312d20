"""Independent oracles used to compute expected values.

These deliberately avoid the production algorithms: homology by exhaustive
subset enumeration, nu by direct minimisation over the whole representative
coset at fixed t, nu on a padded window by its own elimination at fixed t,
torus-knot steps from the semigroup gap description of the Alexander
polynomial, classic Upsilon of L-space knots from the corners of the
staircase, the closed form of classic Upsilon for T(p, p+1), the
complex file text from the standard library's `json.dumps`,
connected components by breadth-first search, and chain-map violations
from id pairs with multiplicities counted.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations


def window_setup(C, grading):
    """Translates (u, id) of grading `grading`, and their positions.

    U^u g has grading gr(g) - 2u, so g contributes exactly when gr(g) and
    the grading have the same parity.
    """
    win = [((g.grading - grading) // 2, g.id) for g in C.generators
           if (g.grading - grading) % 2 == 0]
    pos = {term: i for i, term in enumerate(win)}
    return win, pos


def boundary_ids(C):
    """The boundary of each generator id, read from the (x, y) id pairs."""
    out = {g.id: set() for g in C.generators}
    for x, y in C.arrows:
        out[x].add(y)
    return out


def bfs_components(n, pairs):
    """The positions 0..n-1 joined by the pairs, as a set of frozensets,
    found by breadth-first search."""
    neighbours = [set() for _ in range(n)]
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, out = set(), set()
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in neighbours[v] - seen:
                seen.add(w)
                queue.append(w)
        out.add(frozenset(comp))
    return out


def _column(targets, term, pos):
    u, gid = term
    m = 0
    for t in targets[gid]:
        m |= 1 << pos[(u, t)]
    return m


def brute_homology(C, grading, max_dim=14):
    """Cycle set, boundary set and rank by full enumeration (tiny windows)."""
    win, pos = window_setup(C, grading)
    n = len(win)
    assert n <= max_dim, f"window of size {n} too large for the brute oracle"
    win_down, pos_down = window_setup(C, grading - 1)
    win_up, _ = window_setup(C, grading + 1)
    targets = boundary_ids(C)
    down_cols = [_column(targets, term, pos_down) for term in win]
    up_cols = [_column(targets, term, pos) for term in win_up]

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
                g = C.generators[C.index[gid]]
                val = Fraction(t, 2) * (g.f2 - u) + (1 - Fraction(t, 2)) * (g.f1 - u)
                worst = val if worst is None else max(worst, val)
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def _level(g, u, t):
    """deg_t of the U^u translate of g."""
    return Fraction(t, 2) * (g.f2 - u) + (1 - Fraction(t, 2)) * (g.f1 - u)


def _residual(v, pivots):
    while v and v.bit_length() - 1 in pivots:
        v ^= pivots[v.bit_length() - 1]
    return v


def padded_window(C, grading, pad=1):
    """(coords, base, boundaries) of the rank-1 tower with a padded window.

    The boundary sources are the translates in gradings grading + 1 + 2j for
    |j| <= pad, not only grading + 1; coords lists the grading window first,
    then every translate those boundaries reach.  base is a cycle of the
    grading window that is not a boundary; all three are in coords' bits.
    """
    win, index = window_setup(C, grading)
    coords = list(win)
    targets = boundary_ids(C)

    def column(term):
        u, gid = term
        m = 0
        for tgt in targets[gid]:
            if (u, tgt) not in index:
                index[(u, tgt)] = len(coords)
                coords.append((u, tgt))
            m |= 1 << index[(u, tgt)]
        return m

    boundaries = [column(term) for j in range(-pad, pad + 1)
                  for term in window_setup(C, grading + 1 + 2 * j)[0]]
    pivots = {}
    for b in boundaries:
        r = _residual(b, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
    _, pos_down = window_setup(C, grading - 1)
    down, cycles = {}, []
    for i, term in enumerate(win):
        v, combo = _column(targets, term, pos_down), 1 << i
        while v and v.bit_length() - 1 in down:
            dv, dc = down[v.bit_length() - 1]
            v, combo = v ^ dv, combo ^ dc
        if v:
            down[v.bit_length() - 1] = (v, combo)
        else:
            cycles.append(combo)
    classes = []
    for z in cycles:
        r = _residual(z, pivots)
        if r:
            pivots[r.bit_length() - 1] = r
            classes.append(z)
    assert len(classes) == 1, f"homology rank {len(classes)} in grading {grading}"
    return coords, classes[0], boundaries


def padded_nu_value(C, window, t):
    """Least max deg_t over the coset of a padded_window, at a fixed t.

    With the coordinates renumbered in ascending deg_t, reducing the base
    against the boundaries, pivoting on the highest bit, leaves the coset
    element whose highest coordinate is lowest.
    """
    coords, base, boundaries = window
    levels = [_level(C.generators[C.index[gid]], u, t) for u, gid in coords]
    order = sorted(range(len(coords)), key=levels.__getitem__)
    rank = {c: k for k, c in enumerate(order)}

    def renumber(mask):
        return sum(1 << rank[i] for i in range(mask.bit_length()) if mask >> i & 1)

    pivots = {}
    for b in boundaries:
        r = _residual(renumber(b), pivots)
        if r:
            pivots[r.bit_length() - 1] = r
    lead = _residual(renumber(base), pivots).bit_length() - 1
    return levels[order[lead]]


def window_grid(C, coords):
    """0, 2, every crossing in (0, 2) of two coordinates' deg_t lines, and
    the midpoints between consecutive ones: a PL function whose breakpoints
    are such crossings is pinned down by its values there."""
    lines = set()
    for u, gid in coords:  # deg_t = (f1 - u) + (t / 2) * (f2 - f1)
        g = C.generators[C.index[gid]]
        lines.add((g.f2 - g.f1, g.f1 - u))
    cuts = {Fraction(0), Fraction(2)}
    for (s1, b1), (s2, b2) in combinations(lines, 2):
        if s1 != s2:
            cuts.add(Fraction(2 * (b2 - b1), s1 - s2))
    cuts = sorted(t for t in cuts if 0 <= t <= 2)
    return cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]


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


def torus_p_p1_value(p, t):
    """Classic Upsilon at t of the torus knot T(p, p+1), in closed form.

    Ozsvath-Stipsicz-Szabo (arXiv 1407.1795): on [2i/p, 2(i+1)/p] it is
    -i(i+1) - p(p-1-2i) t/2.  The slopes grow with i, so it is convex.
    """
    t = Fraction(t)
    i = min(int(t * p / 2), p - 1)  # the piece holding t; t = 2 is in the last
    return -i * (i + 1) - Fraction(p * (p - 1 - 2 * i), 2) * t


def json_dump(C, involution=None):
    """The complex file text by `json.dumps(indent=2)` plus a newline: the
    dict lists generators in generator order and arrows by the positions
    of their (from, to) ids."""
    pos = {g.id: i for i, g in enumerate(C.generators)}

    def edges(pairs):
        return [{"from": x, "to": y}
                for x, y in sorted(pairs, key=lambda a: (pos[a[0]], pos[a[1]]))]

    d = {"mode": C.mode.value,
         "generators": [{"id": g.id, "gr": g.grading, "f1": g.f1, "f2": g.f2}
                        for g in C.generators],
         "differential": edges(C.arrows)}
    if involution is not None:
        d["involution"] = edges(involution)
    return json.dumps(d, indent=2) + "\n"


def chain_map_messages(M, skew=False):
    """The violations `chain_map_violations` reports, read off id pairs:
    grading and bidegree problems of each arrow (x, y) of M in (x, y)
    order, then each generator whose images under dM and Md differ, each
    image counted with multiplicity and taken mod 2, in generator order."""
    src = {g.id: g for g in M.source.generators}
    tgt = {g.id: g for g in M.target.generators}
    out, kind = [], "skew-filtered" if skew else "filtered"
    for x, y in sorted(M.arrows):
        gx, gy = src[x], tgt[y]
        if gy.grading != gx.grading:
            out.append(f"{x}->{y}: grading {gx.grading} -> {gy.grading} not preserved")
        bound = (gx.f2, gx.f1) if skew else (gx.f1, gx.f2)
        if gy.f1 > bound[0] or gy.f2 > bound[1]:
            out.append(f"{x}->{y}: bidegree {(gy.f1, gy.f2)} exceeds {bound}, not {kind}")
    image = {x: [] for x in src}
    for x, y in M.arrows:
        image[x].append(y)
    d_src, d_tgt = boundary_ids(M.source), boundary_ids(M.target)
    for g in M.source.generators:
        left = Counter(c for t in d_src[g.id] for c in image[t])
        right = Counter(c for y in image[g.id] for c in d_tgt[y])
        if {c for c, k in left.items() if k % 2} != {c for c, k in right.items() if k % 2}:
            out.append(f"{g.id}: does not commute with the differential")
    return out
