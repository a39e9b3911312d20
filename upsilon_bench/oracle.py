"""Independent checks for the benchmark's outputs.

Nothing here imports the package under test.  The oracle builds its own
complexes from a knot's step list (staircase, fold, involutive cone), does
its own F2 linear algebra on integer bitmasks, and compares the program's
answers against:

* the Ozsvath-Stipsicz-Szabo formula for L-space knots, classic
  Upsilon = -2 * min over grading-0 corners of deg_t, as a whole PL function
  (mirrors by Upsilon(-K) = -Upsilon(K));
* the explicit T(p, p+1) formula -i(i+1) - p(p-1-2i) t/2 on [2i/p, 2(i+1)/p];
* a fixed-t minimisation of deg_t over the whole representative coset at
  every breakpoint and every piece midpoint: by enumerating the coset when
  its dimension is at most ENUMERATION_MAX_DIM, otherwise by eliminating in
  deg_t order (the lowest achievable leading coordinate);
* the properties lower <= folded <= upper, V0 integrality and V0 = -Upsilon(2)/2,
  the slope bound and classic Upsilon(t) = Upsilon(2 - t);
* structural checks of a reduced cone (d^2 = 0, grading drop, filtered,
  reduced, homology ranks equal to those of the unreduced cone);
* CSV text parsed back against a PL function.

PL functions are tuples of (t, value) Fraction pairs on [0, 2] with the
interior collinear points removed, which is a canonical form.

Every check raises CheckFailure with a message on the first wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ENUMERATION_MAX_DIM = 12
TWO = Fraction(2)


class CheckFailure(AssertionError):
    """An output of the program disagrees with an oracle or a property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- complexes as plain data ------------------------------------------------

@dataclass(frozen=True)
class Cx:
    """Generators as (grading, f1, f2) triples; arrows (i, j): j in d(i)."""

    gens: tuple
    arrows: frozenset

    def targets(self) -> list:
        out = [[] for _ in self.gens]
        for i, j in self.arrows:
            out[i].append(j)
        return out


def staircase(steps, sign: int = 1) -> Cx:
    """Staircase of a step list: corners in grading 0, connectors in grading 1.

    The walk starts at (0, sum of the even-position steps) and moves right
    on odd positions, down on even ones.  A negative sign mirrors it:
    gradings and levels negated, arrows reversed.
    """
    f1, f2 = 0, sum(steps[1::2])
    pts = [(f1, f2)]
    for i, a in enumerate(steps):
        if i % 2 == 0:
            f1 += a
        else:
            f2 -= a
        pts.append((f1, f2))
    gens = tuple((i % 2, x, y) for i, (x, y) in enumerate(pts))
    arrows = set()
    for i in range(1, len(pts), 2):
        arrows.add((i, i - 1))
        if i + 1 < len(pts):
            arrows.add((i, i + 1))
    if sign < 0:
        gens = tuple((-g, -x, -y) for g, x, y in gens)
        arrows = {(j, i) for i, j in arrows}
    return Cx(gens, frozenset(arrows))


def box(grading: int, level: int) -> Cx:
    """An acyclic square a -> b + c, b -> d, c -> d, symmetric under the swap.

    a sits at (level, level), b at (level-1, level), c at (level, level-1),
    d at (level-1, level-1); the involution fixes a and d and swaps b, c.
    """
    x = level
    gens = ((grading, x, x), (grading - 1, x - 1, x), (grading - 1, x, x - 1),
            (grading - 2, x - 1, x - 1))
    return Cx(gens, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))


BOX_INVOLUTION = (0, 2, 1, 3)


def knot_complex(steps, sign: int, boxes=()) -> tuple:
    """(complex, involution as an index permutation) of staircase (+) boxes.

    The staircase involution is the reflection i -> n-1-i.
    """
    C = staircase(steps, sign)
    n = len(C.gens)
    gens = list(C.gens)
    arrows = set(C.arrows)
    inv = [n - 1 - i for i in range(n)]
    for grading, level in boxes:
        B = box(grading, level)
        off = len(gens)
        gens += B.gens
        arrows |= {(off + i, off + j) for i, j in B.arrows}
        inv += [off + k for k in BOX_INVOLUTION]
    return Cx(tuple(gens), frozenset(arrows)), tuple(inv)


def fold(C: Cx) -> Cx:
    return Cx(tuple((g, min(a, b), max(a, b)) for g, a, b in C.gens), C.arrows)


def cone(C: Cx, inv) -> Cx:
    """Cone of (involution + identity) on the folded complex.

    Generator i of the A copy (grading + 1) is index i, of the B copy n + i.
    """
    F = fold(C)
    n = len(F.gens)
    gens = tuple((g + 1, a, b) for g, a, b in F.gens) + F.gens
    arrows = set()
    for i, j in F.arrows:
        arrows.add((i, j))
        arrows.add((n + i, n + j))
    for i in range(n):
        if inv[i] != i:
            arrows.add((i, n + inv[i]))
            arrows.add((i, n + i))
    return Cx(gens, frozenset(arrows))


def torus_steps(p: int, q: int) -> tuple:
    """T(p, q) steps from the gaps of the semigroup generated by p and q."""
    top = (p - 1) * (q - 1)
    semigroup = {i * p + j * q for i in range(top // p + 1) for j in range(top // q + 1)}
    coeffs = {0: 1}
    for g in range(1, top + 1):
        if g not in semigroup:
            coeffs[g + 1] = coeffs.get(g + 1, 0) + 1
            coeffs[g] = coeffs.get(g, 0) - 1
    exps = sorted((e for e, c in coeffs.items() if c), reverse=True)
    return tuple(exps[i] - exps[i + 1] for i in range(len(exps) - 1))


# -- F2 linear algebra --------------------------------------------------------

def _reduce(pivots: dict, v: int) -> int:
    while v:
        row = pivots.get(v.bit_length() - 1)
        if row is None:
            return v
        v ^= row
    return 0


def echelon(vectors) -> dict:
    """Pivot rows keyed by their highest set bit."""
    pivots: dict = {}
    for v in vectors:
        r = _reduce(pivots, v)
        if r:
            pivots[r.bit_length() - 1] = r
    return pivots


def rank(vectors) -> int:
    return len(echelon(vectors))


def kernel(columns) -> list:
    """Kernel of coordinate i -> columns[i], as masks over the column indices."""
    pivots: dict = {}
    out = []
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
            out.append(combo)
    return out


# -- towers and levels --------------------------------------------------------

def window(C: Cx, grading: int) -> list:
    """The U-translates (k, i) of generators sitting in the given grading."""
    return [((g - grading) // 2, i) for i, (g, _, _) in enumerate(C.gens)
            if (g - grading) % 2 == 0]


def _columns(C: Cx, targets, source: list, target_pos: dict) -> list:
    cols = []
    for k, i in source:
        m = 0
        for j in targets[i]:
            m ^= 1 << target_pos[(k, j)]
        cols.append(m)
    return cols


def homology_rank(C: Cx, grading: int) -> int:
    targets = C.targets()
    win = window(C, grading)
    down = {term: i for i, term in enumerate(window(C, grading - 1))}
    here = {term: i for i, term in enumerate(win)}
    cycles = len(kernel(_columns(C, targets, win, down)))
    return cycles - rank(_columns(C, targets, window(C, grading + 1), here))


@dataclass(frozen=True)
class Tower:
    """The rank-1 class in one grading: window, a base cycle, boundary basis."""

    C: Cx
    win: tuple
    base: int
    boundaries: tuple

    @property
    def coset_dim(self) -> int:
        return len(self.boundaries)


def tower(C: Cx, grading: int) -> Tower:
    targets = C.targets()
    win = window(C, grading)
    here = {term: i for i, term in enumerate(win)}
    down = {term: i for i, term in enumerate(window(C, grading - 1))}
    cycles = kernel(_columns(C, targets, win, down))
    bpiv = echelon(_columns(C, targets, window(C, grading + 1), here))
    reps = []
    piv = dict(bpiv)
    for z in cycles:
        r = _reduce(piv, z)
        if r:
            piv[r.bit_length() - 1] = r
            reps.append(z)
    _require(len(reps) == 1, f"homology rank {len(reps)} in grading {grading}, expected 1")
    return Tower(C, tuple(win), reps[0], tuple(bpiv.values()))


def _scaled_degrees(T: Tower, t: Fraction) -> tuple:
    """deg_t of each window coordinate times 2q for t = p/q, as integers, and 2q."""
    p, q = t.numerator, t.denominator
    gens = T.C.gens
    return [p * (gens[i][2] - k) + (2 * q - p) * (gens[i][1] - k) for k, i in T.win], 2 * q


def _permute(mask: int, new_pos: list) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << new_pos[low.bit_length() - 1]
        mask ^= low
    return out


def level_by_enumeration(T: Tower, t) -> Fraction:
    """min over the representative coset of max deg_t, by visiting every element."""
    degs, scale = _scaled_degrees(T, Fraction(t))
    best = None
    cur = T.base
    for i in range(1 << T.coset_dim):
        if i:
            cur ^= T.boundaries[(i & -i).bit_length() - 1]
        worst = max(degs[b] for b in range(cur.bit_length()) if cur >> b & 1)
        if best is None or worst < best:
            best = worst
    return Fraction(best, scale)


def level_by_elimination(T: Tower, t) -> Fraction:
    """The same minimum, from the lowest leading coordinate in deg_t order.

    With coordinates ordered by deg_t, reducing the base cycle fully against
    an echelon basis of the boundaries leaves the element of the coset whose
    highest coordinate is lowest, and its deg_t is the minimum of max deg_t.
    """
    degs, scale = _scaled_degrees(T, Fraction(t))
    order = sorted(range(len(degs)), key=degs.__getitem__)
    new_pos = [0] * len(degs)
    for rank_, old in enumerate(order):
        new_pos[old] = rank_
    pivots = echelon(_permute(b, new_pos) for b in T.boundaries)
    r = _reduce(pivots, _permute(T.base, new_pos))
    return Fraction(degs[order[r.bit_length() - 1]], scale)


def barcode(C: Cx, grading: int, t) -> list:
    """Finite bars (birth, death) of the deg_t filtration from grading+1 into grading.

    Standard persistence: boundary columns in deg_t order, each reduced by
    the earlier columns with the same lowest (latest-born) coordinate.  Bars
    of length zero are dropped, so the result is a homotopy invariant of the
    bifiltered complex.  Values are deg_t scaled by 2q for t = p/q.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator

    def deg(term):
        k, i = term
        return p * (C.gens[i][2] - k) + (2 * q - p) * (C.gens[i][1] - k)

    targets = C.targets()
    here = sorted(window(C, grading), key=deg)
    pos = {term: i for i, term in enumerate(here)}
    up = sorted(window(C, grading + 1), key=deg)
    pivots: dict = {}
    bars = []
    for term, col in zip(up, _columns(C, targets, up, pos)):
        col = _reduce(pivots, col)
        if col:
            low = col.bit_length() - 1
            pivots[low] = col
            birth, death = deg(here[low]), deg(term)
            if death > birth:
                bars.append((birth, death))
    return sorted(bars)


def level(T: Tower, t) -> Fraction:
    if T.coset_dim <= ENUMERATION_MAX_DIM:
        return level_by_enumeration(T, t)
    return level_by_elimination(T, t)


# -- PL functions -----------------------------------------------------------

def normalise(points) -> tuple:
    """Canonical breakpoints: Fractions, interior collinear points dropped."""
    pts = [(Fraction(t), Fraction(v)) for t, v in points]
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        (t0, v0), (t1, v1), (t2, v2) = out[-1], pts[i], pts[i + 1]
        if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
            out.append(pts[i])
    out.append(pts[-1])
    return tuple(out)


def evaluate(f, t) -> Fraction:
    t = Fraction(t)
    for (t0, v0), (t1, v1) in zip(f, f[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise CheckFailure(f"t={t} outside the breakpoints {f}")


def slopes(f) -> list:
    return [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(f, f[1:])]


def upper_envelope(lines) -> tuple:
    """max of lines v = intercept + slope * t over [0, 2], exactly."""
    lines = sorted(set(lines))
    ts = {Fraction(0), TWO}
    for a, (s1, b1) in enumerate(lines):
        for s2, b2 in lines[a + 1:]:
            if s1 != s2:
                tx = Fraction(b2 - b1, s1 - s2)
                if 0 < tx < 2:
                    ts.add(tx)
    return normalise((t, max(b + s * t for s, b in lines)) for t in sorted(ts))


def oss_classic(steps, sign: int) -> tuple:
    """Classic Upsilon of an L-space staircase, -2 min over corners of deg_t.

    On a corner (alg, Alex) = (a, x), -2 deg_t = -2a - t (x - a).
    """
    C = staircase(steps, 1)
    f = upper_envelope((-(x - a), -2 * a) for g, a, x in C.gens if g == 0)
    return f if sign > 0 else tuple((t, -v) for t, v in f)


def torus_p_p1(p: int) -> tuple:
    """T(p, p+1): -i(i+1) - p(p-1-2i) t / 2 on [2i/p, 2(i+1)/p]."""
    pts = []
    for i in range(p):
        t = Fraction(2 * i, p)
        pts.append((t, -i * (i + 1) - p * (p - 1 - 2 * i) * t / 2))
    pts.append((TWO, -(p - 1) * p - p * (p - 1 - 2 * (p - 1)) * TWO / 2))
    return normalise(pts)


# -- checks -----------------------------------------------------------------

def check_equal(name: str, got, want) -> None:
    _require(tuple(got) == tuple(want), f"{name}: got {_show(got)}, expected {_show(want)}")


def check_coset_minimum(name: str, f, T: Tower) -> None:
    """f(t) = -2 * level at every breakpoint and every piece midpoint."""
    ts = [t for t, _ in f] + [(t0 + t1) / 2 for (t0, _), (t1, _) in zip(f, f[1:])]
    for t in ts:
        want = -2 * level(T, t)
        got = evaluate(f, t)
        _require(got == want, f"{name}: value {got} at t={t}, coset minimum gives {want}")


def check_properties(name: str, funcs: dict, width: int, v0=None) -> None:
    """Ordering, V0, slope bound and classic symmetry on whichever are present."""
    if {"lower", "folded", "upper"} <= funcs.keys():
        lo, mid, up = funcs["lower"], funcs["folded"], funcs["upper"]
        for t in sorted({t for f in (lo, mid, up) for t, _ in f}):
            _require(evaluate(lo, t) <= evaluate(mid, t) <= evaluate(up, t),
                     f"{name}: lower <= folded <= upper fails at t={t}")
    if {"upper", "lower"} <= funcs.keys():
        want = (-evaluate(funcs["upper"], TWO) / 2, -evaluate(funcs["lower"], TWO) / 2)
        for v in want:
            _require(v.denominator == 1, f"{name}: V0 = {v} is not an integer")
        if v0 is not None:
            _require(tuple(v0) == want, f"{name}: V0 {v0}, expected {want}")
    for which, f in funcs.items():
        for s in slopes(f):
            _require(abs(s) <= width, f"{name}: {which} slope {s} exceeds the width {width}")
    if "classic" in funcs:
        f = funcs["classic"]
        for t in sorted({t for t, _ in f} | {2 - t for t, _ in f}):
            _require(evaluate(f, t) == evaluate(f, 2 - t),
                     f"{name}: classic Upsilon is not symmetric at t={t}")


REDUCED_CONE_TS = tuple(Fraction(j, 4) for j in range(9))


def check_reduced_cone(name: str, doc: dict, unreduced: Cx) -> None:
    """A dumped reduced cone: well formed, reduced, homology of the original.

    Homology ranks alone miss a dropped arrow that splits a staircase (the
    boundary map stays injective), so the tower levels and the finite bars
    of the deg_t filtration in gradings 0 and 1 are compared too, at
    t = 0, 1/4, ..., 2.
    """
    _require(doc.get("mode") == "MIN_MAX", f"{name}: mode {doc.get('mode')!r}")
    index = {}
    gens = []
    for g in doc["generators"]:
        index[g["id"]] = len(gens)
        gens.append((g["gr"], g["f1"], g["f2"]))
    arrows = frozenset((index[e["from"]], index[e["to"]]) for e in doc["differential"])
    C = Cx(tuple(gens), arrows)
    targets = C.targets()
    for i, j in arrows:
        (gi, ai, bi), (gj, aj, bj) = gens[i], gens[j]
        _require(gj == gi - 1, f"{name}: arrow {i}->{j} does not drop the grading by 1")
        _require(aj <= ai and bj <= bi, f"{name}: arrow {i}->{j} is not filtered")
        _require((ai, bi) != (aj, bj), f"{name}: arrow {i}->{j} joins equal bidegrees")
    for i in range(len(gens)):
        acc = set()
        for j in targets[i]:
            acc ^= set(targets[j])
        _require(not acc, f"{name}: d^2 is not zero on generator {i}")
    for grading in (0, 1):
        got, want = homology_rank(C, grading), homology_rank(unreduced, grading)
        _require(got == want, f"{name}: homology rank {got} in grading {grading}, "
                              f"the unreduced cone has {want}")
        if want == 1:
            mine, theirs = tower(C, grading), tower(unreduced, grading)
        for t in REDUCED_CONE_TS:
            if want == 1:
                got, want_level = level_by_elimination(mine, t), level_by_elimination(theirs, t)
                _require(got == want_level, f"{name}: grading-{grading} tower level {got} "
                                            f"at t={t}, the unreduced cone has {want_level}")
            _require(barcode(C, grading, t) == barcode(unreduced, grading, t),
                     f"{name}: deg_t bars from grading {grading + 1} differ at t={t}")


def parse_csv(text: str) -> tuple:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "t,value", f"bad CSV header {lines[:1]}")
    pts = []
    for row in lines[1:]:
        t, v = row.split(",")
        pts.append((Fraction(t), Fraction(v)))
    return tuple(pts)


def parse_v0_csv(text: str) -> tuple:
    lines = text.splitlines()
    _require(lines[:1] == ["name,value"] and len(lines) == 3
             and lines[1].startswith("upper_v0,") and lines[2].startswith("lower_v0,"),
             f"bad V0 CSV {lines}")
    return tuple(Fraction(row.split(",")[1]) for row in lines[1:])


def check_csv(name: str, text: str, f) -> None:
    check_equal(name, parse_csv(text), f)


def _show(f) -> str:
    try:
        return "; ".join(f"({t},{v})" for t, v in f)
    except (TypeError, ValueError):
        return repr(f)
