"""Cross-check suites: the closed form, the generic reduction and the
unreduced cone must all tell the same story, and the structural properties
must hold on randomized inputs with a deterministic seed.

`CHECKS` is the one ordered list of (name, check) pairs.  The `verify` CLI
command runs it through `run_verify`, and the test suite runs each entry
as its own case.  A check takes the `VerifySettings` and returns a one-line
summary, or raises `CheckFailure` with the first counterexample; `run_verify`
reports any other exception a check raises as that check's failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .complexes import (BifilteredComplex, FiltrationMode, Generator,
                        direct_sum, dumps_complex, homology_rank, validate)
from .involutive import ChainMap, fold, staircase_involution
from .plfunction import PLFunction
from .reduction import (closed_form_cone_reduction, essential_signature,
                        generator_signature, is_reduced,
                        materialize_closed_form, reduce_bifiltered)
from .staircase import (Sign, StaircaseSpec, classify, mirror, Pointing,
                        staircase_from_steps, steps_from_torus_knot,
                        unknot_complex)
from .upsilon import (UpsilonVariant, _forest_upsilon, _sweep_upsilon, _tower,
                      filtration_width, involutive_cone, slope_bound_check,
                      upsilon, upsilon_pair_from_cone, v0_invariants)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifySettings:
    """Corpus size, grid and seed shared by every check (the CLI defaults)."""

    max_steps: int = 8
    grid_denominator: int = 12
    seed: int = 20260808


class CheckFailure(Exception):
    """A check found a counterexample; the message says which."""


def symmetric_specs(max_half_sum: int):
    """All symmetric step lists whose half sums to at most max_half_sum."""
    def compositions(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    for m in range(1, max_half_sum + 1):
        for half in compositions(m):
            yield half + half[::-1]


def torus_knot_corpus(max_pq: int = 35):
    out = []
    import math
    for p in range(2, max_pq):
        for q in range(p + 1, max_pq + 1):
            if p * q <= max_pq and math.gcd(p, q) == 1:
                out.append((p, q))
    return out


def corpus_knots(max_pq: int = 35):
    """(label, unfolded complex) pairs: torus knots, mirrors, extras, unknot."""
    knots = [("unknot", unknot_complex())]
    for p, q in torus_knot_corpus(max_pq):
        spec = steps_from_torus_knot(p, q)
        C = staircase_from_steps(spec)
        knots.append((f"T({p},{q})", C))
        knots.append((f"-T({p},{q})", mirror(C)))
    for steps in ((2, 2), (1, 3, 3, 1), (2, 1, 1, 2), (3, 3), (1, 2, 2, 1)):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            label = f"steps:{sign.value}:{','.join(map(str, steps))}"
            knots.append((label, staircase_from_steps(spec)))
    return knots


def _grid(denominator: int):
    return [Fraction(j, denominator) for j in range(2 * denominator + 1)]


def check_t37_goldens(s: VerifySettings) -> str:
    spec = steps_from_torus_knot(3, 7)
    if spec.steps != (1, 2, 1, 2, 2, 1, 2, 1):
        raise CheckFailure(f"steps are {spec.steps}")
    upper, lower = upsilon_pair_from_cone(involutive_cone(staircase_from_steps(spec)))
    if upper != PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4))):
        raise CheckFailure(f"upper is {upper.breakpoints}")
    if lower != PLFunction.constant(-4):
        raise CheckFailure(f"lower is {lower.breakpoints}")
    if upper(Fraction(1, 2)) != -3 or lower(Fraction(1, 2)) != -4:
        raise CheckFailure("values at t=1/2 are off")
    v0 = (-upper(Fraction(2)) / 2, -lower(Fraction(2)) / 2)
    if v0 != (2, 2):
        raise CheckFailure(f"V0 pair is {v0}")
    return "upper = -6t then -4, lower = -4, V0 = (2, 2)"


def staircase_corpus(s: VerifySettings) -> list[StaircaseSpec]:
    """Every symmetric step list up to max_steps, then every torus knot of
    the corpus beyond them, each with both signs."""
    torus = (steps_from_torus_knot(p, q).steps for p, q in torus_knot_corpus(35))
    return [StaircaseSpec(steps, sign)
            for steps in dict.fromkeys([*symmetric_specs(s.max_steps), *torus])
            for sign in (Sign.POSITIVE, Sign.NEGATIVE)]


def check_engine_agreement(s: VerifySettings) -> str:
    """Closed form vs generic reduction vs unreduced cone on `staircase_corpus`."""
    specs = staircase_corpus(s)
    for spec in specs:
        stair = staircase_from_steps(spec)
        cone = involutive_cone(stair, reduce_cone=False)
        if not validate(cone).ok:
            raise CheckFailure(f"{spec}: cone fails validation")
        red = reduce_bifiltered(cone).reduced
        if not is_reduced(red):
            raise CheckFailure(f"{spec}: reduction is not reduced")
        closed = materialize_closed_form(closed_form_cone_reduction(spec))
        if not validate(closed).ok:
            raise CheckFailure(f"{spec}: closed form fails validation")
        if essential_signature(red) != generator_signature(closed):
            raise CheckFailure(f"{spec}: essential generators differ: "
                               f"{essential_signature(red)} vs {generator_signature(closed)}")
        for grading in (0, 1):
            if homology_rank(cone, grading) != 1:
                raise CheckFailure(f"{spec}: cone homology rank != 1 in grading {grading}")
        lo, hi = cone.grading_span()
        for g in range(lo - 1, hi + 2):
            want = homology_rank(stair, g) + homology_rank(stair, g - 1)
            if homology_rank(cone, g) != want:
                raise CheckFailure(f"{spec}: rank-sum identity fails in grading {g}")
        u_red, l_red = upsilon_pair_from_cone(red)
        u_raw, l_raw = upsilon_pair_from_cone(cone)
        u_cf, l_cf = upsilon_pair_from_cone(closed)
        if not (u_red == u_raw == u_cf):
            raise CheckFailure(f"{spec}: upper Upsilon disagrees across engines")
        if not (l_red == l_raw == l_cf):
            raise CheckFailure(f"{spec}: lower Upsilon disagrees across engines")
    return f"{len(specs)} staircase cones agree across all three pipelines"


def check_pointing(s: VerifySettings) -> str:
    """The mod-4 pointing rule vs the central generator being a cycle."""
    cases = 0
    for steps in symmetric_specs(min(s.max_steps, 8)):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            C = staircase_from_steps(spec)
            is_cycle = not C.targets[len(steps) // 2]  # the central vertex
            predicted = classify(spec).pointing is Pointing.INWARD
            if is_cycle != predicted:
                raise CheckFailure(f"{spec}: mod-4 rule says inward={predicted}, "
                                   f"central generator cycle={is_cycle}")
            cases += 1
    return f"{cases} specs match the central-generator test"


def check_ordering(s: VerifySettings) -> str:
    knots = corpus_knots(35)
    grid = _grid(s.grid_denominator)
    for label, C in knots:
        up, low = upsilon_pair_from_cone(involutive_cone(C))
        mid = upsilon(C, UpsilonVariant.FOLDED)
        for t in grid:
            if not low(t) <= mid(t) <= up(t):
                raise CheckFailure(f"{label}: ordering fails at t={t}")
    return (f"lower <= folded <= upper on the /{s.grid_denominator} grid "
            f"for {len(knots)} knots")


def _random_box(rng: random.Random):
    gr, a, b = rng.randrange(-2, 3), rng.randrange(-4, 5), rng.randrange(-4, 5)
    return gr, a, a if rng.random() < 0.5 else b  # a diagonal box is fixed by the reflection


def _acyclic_summand(gr: int, a: int, b: int, square: bool = False):
    """An acyclic summand at (a, b) that admits a skew involution: the box
    x -> y at (a, b), gradings (gr, gr - 1), or with `square` the square
    x -> p, q -> y with x at (a + 1, b + 1), p at (a, b + 1) and q at
    (a + 1, b), gradings (gr + 1, gr, gr, gr - 1).  When a == b the
    involution reflects it, fixing x and y and swapping p and q; otherwise
    it swaps each generator with its copy, suffixed "s", at the swapped
    bidegree."""
    if square:
        shape = [("x", 1, 1, 1), ("p", 0, 0, 1), ("q", 0, 1, 0), ("y", -1, 0, 0)]
        arrows = {("x", "p"), ("x", "q"), ("p", "y"), ("q", "y")}
    else:
        shape, arrows = [("x", 0, 0, 0), ("y", -1, 0, 0)], {("x", "y")}
    gens = [Generator(i, gr + g, a + da, b + db) for i, g, da, db in shape]
    if a == b:
        inv = {(i, {"p": "q", "q": "p"}.get(i, i)) for i, *_ in shape}
    else:
        gens += [Generator(f"{i}s", gr + g, b + db, a + da) for i, g, da, db in shape]
        arrows |= {(f"{x}s", f"{y}s") for x, y in arrows}
        inv = {pair for i, *_ in shape for pair in ((i, f"{i}s"), (f"{i}s", i))}
    Z = BifilteredComplex(tuple(gens), frozenset(arrows), FiltrationMode.ALG_ALEX)
    return Z, inv


def check_acyclic_invariance(s: VerifySettings) -> str:
    trials, diagonal = 20, range(-3, 4)
    knots = corpus_knots(21)
    for label, C in knots:
        base_inv = staircase_involution(C)
        base = {w: upsilon(C, w, base_inv) for w in UpsilonVariant}
        rng = random.Random(f"{s.seed}:{label}")  # per knot: boxes ignore corpus order
        for gr, a, b in [(1, a, a) for a in diagonal] + [_random_box(rng) for _ in range(trials)]:
            Z, z_inv = _acyclic_summand(gr, a, b)
            lo, hi = Z.grading_span()
            if any(homology_rank(Z, g) for g in range(lo, hi + 1)):
                raise CheckFailure("summand is not acyclic")
            S = direct_sum(C, Z)  # the box ids never collide with the knot's
            inv = ChainMap(S, S, base_inv.arrows | z_inv)
            for w in UpsilonVariant:
                if upsilon(S, w, inv) != base[w]:
                    raise CheckFailure(f"{label}: {w.value} changed after adding an acyclic box")
    return (f"{len(diagonal)} diagonal and {trials} random acyclic summands per knot "
            f"leave all four Upsilons unchanged ({len(knots)} knots)")


def check_order_independence(s: VerifySettings) -> str:
    rng = random.Random(s.seed)
    rounds = 4
    specs = staircase_corpus(s)
    for spec in specs:
        stair = staircase_from_steps(spec)
        cone = involutive_cone(stair, reduce_cone=False)
        ref = reduce_bifiltered(cone).reduced
        ref_sig = generator_signature(ref)
        ref_up = upsilon_pair_from_cone(ref)
        lo, hi = ref.grading_span()
        ref_ranks = [homology_rank(ref, g) for g in range(lo, hi + 1)]
        for _ in range(rounds):
            alt = reduce_bifiltered(cone, rng=rng).reduced
            if generator_signature(alt) != ref_sig:
                raise CheckFailure(f"{spec}: shuffled reduction changed the generator multiset")
            if [homology_rank(alt, g) for g in range(lo, hi + 1)] != ref_ranks:
                raise CheckFailure(f"{spec}: shuffled reduction changed homology ranks")
            if upsilon_pair_from_cone(alt) != ref_up:
                raise CheckFailure(f"{spec}: shuffled reduction changed Upsilon")
    return f"{rounds} shuffles per spec agree for {len(specs)} specs"


def check_pl_normalization(s: VerifySettings) -> str:
    count = 0
    for label, C in corpus_knots(35):
        for which in UpsilonVariant:
            f = upsilon(C, which)
            ts = [t for t, _ in f.breakpoints]
            mids = [(t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:])]
            dense = sorted(f.breakpoints + tuple((t, f(t)) for t in mids))
            split = sorted(f.pieces() + tuple((t, line) for t, (_, line)
                                              in zip(mids, f.pieces())))
            for how, g in (("breakpoints", PLFunction.from_breakpoints(f.breakpoints)),
                           ("pieces", PLFunction.from_pieces(f.pieces())),
                           ("collinear points", PLFunction.from_breakpoints(dense)),
                           ("split pieces", PLFunction.from_pieces(split))):
                if g != f:
                    raise CheckFailure(f"{label} {which.value}: rebuilding from {how} "
                                       f"changed the function")
            count += 1
    return f"normalization is a fixpoint on {count} functions"


def check_v0(s: VerifySettings) -> str:
    knots = corpus_knots(35)
    for label, C in knots:
        up, low = upsilon_pair_from_cone(involutive_cone(C))
        v_up, v_low = v0_invariants(C)
        if v_up != -up(Fraction(2)) / 2 or v_low != -low(Fraction(2)) / 2:
            raise CheckFailure(f"{label}: V0 does not match -1/2 Upsilon(2)")
        if v_up.denominator != 1 or v_low.denominator != 1:
            raise CheckFailure(f"{label}: V0 not integral")
    return f"V0 integral and equal to -1/2 Upsilon(2) on {len(knots)} knots"


def check_slope_bound(s: VerifySettings) -> str:
    knots = corpus_knots(35)
    for label, C in knots:
        pair = upsilon_pair_from_cone(involutive_cone(C))
        for w, f in zip((UpsilonVariant.UPPER, UpsilonVariant.LOWER), pair):
            if not slope_bound_check(f, C):
                raise CheckFailure(f"{label}: {w.value} slope exceeds width "
                                   f"{filtration_width(C)}")
    return f"all upper/lower slopes within max|alg - Alex| on {len(knots)} knots"


def check_classic_symmetry(s: VerifySettings) -> str:
    specs = [*symmetric_specs(4), steps_from_torus_knot(3, 7).steps]
    grid = _grid(s.grid_denominator)
    for steps in specs:
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            f = upsilon(C, UpsilonVariant.CLASSIC)
            for t in grid:
                if f(t) != f(2 - t):
                    raise CheckFailure(f"steps {steps} sign {sign.value}: "
                                       f"classic Upsilon not symmetric at t={t}")
    return f"classic Upsilon symmetric under t -> 2 - t for {len(specs)} specs"


def check_d_squared_random(s: VerifySettings) -> str:
    rng = random.Random(s.seed)
    trials = 100
    spec = steps_from_torus_knot(3, 7)
    cone = involutive_cone(staircase_from_steps(spec), reduce_cone=False)
    for _ in range(trials):
        z = {rng.randrange(cone.n) for _ in range(rng.randrange(1, 7))}
        if gf2.column_sum(cone.targets, gf2.column_sum(cone.targets, z)):
            raise CheckFailure("d-squared nonzero on "
                               f"{sorted(cone.ids[i] for i in z)}")
    return f"{trials} random chains in the cone have vanishing d-squared"


def check_tower_paths(s: VerifySettings) -> str:
    """`tower_upsilon`'s forest path vs its elimination sweep on the classic,
    folded and reduced-cone towers of `staircase_corpus`, which are all
    forest towers."""
    specs = staircase_corpus(s)
    for spec in specs:
        C = staircase_from_steps(spec)
        cone = involutive_cone(C)
        for name, X, grading in (("classic", C, 0), ("folded", fold(C), 0),
                                 ("upper", cone, 0), ("lower", cone, 1)):
            lines, base, boundaries = _tower(X, grading)
            if any(len(col) > 2 for col in boundaries):
                raise CheckFailure(f"{spec}: {name} tower has a boundary column "
                                   f"of more than two positions")
            if _forest_upsilon(lines, base, boundaries) != _sweep_upsilon(lines, base, boundaries):
                raise CheckFailure(f"{spec}: {name} forest path and sweep disagree")
    return f"forest path and sweep agree on {4 * len(specs)} towers of {len(specs)} staircases"


def check_reduced_cone_paths(s: VerifySettings) -> str:
    """`involutive_cone`'s reduced cone vs `reduce_bifiltered` of the whole
    cone, on `staircase_corpus` and on each of its staircases plus seeded
    acyclic summands: squares, which keep the involution a matching with
    strictly dropping arrows, and boxes x -> y within one bidegree, which
    do not."""
    rng = random.Random(s.seed)
    cases = []
    for spec in staircase_corpus(s):
        C = staircase_from_steps(spec)
        inv = staircase_involution(C).arrows
        cases.append((str(spec), C, ChainMap(C, C, inv)))
        boxes = rng.randint(1, 3)
        for k in range(boxes):
            gr, a, b = _random_box(rng)
            Z, z_inv = _acyclic_summand(gr, a, b, square=rng.random() < 0.75)
            tag = f"z{k}."  # the summands' ids never collide with each other or the knot's
            Z = BifilteredComplex.indexed(tuple(tag + i for i in Z.ids), Z.gradings, Z.f1,
                                          Z.f2, Z.targets, Z.mode)
            C = direct_sum(C, Z)
            inv |= {(tag + x, tag + y) for x, y in z_inv}
        cases.append((f"{spec} plus {boxes} summands", C, ChainMap(C, C, inv)))
    for label, C, inv in cases:
        cone = involutive_cone(C, inv)
        if not is_reduced(cone):
            raise CheckFailure(f"{label}: the reduced cone is not reduced")
        whole = reduce_bifiltered(involutive_cone(C, inv, reduce_cone=False)).reduced
        if dumps_complex(cone) != dumps_complex(whole):
            raise CheckFailure(f"{label}: the reduced cone differs from the reduction "
                               f"of the whole cone")
    return f"{len(cases)} reduced cones equal the reduction of the whole cone"


CHECKS = (
    ("T(3,7)-goldens", check_t37_goldens),
    ("engine-agreement", check_engine_agreement),
    ("pointing-rule", check_pointing),
    ("upsilon-ordering", check_ordering),
    ("acyclic-summand-invariance", check_acyclic_invariance),
    ("reduction-order-independence", check_order_independence),
    ("pl-normalization-idempotence", check_pl_normalization),
    ("v0-relation", check_v0),
    ("three-genus-slope-bound", check_slope_bound),
    ("classic-symmetry", check_classic_symmetry),
    ("d-squared-random-chains", check_d_squared_random),
    ("tower-paths-agree", check_tower_paths),
    ("reduced-cone-paths-agree", check_reduced_cone_paths),
)


def run_verify(max_steps: int = 8, grid_denominator: int = 12,
               seed: int = 20260808) -> list[CheckResult]:
    """Run every check in `CHECKS`; returns one result per check, in order."""
    settings = VerifySettings(max_steps, grid_denominator, seed)
    results = []
    for name, check in CHECKS:
        try:
            results.append(CheckResult(name, True, check(settings)))
        except CheckFailure as e:
            results.append(CheckResult(name, False, str(e)))
        except Exception as e:  # a check that crashes fails; the rest still run
            results.append(CheckResult(name, False, f"{type(e).__name__}: {e}"))
    return results
