"""Cross-check suites: the closed form, the generic reduction and the
unreduced cone must all tell the same story, and the structural properties
must hold on randomized inputs with a deterministic seed.

`CHECKS` is the one ordered list of (name, check) pairs.  The `verify` CLI
command runs it through `run_verify`, and the test suite runs each entry
as its own case.  A check takes the `VerifySettings` and returns a one-line
summary, or raises `CheckFailure` with the first counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (BifilteredComplex, Chain, FiltrationMode, Generator,
                        boundary, direct_sum, homology_rank, validate)
from .involutive import ChainMap, staircase_involution
from .plfunction import PLFunction
from .reduction import (closed_form_cone_reduction, essential_signature,
                        generator_signature, is_reduced,
                        materialize_closed_form, reduce_bifiltered)
from .staircase import (Sign, StaircaseSpec, classify, mirror, Pointing,
                        staircase_from_steps, steps_from_torus_knot,
                        unknot_complex)
from .upsilon import (UpsilonVariant, filtration_width, involutive_cone,
                      slope_bound_check, upsilon, upsilon_pair_from_cone,
                      v0_invariants)


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
    C = staircase_from_steps(spec)
    upper = upsilon(C, UpsilonVariant.UPPER)
    lower = upsilon(C, UpsilonVariant.LOWER)
    if upper != PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4))):
        raise CheckFailure(f"upper is {upper.breakpoints}")
    if lower != PLFunction.constant(-4):
        raise CheckFailure(f"lower is {lower.breakpoints}")
    if upper(Fraction(1, 2)) != -3 or lower(Fraction(1, 2)) != -4:
        raise CheckFailure("values at t=1/2 are off")
    v0 = v0_invariants(C)
    if v0 != (2, 2):
        raise CheckFailure(f"V0 pair is {v0}")
    return "upper = -6t then -4, lower = -4, V0 = (2, 2)"


def check_engine_agreement(s: VerifySettings) -> str:
    """Closed form vs generic reduction vs unreduced cone, both signs.

    The corpus is every symmetric step list up to max_steps, then every
    torus knot of the corpus beyond them.
    """
    torus = (steps_from_torus_knot(p, q).steps for p, q in torus_knot_corpus(35))
    specs = dict.fromkeys([*symmetric_specs(s.max_steps), *torus])
    cases = 0
    for steps in specs:
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
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
            cases += 1
    return f"{cases} staircase cones agree across all three pipelines"


def check_pointing(s: VerifySettings) -> str:
    """The mod-4 pointing rule vs the central generator being a cycle."""
    cases = 0
    for steps in symmetric_specs(min(s.max_steps, 8)):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            C = staircase_from_steps(spec)
            central = f"v{len(steps) // 2}"
            is_cycle = boundary(C, Chain.of(central)).is_zero
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
        low = upsilon(C, UpsilonVariant.LOWER)
        mid = upsilon(C, UpsilonVariant.FOLDED)
        up = upsilon(C, UpsilonVariant.UPPER)
        for t in grid:
            if not low(t) <= mid(t) <= up(t):
                raise CheckFailure(f"{label}: ordering fails at t={t}")
    return (f"lower <= folded <= upper on the /{s.grid_denominator} grid "
            f"for {len(knots)} knots")


def _acyclic_summand(rng: random.Random):
    """A random acyclic box pair that admits a skew involution."""
    gr = rng.randrange(-2, 3)
    a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
    if rng.random() < 0.5:
        a = b  # diagonal box, fixed by the reflection
    gens = [Generator("x", gr, a, b), Generator("y", gr - 1, a, b)]
    arrows = {("x", "y")}
    inv = {("x", "x"), ("y", "y")}
    if a != b:
        gens += [Generator("xs", gr, b, a), Generator("ys", gr - 1, b, a)]
        arrows.add(("xs", "ys"))
        inv = {("x", "xs"), ("xs", "x"), ("y", "ys"), ("ys", "y")}
    Z = BifilteredComplex(tuple(gens), frozenset(arrows), FiltrationMode.ALG_ALEX)
    return Z, inv


def check_acyclic_invariance(s: VerifySettings) -> str:
    rng = random.Random(s.seed)
    trials = 20
    knots = corpus_knots(21)
    for label, C in knots:
        base_inv = staircase_involution(C)
        base = {w: upsilon(C, w, base_inv) for w in UpsilonVariant}
        for _ in range(trials):
            Z, z_inv = _acyclic_summand(rng)
            lo, hi = Z.grading_span()
            if any(homology_rank(Z, g) for g in range(lo, hi + 1)):
                raise CheckFailure("summand is not acyclic")
            S = direct_sum(C, Z)
            pre = "L." if any(g.id in C.by_id for g in Z.generators) else ""
            zp = "R." if pre else ""
            arrows = {(f"{pre}{x}", f"{pre}{y}") for x, y in base_inv.arrows}
            arrows |= {(f"{zp}{x}", f"{zp}{y}") for x, y in z_inv}
            inv = ChainMap(S, S, frozenset(arrows))
            for w in UpsilonVariant:
                if upsilon(S, w, inv) != base[w]:
                    raise CheckFailure(f"{label}: {w.value} changed after adding an acyclic box")
    return (f"{trials} random acyclic summands per knot leave all "
            f"four Upsilons unchanged ({len(knots)} knots)")


def check_order_independence(s: VerifySettings) -> str:
    rng = random.Random(s.seed)
    rounds = 4
    specs = list(symmetric_specs(min(5, s.max_steps)))[:12]
    for steps in specs:
        spec = StaircaseSpec(steps, Sign.POSITIVE)
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
    knots = corpus_knots(35)[1:11]
    for label, C in knots:
        f = upsilon(C, UpsilonVariant.UPPER)
        again = PLFunction(f.breakpoints)
        if again.breakpoints != f.breakpoints:
            raise CheckFailure(f"{label}: re-normalization changed breakpoints")
        dense = []
        pieces = f.pieces()
        for i, (t0, line) in enumerate(pieces):
            t1 = pieces[i + 1][0] if i + 1 < len(pieces) else Fraction(2)
            dense.append((t0, f(t0)))
            dense.append(((t0 + t1) / 2, f((t0 + t1) / 2)))
        dense.append((Fraction(2), f(Fraction(2))))
        if PLFunction(tuple(dense)) != f:
            raise CheckFailure(f"{label}: inserting collinear points changed the function")
    return f"normalization is a fixpoint on {len(knots)} functions"


def check_v0(s: VerifySettings) -> str:
    knots = corpus_knots(35)
    for label, C in knots:
        up = upsilon(C, UpsilonVariant.UPPER)
        low = upsilon(C, UpsilonVariant.LOWER)
        v_up, v_low = v0_invariants(C)
        if v_up != -up(Fraction(2)) / 2 or v_low != -low(Fraction(2)) / 2:
            raise CheckFailure(f"{label}: V0 does not match -1/2 Upsilon(2)")
        if v_up.denominator != 1 or v_low.denominator != 1:
            raise CheckFailure(f"{label}: V0 not integral")
    return f"V0 integral and equal to -1/2 Upsilon(2) on {len(knots)} knots"


def check_slope_bound(s: VerifySettings) -> str:
    knots = corpus_knots(35)
    for label, C in knots:
        for w in (UpsilonVariant.UPPER, UpsilonVariant.LOWER):
            f = upsilon(C, w)
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
    ids = [g.id for g in cone.generators]
    for _ in range(trials):
        terms = {(rng.randrange(-3, 4), rng.choice(ids))
                 for _ in range(rng.randrange(1, 7))}
        z = Chain(frozenset(terms))
        if not boundary(cone, boundary(cone, z)).is_zero:
            raise CheckFailure(f"d-squared nonzero on {sorted(terms)}")
        if boundary(cone, z.u_shift(1)) != boundary(cone, z).u_shift(1):
            raise CheckFailure("boundary does not commute with the U shift")
    return f"{trials} random chains in the cone have vanishing d-squared"


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
    return results
