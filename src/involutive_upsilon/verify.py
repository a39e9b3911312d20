"""Cross-check suites: the closed form, the generic reduction and the
unreduced cone must all tell the same story, and the structural properties
must hold on randomized inputs with a deterministic seed.

This is the machinery behind the `verify` CLI command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (BifilteredComplex, Chain, FiltrationMode, Generator,
                        boundary, direct_sum, homology_rank, validate)
from .involutive import ChainMap, fold, staircase_involution
from .plfunction import PLFunction
from .reduction import (closed_form_cone_reduction, essential_signature,
                        generator_signature, is_reduced,
                        materialize_closed_form, reduce_bifiltered)
from .staircase import (Sign, StaircaseSpec, classify, mirror, Pointing,
                        staircase_from_steps, steps_from_torus_knot,
                        unknot_complex)
from .upsilon import (UpsilonVariant, filtration_width, involutive_cone,
                      nu_function, slope_bound_check, upsilon,
                      upsilon_pair_from_cone, v0_invariants)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


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


def _bad(name, detail):
    return CheckResult(name, False, detail)


def _good(name, detail=""):
    return CheckResult(name, True, detail)


def check_engine_agreement(max_half_sum: int) -> CheckResult:
    """Closed form vs generic reduction vs unreduced cone, both signs."""
    name = "engine-agreement"
    cases = 0
    for steps in symmetric_specs(max_half_sum):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            stair = staircase_from_steps(spec)
            cone = involutive_cone(stair, reduce_cone=False)
            if not validate(cone).ok:
                return _bad(name, f"{spec}: cone fails validation")
            red = reduce_bifiltered(cone).reduced
            if not is_reduced(red):
                return _bad(name, f"{spec}: reduction is not reduced")
            closed = materialize_closed_form(closed_form_cone_reduction(spec))
            if not validate(closed).ok:
                return _bad(name, f"{spec}: closed form fails validation")
            if essential_signature(red) != generator_signature(closed):
                return _bad(name, f"{spec}: essential generators differ: "
                                  f"{essential_signature(red)} vs {generator_signature(closed)}")
            for grading in (0, 1):
                if homology_rank(cone, grading) != 1:
                    return _bad(name, f"{spec}: cone homology rank != 1 in grading {grading}")
            lo, hi = cone.grading_span()
            for g in range(lo - 1, hi + 2):
                want = homology_rank(stair, g) + homology_rank(stair, g - 1)
                if homology_rank(cone, g) != want:
                    return _bad(name, f"{spec}: rank-sum identity fails in grading {g}")
            u_red, l_red = upsilon_pair_from_cone(red)
            u_raw, l_raw = upsilon_pair_from_cone(cone)
            u_cf, l_cf = upsilon_pair_from_cone(closed)
            if not (u_red == u_raw == u_cf):
                return _bad(name, f"{spec}: upper Upsilon disagrees across engines")
            if not (l_red == l_raw == l_cf):
                return _bad(name, f"{spec}: lower Upsilon disagrees across engines")
            cases += 1
    return _good(name, f"{cases} staircase cones agree across all three pipelines")


def check_pointing(max_half_sum: int) -> CheckResult:
    """The mod-4 pointing rule vs the central generator being a cycle."""
    name = "pointing-rule"
    cases = 0
    for steps in symmetric_specs(max_half_sum):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            C = staircase_from_steps(spec)
            central = f"v{len(steps) // 2}"
            is_cycle = boundary(C, Chain.of(central)).is_zero
            predicted = classify(spec).pointing is Pointing.INWARD
            if is_cycle != predicted:
                return _bad(name, f"{spec}: mod-4 rule says inward={predicted}, "
                                  f"central generator cycle={is_cycle}")
            cases += 1
    return _good(name, f"{cases} specs match the central-generator test")


def check_inequality(knots, denominator: int) -> CheckResult:
    name = "upsilon-ordering"
    grid = _grid(denominator)
    for label, C in knots:
        low = upsilon(C, UpsilonVariant.LOWER)
        mid = upsilon(C, UpsilonVariant.FOLDED)
        up = upsilon(C, UpsilonVariant.UPPER)
        for t in grid:
            if not low(t) <= mid(t) <= up(t):
                return _bad(name, f"{label}: ordering fails at t={t}")
    return _good(name, f"lower <= folded <= upper on the /{denominator} grid "
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


def check_acyclic_invariance(knots, rng: random.Random, trials: int = 20) -> CheckResult:
    name = "acyclic-summand-invariance"
    for label, C in knots:
        base_inv = staircase_involution(C)
        base = {w: upsilon(C, w, base_inv) for w in UpsilonVariant}
        for _ in range(trials):
            Z, z_inv = _acyclic_summand(rng)
            lo, hi = Z.grading_span()
            if any(homology_rank(Z, g) for g in range(lo, hi + 1)):
                return _bad(name, "summand is not acyclic")
            S = direct_sum(C, Z)
            pre = "L." if any(g.id in C.by_id for g in Z.generators) else ""
            zp = "R." if pre else ""
            arrows = {(f"{pre}{x}", f"{pre}{y}") for x, y in base_inv.arrows}
            arrows |= {(f"{zp}{x}", f"{zp}{y}") for x, y in z_inv}
            inv = ChainMap(S, S, frozenset(arrows))
            for w in UpsilonVariant:
                if upsilon(S, w, inv) != base[w]:
                    return _bad(name, f"{label}: {w.value} changed after adding an acyclic box")
    return _good(name, f"{trials} random acyclic summands per knot leave all "
                       f"four Upsilons unchanged ({len(knots)} knots)")


def check_order_independence(specs, rng: random.Random, rounds: int = 4) -> CheckResult:
    name = "reduction-order-independence"
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
                return _bad(name, f"{spec}: shuffled reduction changed the generator multiset")
            if [homology_rank(alt, g) for g in range(lo, hi + 1)] != ref_ranks:
                return _bad(name, f"{spec}: shuffled reduction changed homology ranks")
            if upsilon_pair_from_cone(alt) != ref_up:
                return _bad(name, f"{spec}: shuffled reduction changed Upsilon")
    return _good(name, f"{rounds} shuffles per spec agree for {len(specs)} specs")


def check_window_sufficiency(specs) -> CheckResult:
    name = "u-window-sufficiency"
    for steps in specs:
        spec = StaircaseSpec(steps, Sign.POSITIVE)
        stair = staircase_from_steps(spec)
        cone = involutive_cone(stair)
        for grading in (0, 1):
            plain = nu_function(cone, grading)
            padded = nu_function(cone, grading, window_pad=1)
            if plain != padded:
                return _bad(name, f"{spec}: enlarging the U-window changed nu "
                                  f"in grading {grading}")
        folded = fold(stair)
        if nu_function(folded, 0) != nu_function(folded, 0, window_pad=1):
            return _bad(name, f"{spec}: enlarging the U-window changed folded nu")
    return _good(name, f"padded windows agree for {len(specs)} specs")


def check_pl_normalization(knots) -> CheckResult:
    name = "pl-normalization-idempotence"
    for label, C in knots:
        f = upsilon(C, UpsilonVariant.UPPER)
        again = PLFunction(f.breakpoints)
        if again.breakpoints != f.breakpoints:
            return _bad(name, f"{label}: re-normalization changed breakpoints")
        dense = []
        pieces = f.pieces()
        for i, (t0, line) in enumerate(pieces):
            t1 = pieces[i + 1][0] if i + 1 < len(pieces) else Fraction(2)
            dense.append((t0, f(t0)))
            dense.append(((t0 + t1) / 2, f((t0 + t1) / 2)))
        dense.append((Fraction(2), f(Fraction(2))))
        if PLFunction(tuple(dense)) != f:
            return _bad(name, f"{label}: inserting collinear points changed the function")
    return _good(name, f"normalization is a fixpoint on {len(knots)} functions")


def check_v0(knots) -> CheckResult:
    name = "v0-relation"
    for label, C in knots:
        up = upsilon(C, UpsilonVariant.UPPER)
        low = upsilon(C, UpsilonVariant.LOWER)
        v_up, v_low = v0_invariants(C)
        if v_up != -up(Fraction(2)) / 2 or v_low != -low(Fraction(2)) / 2:
            return _bad(name, f"{label}: V0 does not match -1/2 Upsilon(2)")
        if v_up.denominator != 1 or v_low.denominator != 1:
            return _bad(name, f"{label}: V0 not integral")
    return _good(name, f"V0 integral and equal to -1/2 Upsilon(2) on {len(knots)} knots")


def check_slope_bound(knots) -> CheckResult:
    name = "three-genus-slope-bound"
    for label, C in knots:
        for w in (UpsilonVariant.UPPER, UpsilonVariant.LOWER):
            f = upsilon(C, w)
            if not slope_bound_check(f, C):
                return _bad(name, f"{label}: {w.value} slope exceeds width "
                                  f"{filtration_width(C)}")
    return _good(name, f"all upper/lower slopes within max|alg - Alex| on {len(knots)} knots")


def check_classic_symmetry(specs, denominator: int) -> CheckResult:
    name = "classic-symmetry"
    grid = _grid(denominator)
    for steps in specs:
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            f = upsilon(C, UpsilonVariant.CLASSIC)
            for t in grid:
                if f(t) != f(2 - t):
                    return _bad(name, f"steps {steps} sign {sign.value}: "
                                      f"classic Upsilon not symmetric at t={t}")
    return _good(name, f"classic Upsilon symmetric under t -> 2 - t for {len(specs)} specs")


def check_d_squared_random(rng: random.Random, trials: int = 100) -> CheckResult:
    name = "d-squared-random-chains"
    spec = steps_from_torus_knot(3, 7)
    cone = involutive_cone(staircase_from_steps(spec), reduce_cone=False)
    ids = [g.id for g in cone.generators]
    for _ in range(trials):
        terms = {(rng.randrange(-2, 3), rng.choice(ids))
                 for _ in range(rng.randrange(1, 6))}
        z = Chain(frozenset(terms))
        if not boundary(cone, boundary(cone, z)).is_zero:
            return _bad(name, f"d-squared nonzero on {sorted(terms)}")
        shifted = boundary(cone, z.u_shift(1))
        if shifted != boundary(cone, z).u_shift(1):
            return _bad(name, "boundary does not commute with the U shift")
    return _good(name, f"{trials} random chains in the cone have vanishing d-squared")


def check_t37_goldens() -> CheckResult:
    name = "T(3,7)-goldens"
    spec = steps_from_torus_knot(3, 7)
    if spec.steps != (1, 2, 1, 2, 2, 1, 2, 1):
        return _bad(name, f"steps are {spec.steps}")
    C = staircase_from_steps(spec)
    upper = upsilon(C, UpsilonVariant.UPPER)
    lower = upsilon(C, UpsilonVariant.LOWER)
    want_upper = PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    want_lower = PLFunction.constant(-4)
    if upper != want_upper:
        return _bad(name, f"upper is {upper.breakpoints}")
    if lower != want_lower:
        return _bad(name, f"lower is {lower.breakpoints}")
    if upper(Fraction(1, 2)) != -3 or lower(Fraction(1, 2)) != -4:
        return _bad(name, "values at t=1/2 are off")
    v0 = v0_invariants(C)
    if v0 != (2, 2):
        return _bad(name, f"V0 pair is {v0}")
    return _good(name, "upper = -6t then -4, lower = -4, V0 = (2, 2)")


def run_verify(max_steps: int = 8, grid_denominator: int = 12,
               seed: int = 20260808) -> list[CheckResult]:
    """Run every cross-check; returns one result per named check."""
    rng = random.Random(seed)
    small_specs = [s for s in symmetric_specs(min(5, max_steps))]
    sample_specs = small_specs[:12]
    knots = corpus_knots(35)
    sym_knots = [(label, C) for label, C in knots if label != "unknot"]
    results = [
        check_t37_goldens(),
        check_engine_agreement(max_steps),
        check_pointing(min(max_steps, 8)),
        check_inequality(knots[:24], grid_denominator),
        check_acyclic_invariance(sym_knots[:8], rng, trials=20),
        check_order_independence(sample_specs, rng),
        check_window_sufficiency(sample_specs[:8]),
        check_pl_normalization(sym_knots[:10]),
        check_v0(sym_knots[:12]),
        check_slope_bound(sym_knots[:12]),
        check_classic_symmetry([s for s in symmetric_specs(4)], grid_denominator),
        check_d_squared_random(rng),
    ]
    return results
