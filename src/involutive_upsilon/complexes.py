"""Finitely generated bifiltered chain complexes over F2.

A complex is stored as its U^0 slice: finitely many generators, each
carrying a homological grading and a filtration bidegree, plus an F2
differential with no U powers.  The full complex is the span of all
U-translates of the generators; U lowers the grading by 2 and both
filtration levels by 1.  Translates are never materialized as generators:
a `Chain` names them as (u_power, id) terms, and `homology_data` works
inside the finite window of translates that live in one grading.

The bidegree (f1, f2) is read as (alg, Alex) in ALG_ALEX mode and as
(Min, Max) in MIN_MAX mode; the complex records which reading is active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

from . import gf2


class FiltrationMode(Enum):
    ALG_ALEX = "ALG_ALEX"
    MIN_MAX = "MIN_MAX"


@dataclass(frozen=True)
class Generator:
    """A basis element: unique id, homological grading, bidegree (f1, f2)."""

    id: str
    grading: int
    f1: int
    f2: int

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.f1, self.f2)


@dataclass(frozen=True)
class Chain:
    """An F2 sum of U-translated generators: terms are (u_power, id) pairs."""

    terms: frozenset = frozenset()

    @classmethod
    def of(cls, *ids: str, u: int = 0) -> "Chain":
        return cls(frozenset((u, g) for g in ids))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __xor__(self, other: "Chain") -> "Chain":
        return Chain(self.terms ^ other.terms)

    def u_shift(self, k: int) -> "Chain":
        return Chain(frozenset((u + k, g) for u, g in self.terms))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BifilteredComplex:
    """U^0 slice of a bifiltered complex; immutable after construction.

    `arrows` holds (x, y) pairs meaning y appears in the boundary of x.
    Construction checks structural well-formedness only (unique ids, arrows
    between known generators); the semantic invariants are checked by
    `validate`, which reports violations as data.
    """

    generators: tuple = ()
    arrows: frozenset = frozenset()
    mode: FiltrationMode = FiltrationMode.ALG_ALEX

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "arrows", frozenset(self.arrows))
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate generator ids: {dup}")
        known = set(ids)
        for x, y in self.arrows:
            if x not in known or y not in known:
                raise ValueError(f"differential entry ({x!r}, {y!r}) references unknown generator")

    @cached_property
    def by_id(self) -> Mapping[str, Generator]:
        return {g.id: g for g in self.generators}

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {g.id: i for i, g in enumerate(self.generators)}

    @cached_property
    def _targets(self) -> Mapping[str, frozenset]:
        out: dict[str, set] = {g.id: set() for g in self.generators}
        for x, y in self.arrows:
            out[x].add(y)
        return {k: frozenset(v) for k, v in out.items()}

    def targets_of(self, gid: str) -> frozenset:
        return self._targets[gid]

    def sorted_arrows(self) -> list[tuple[str, str]]:
        idx = self.index
        return sorted(self.arrows, key=lambda a: (idx[a[0]], idx[a[1]]))

    @property
    def n(self) -> int:
        return len(self.generators)

    def grading_span(self) -> tuple[int, int]:
        if not self.generators:
            return (0, 0)
        grs = [g.grading for g in self.generators]
        return (min(grs), max(grs))


def validate(C: BifilteredComplex) -> ValidationReport:
    """Check the structural invariants; every violation is reported.

    Rules: d-squared (boundary of boundary vanishes), grading-drop (each
    arrow lowers the grading by exactly 1), filtered (each arrow weakly
    lowers both filtration levels), min-max (f1 <= f2 in MIN_MAX mode).
    """
    violations = []
    for x, y in C.sorted_arrows():
        gx, gy = C.by_id[x], C.by_id[y]
        if gy.grading != gx.grading - 1:
            violations.append(
                ("grading-drop", f"{x}->{y}",
                 f"grading {gx.grading} -> {gy.grading}, expected drop by 1"))
        if gy.f1 > gx.f1 or gy.f2 > gx.f2:
            violations.append(
                ("filtered", f"{x}->{y}",
                 f"bidegree {gx.bidegree} -> {gy.bidegree} is not non-increasing"))
    for g in C.generators:
        acc: set = set()
        for t in C.targets_of(g.id):
            acc ^= C.targets_of(t)
        if acc:
            violations.append(
                ("d-squared", g.id, f"boundary of boundary hits {sorted(acc)}"))
        if C.mode is FiltrationMode.MIN_MAX and g.f1 > g.f2:
            violations.append(
                ("min-max", g.id, f"bidegree {g.bidegree} has f1 > f2 in MIN_MAX mode"))
    return ValidationReport(tuple(violations))


def boundary(C: BifilteredComplex, z: Chain) -> Chain:
    """Boundary of a chain, extended linearly and U-equivariantly."""
    acc: set = set()
    for u, gid in z.terms:
        if gid not in C.by_id:
            raise ValueError(f"unknown generator id {gid!r}")
        for t in C.targets_of(gid):
            acc ^= {(u, t)}
    return Chain(frozenset(acc))


def u_window(C: BifilteredComplex, grading: int) -> list[tuple[int, str]]:
    """The U-translates of the generators living in the given grading.

    Exactly the translates U^k g with grading(g) - 2k = grading; this is
    the whole grading slice of the U-localized complex, so it is the only
    window homology in that grading can see.
    """
    out = []
    for g in C.generators:
        delta = g.grading - grading
        if delta % 2 == 0:
            out.append((delta // 2, g.id))
    return out


def _window_columns(C, source_window, target_pos):
    """Boundary columns from a window into a window position map."""
    cols = []
    for u, gid in source_window:
        m = 0
        for t in C.targets_of(gid):
            m |= 1 << target_pos[(u, t)]
        cols.append(m)
    return cols


def homology_data(C: BifilteredComplex, grading: int):
    """Cycle reps, boundary basis and window for one grading (as masks)."""
    win = u_window(C, grading)
    pos = {term: i for i, term in enumerate(win)}
    win_down = u_window(C, grading - 1)
    pos_down = {term: i for i, term in enumerate(win_down)}
    win_up = u_window(C, grading + 1)
    cycles = gf2.kernel_basis(_window_columns(C, win, pos_down))
    boundaries = gf2.image_basis(_window_columns(C, win_up, pos))
    reps = gf2.quotient_representatives(cycles, boundaries)
    return win, reps, boundaries


def homology_rank(C: BifilteredComplex, grading: int) -> int:
    return len(homology_data(C, grading)[1])


def direct_sum(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Block-diagonal sum; ids are prefixed only if they would collide."""
    if C1.mode is not C2.mode:
        raise ValueError(f"filtration mode mismatch: {C1.mode.value} vs {C2.mode.value}")
    ids1 = {g.id for g in C1.generators}
    ids2 = {g.id for g in C2.generators}
    if ids1 & ids2:
        r1 = lambda s: f"L.{s}"
        r2 = lambda s: f"R.{s}"
    else:
        r1 = r2 = lambda s: s
    gens = [Generator(r1(g.id), g.grading, g.f1, g.f2) for g in C1.generators]
    gens += [Generator(r2(g.id), g.grading, g.f1, g.f2) for g in C2.generators]
    arrows = {(r1(x), r1(y)) for x, y in C1.arrows}
    arrows |= {(r2(x), r2(y)) for x, y in C2.arrows}
    return BifilteredComplex(tuple(gens), frozenset(arrows), C1.mode)


# ---------------------------------------------------------------------------
# JSON file format
#
# {"mode": "ALG_ALEX"|"MIN_MAX",
#  "generators": [{"id": str, "gr": int, "f1": int, "f2": int}, ...],
#  "differential": [{"from": str, "to": str}, ...],
#  "involution": [{"from": str, "to": str}, ...]}   # optional
#
# Unknown keys are rejected; dumps are canonical so round-trips are
# byte-identical.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"mode", "generators", "differential", "involution"}
_GEN_KEYS = {"id", "gr", "f1", "f2"}
_EDGE_KEYS = {"from", "to"}


def complex_to_dict(C: BifilteredComplex, involution=None) -> dict:
    d = {
        "mode": C.mode.value,
        "generators": [{"id": g.id, "gr": g.grading, "f1": g.f1, "f2": g.f2}
                       for g in C.generators],
        "differential": [{"from": x, "to": y} for x, y in C.sorted_arrows()],
    }
    if involution is not None:
        idx = C.index
        pairs = sorted(involution, key=lambda a: (idx[a[0]], idx[a[1]]))
        d["involution"] = [{"from": x, "to": y} for x, y in pairs]
    return d


def _check_keys(obj: dict, allowed: set, required: set, what: str):
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown key(s) {sorted(extra)} in {what}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)} in {what}")


def _edge_list(entries, what: str) -> frozenset:
    if not isinstance(entries, list):
        raise ValueError(f"{what} must be a list")
    pairs = set()
    for e in entries:
        if not isinstance(e, dict):
            raise ValueError(f"{what} entries must be objects")
        _check_keys(e, _EDGE_KEYS, _EDGE_KEYS, f"{what} entry")
        if not isinstance(e["from"], str) or not isinstance(e["to"], str):
            raise ValueError(f"{what} endpoints must be strings")
        pair = (e["from"], e["to"])
        if pair in pairs:
            raise ValueError(f"duplicate {what} entry {pair}")
        pairs.add(pair)
    return frozenset(pairs)


def complex_from_dict(d: dict):
    """Parse the JSON dict; returns (complex, involution arrows or None)."""
    if not isinstance(d, dict):
        raise ValueError("complex file must contain a JSON object")
    _check_keys(d, _TOP_KEYS, {"mode", "generators", "differential"}, "complex")
    try:
        mode = FiltrationMode(d["mode"])
    except ValueError:
        raise ValueError(f"unknown mode {d['mode']!r}") from None
    if not isinstance(d["generators"], list):
        raise ValueError("generators must be a list")
    gens = []
    for entry in d["generators"]:
        if not isinstance(entry, dict):
            raise ValueError("generator entries must be objects")
        _check_keys(entry, _GEN_KEYS, _GEN_KEYS, "generator entry")
        if not isinstance(entry["id"], str):
            raise ValueError("generator id must be a string")
        for k in ("gr", "f1", "f2"):
            if not isinstance(entry[k], int) or isinstance(entry[k], bool):
                raise ValueError(f"generator field {k!r} must be an integer")
        gens.append(Generator(entry["id"], entry["gr"], entry["f1"], entry["f2"]))
    arrows = _edge_list(d["differential"], "differential")
    C = BifilteredComplex(tuple(gens), arrows, mode)
    involution = None
    if "involution" in d:
        involution = _edge_list(d["involution"], "involution")
        for x, y in involution:
            if x not in C.by_id or y not in C.by_id:
                raise ValueError(f"involution entry ({x!r}, {y!r}) references unknown generator")
    return C, involution


def dumps_complex(C: BifilteredComplex, involution=None) -> str:
    return json.dumps(complex_to_dict(C, involution), indent=2) + "\n"


def loads_complex(text: str):
    """Parse a complex file; malformed input of any kind raises ValueError."""
    try:
        return complex_from_dict(json.loads(text))
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
