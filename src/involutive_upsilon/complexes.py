"""Finitely generated bifiltered chain complexes over F2.

A complex is stored as its U^0 slice in columns: generator i has id
`ids[i]`, grading `gradings[i]` and filtration bidegree (`f1[i]`, `f2[i]`),
and the F2 differential, with no U powers, is integer adjacency over
indices.  Records and ids meet indices only at the edge: the public
constructor (through `adjacency`), the `generators` and `arrows` views,
and the JSON functions.  The full complex is the span of all U-translates
of the generators; U lowers the grading by 2 and both filtration levels by
1.  Translates are never materialized as generators.  The translates
living in grading g are U^u x, u = (gr(x) - g) / 2, for the generators x
of g's parity, so a complex computes homology once per parity
(`homology`), from one reduction of each parity class's columns.

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


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def adjacency(pairs, source_index: Mapping, target_index: Mapping):
    """(x, y) id pairs as sorted index adjacency over the source, and the
    least pair naming an unknown id (None if there is none).  The least,
    not the first met, so the report does not depend on the hash seed."""
    out, bad = [[] for _ in source_index], []
    for x, y in frozenset(pairs):
        if x in source_index and y in target_index:
            out[source_index[x]].append(target_index[y])
        else:
            bad.append((x, y))
    return tuple(tuple(sorted(ys)) for ys in out), min(bad, default=None)


@dataclass(frozen=True, init=False)
class BifilteredComplex:
    """U^0 slice of a bifiltered complex; immutable after construction.

    Generator i is entry i of the columns `ids`, `gradings`, `f1` and `f2`,
    and `targets[i]` is the sorted tuple of the indices j such that
    generator j is in the boundary of generator i.  Every algorithm reads
    those tuples.  The constructor takes `Generator` records and (x, y) id
    pairs, meaning y appears in the boundary of x, and checks structural
    well-formedness (unique ids, arrows between known generators);
    `generators` and `arrows` are the derived edge views.  Internal
    producers use `indexed`, which checks nothing.  The semantic invariants
    are checked by `validate`, which reports violations as data.
    """

    ids: tuple
    gradings: tuple
    f1: tuple
    f2: tuple
    targets: tuple
    mode: FiltrationMode

    def __init__(self, generators=(), arrows=frozenset(), mode=FiltrationMode.ALG_ALEX):
        generators = tuple(generators)
        ids = tuple(g.id for g in generators)
        index = {gid: i for i, gid in enumerate(ids)}
        if len(index) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate generator ids: {dup}")
        targets, bad = adjacency(arrows, index, index)
        if bad:
            raise ValueError("differential entry (%r, %r) references unknown generator" % bad)
        self.__dict__.update(ids=ids, gradings=tuple(g.grading for g in generators),
                             f1=tuple(g.f1 for g in generators),
                             f2=tuple(g.f2 for g in generators),
                             targets=targets, mode=mode, index=index)

    @classmethod
    def indexed(cls, ids: tuple, gradings: tuple, f1: tuple, f2: tuple, targets: tuple,
                mode: FiltrationMode):
        """The column constructor: every tuple as stored, nothing checked."""
        C = cls.__new__(cls)
        C.__dict__.update(ids=ids, gradings=gradings, f1=f1, f2=f2, targets=targets, mode=mode)
        return C

    @cached_property
    def generators(self) -> tuple:
        """The columns as `Generator` records: an edge view no algorithm reads."""
        return tuple(map(Generator, self.ids, self.gradings, self.f1, self.f2))

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {gid: i for i, gid in enumerate(self.ids)}

    @cached_property
    def arrows(self) -> frozenset:
        """The differential as (x, y) id pairs."""
        ids = self.ids
        return frozenset((ids[i], ids[j]) for i, ts in enumerate(self.targets) for j in ts)

    @cached_property
    def homology(self) -> tuple:
        """(indices, reps, boundaries) per grading parity, shared by every
        grading of that parity: `homology[p]` for the gradings g with
        g % 2 == p.

        `indices` are the generators of that parity in generator order, and
        position k is the translate of generators[indices[k]] living in the
        grading.  d maps U^u x to translates with the same u, so nothing
        here depends on which grading of the parity is asked for.  A rep and
        a boundary are both the sorted tuple of their positions; there is
        one boundary per independent column of d into the grading (sorted
        because `targets` is and positions keep generator order).

        Each parity class's columns are reduced once, and that serves both
        parities: class p's columns are d out of parity p, so one reduction
        gives its kernel, the cycles of parity p, and its rows, whose
        combinations name the independent columns, the boundary basis of
        parity 1 - p.  Parity p's representatives then come by clearing
        (Chen-Kerber): the kernel basis has one cycle per leading element,
        and when d^2 = 0 (true of every producer here and of every file that
        passes `validate`) every boundary is a cycle, so the cycles whose
        leading element is not a pivot of class 1 - p's rows are exactly
        those independent of the boundaries and of the cycles before them.
        No cycle is reduced, and the reduction takes the tuples as they are.
        """
        classes, pos = ([], []), []
        for i, g in enumerate(self.gradings):
            pos.append(len(classes[g % 2]))
            classes[g % 2].append(i)
        columns = [[tuple(map(pos.__getitem__, self.targets[i])) for i in cls]
                   for cls in classes]
        kernels, rows = zip(*map(gf2.reduce_columns, columns))
        return tuple((tuple(classes[p]),
                      [tuple(sorted(z)) for z in kernels[p] if max(z) not in rows[1 - p]],
                      [columns[1 - p][max(c)] for _, c in rows[1 - p].values()])
                     for p in (0, 1))

    @property
    def n(self) -> int:
        return len(self.ids)

    def grading_span(self) -> tuple[int, int]:
        return (min(self.gradings), max(self.gradings)) if self.gradings else (0, 0)


def validate(C: BifilteredComplex) -> ValidationReport:
    """Check the structural invariants; every violation is reported.

    Rules: d-squared (boundary of boundary vanishes), grading-drop (each
    arrow lowers the grading by exactly 1), filtered (each arrow weakly
    lowers both filtration levels), min-max (f1 <= f2 in MIN_MAX mode).
    """
    ids, gr, f1, f2, violations = C.ids, C.gradings, C.f1, C.f2, []
    for x, ts in enumerate(C.targets):
        for y in ts:
            if gr[y] != gr[x] - 1:
                violations.append(
                    ("grading-drop", f"{ids[x]}->{ids[y]}",
                     f"grading {gr[x]} -> {gr[y]}, expected drop by 1"))
            if f1[y] > f1[x] or f2[y] > f2[x]:
                violations.append(
                    ("filtered", f"{ids[x]}->{ids[y]}",
                     f"bidegree {(f1[x], f2[x])} -> {(f1[y], f2[y])} is not non-increasing"))
    for x, ts in enumerate(C.targets):
        acc = gf2.column_sum(C.targets, ts)
        if acc:
            hits = sorted(ids[j] for j in acc)
            violations.append(("d-squared", ids[x], f"boundary of boundary hits {hits}"))
        if C.mode is FiltrationMode.MIN_MAX and f1[x] > f2[x]:
            violations.append(
                ("min-max", ids[x], f"bidegree {(f1[x], f2[x])} has f1 > f2 in MIN_MAX mode"))
    return ValidationReport(tuple(violations))


def homology_data(C: BifilteredComplex, grading: int):
    """Window, cycle reps and boundary basis for one grading.

    The window lists the translates (u, id) living in the grading.  Reps and
    boundaries are sorted tuples of positions k, k naming the k-th of them.
    """
    indices, reps, boundaries = C.homology[grading % 2]
    window = [((C.gradings[i] - grading) // 2, C.ids[i]) for i in indices]
    return window, reps, boundaries


def homology_rank(C: BifilteredComplex, grading: int) -> int:
    return len(C.homology[grading % 2][1])


def direct_sum(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Block-diagonal sum: C2's indices are offset by C1.n, and ids are
    prefixed "L."/"R." only if they would collide."""
    if C1.mode is not C2.mode:
        raise ValueError(f"filtration mode mismatch: {C1.mode.value} vs {C2.mode.value}")
    ids = C1.ids + C2.ids
    if not C1.index.keys().isdisjoint(C2.index):
        ids = tuple(f"L.{s}" for s in C1.ids) + tuple(f"R.{s}" for s in C2.ids)
    targets = C1.targets + tuple(tuple(C1.n + j for j in ts) for ts in C2.targets)
    return BifilteredComplex.indexed(ids, C1.gradings + C2.gradings, C1.f1 + C2.f1,
                                     C1.f2 + C2.f2, targets, C1.mode)


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

# Inputs are capped so that every number the package prints stays under
# the 4300 digits that int's str() converts.  Coordinates (gradings and
# filtration levels) are at most the step sum S of a staircase, or the
# largest value of a complex file; a line's slope and intercept and a
# breakpoint's numerator and denominator are differences of at most two of
# them, about digits(S) + 1 digits, and a value at a breakpoint is a sum of
# their products, about 2 * digits(S) + 1.  So 2000 digits keeps them all
# under the limit.
MAX_DIGITS = 2000
TOO_LONG = 10 ** MAX_DIGITS  # the least integer with more than MAX_DIGITS digits
_TOP_KEYS = {"mode", "generators", "differential", "involution"}
_GEN_KEYS = {"id", "gr", "f1", "f2"}
_EDGE_KEYS = {"from", "to"}


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
            if abs(entry[k]) >= TOO_LONG:
                raise ValueError(f"generator field {k!r} has more than {MAX_DIGITS} digits")
        gens.append(Generator(entry["id"], entry["gr"], entry["f1"], entry["f2"]))
    arrows = _edge_list(d["differential"], "differential")
    C = BifilteredComplex(tuple(gens), arrows, mode)
    involution = None
    if "involution" in d:
        involution = _edge_list(d["involution"], "involution")
        _involution_rows(C, involution)
    return C, involution


def _involution_rows(C: BifilteredComplex, involution) -> tuple:
    """The involution's (x, y) id pairs as index adjacency over C."""
    rows, bad = adjacency(involution, C.index, C.index)
    if bad:
        raise ValueError("involution entry (%r, %r) references unknown generator" % bad)
    return rows


def dumps_complex(C: BifilteredComplex, involution=None) -> str:
    """The JSON text in the layout of `json.dumps(..., indent=2)` plus a
    newline, ids escaped by its ASCII routine; entries in generator order,
    arrows by (from, to) index.  Written directly: with an indent json.dumps
    runs its pure-Python encoder, which costs more than the cone it prints."""
    quote = json.encoder.encode_basestring_ascii
    ids = list(map(quote, C.ids))
    gens = [f'    {{\n      "id": {s},\n      "gr": {g},\n      "f1": {a},'
            f'\n      "f2": {b}\n    }}' for s, g, a, b in zip(ids, C.gradings, C.f1, C.f2)]
    fields = [f'"mode": {quote(C.mode.value)}', f'"generators": {_block(gens)}',
              f'"differential": {_block(_edges(ids, C.targets))}']
    if involution is not None:
        fields.append(f'"involution": {_block(_edges(ids, _involution_rows(C, involution)))}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _edges(ids, rows):
    return [f'    {{\n      "from": {ids[i]},\n      "to": {ids[j]}\n    }}'
            for i, js in enumerate(rows) for j in js]


def _block(entries) -> str:
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def loads_complex(text: str):
    """Parse a complex file; malformed input of any kind raises ValueError."""
    try:
        try:
            d = json.loads(text)
        except ValueError as e:  # malformed, or an integer longer than int() converts
            raise ValueError(f"invalid JSON: {e}") from None
        return complex_from_dict(d)
    except RecursionError:  # in json, or in the repr of a value nested as deep
        raise ValueError("invalid JSON: nested too deeply") from None
