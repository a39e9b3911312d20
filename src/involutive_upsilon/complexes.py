"""Finitely generated bifiltered chain complexes over F2.

A complex is stored as its U^0 slice: finitely many generators, each
carrying a homological grading and a filtration bidegree, plus an F2
differential with no U powers, stored as integer adjacency over generator
indices.  Ids are converted to and from indices only at the edge: the
public constructor (through `adjacency`) and the `arrows` view, and the
JSON functions.  The full complex is the span of all U-translates of the
generators; U lowers the grading by 2 and both filtration levels by 1.
Translates are never materialized as generators.  The translates living in
grading g are U^u x, u = (gr(x) - g) / 2, for the generators x of g's
parity, so a complex computes homology once per parity (`homology`), from
one reduction of each parity class's columns.

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

    The differential is integer adjacency: `targets[i]` is the sorted tuple
    of the indices j such that generators[j] is in the boundary of
    generators[i].  Every algorithm reads that form.  Ids are converted only
    at the edge: the constructor takes (x, y) id pairs, meaning y appears in
    the boundary of x, and checks structural well-formedness (unique ids,
    arrows between known generators); `arrows` is the derived id-pair view.
    Internal producers use `indexed`, which checks nothing.  The semantic
    invariants are checked by `validate`, which reports violations as data.
    """

    generators: tuple
    targets: tuple
    mode: FiltrationMode

    def __init__(self, generators=(), arrows=frozenset(), mode=FiltrationMode.ALG_ALEX):
        generators = tuple(generators)
        ids = [g.id for g in generators]
        index = {gid: i for i, gid in enumerate(ids)}
        if len(index) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate generator ids: {dup}")
        targets, bad = adjacency(arrows, index, index)
        if bad:
            raise ValueError("differential entry (%r, %r) references unknown generator" % bad)
        self.__dict__.update(generators=generators, mode=mode, index=index, targets=targets)

    @classmethod
    def indexed(cls, generators: tuple, targets: tuple, mode: FiltrationMode):
        """The index constructor: `targets` as stored, nothing checked."""
        C = cls.__new__(cls)
        C.__dict__.update(generators=generators, targets=targets, mode=mode)
        return C

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {g.id: i for i, g in enumerate(self.generators)}

    @cached_property
    def arrows(self) -> frozenset:
        """The differential as (x, y) id pairs."""
        ids = [g.id for g in self.generators]
        return frozenset((ids[i], ids[j]) for i, ts in enumerate(self.targets) for j in ts)

    @cached_property
    def homology(self) -> tuple:
        """(indices, reps, boundaries) per grading parity, shared by every
        grading of that parity: `homology[p]` for the gradings g with
        g % 2 == p.

        `indices` are the generators of that parity in generator order, and
        position k is the translate of generators[indices[k]] living in the
        grading.  d maps U^u x to translates with the same u, so nothing
        here depends on which grading of the parity is asked for.  A rep is
        a mask with bit k for position k; a boundary is the sorted tuple of
        its positions (sorted because `targets` is and positions keep
        generator order), one per independent column of d into the grading.

        Each parity class's columns are reduced once, and that serves both
        parities: class p's columns are d out of parity p, so one reduction
        gives its kernel, the cycles of parity p, and its independent
        columns and pivots, the boundary basis of parity 1 - p.  Parity p's
        representatives then come by clearing (Chen-Kerber): the kernel
        basis has one cycle per leading bit, and when d^2 = 0 (true of every
        producer here and of every file that passes `validate`) every
        boundary is a cycle, so the cycles whose leading bit is not one of
        class 1 - p's pivots are exactly those independent of the
        boundaries and of the cycles before them.  No cycle is reduced, and
        masks are built only for the reduction.
        """
        classes, pos = ([], []), []
        for i, g in enumerate(self.generators):
            pos.append(len(classes[g.grading % 2]))
            classes[g.grading % 2].append(i)
        columns = [[tuple(map(pos.__getitem__, self.targets[i])) for i in cls]
                   for cls in classes]
        kernels, pivots = zip(*(gf2.reduce_columns(map(gf2.mask, cols)) for cols in columns))
        return tuple((tuple(classes[p]),
                      [z for z in kernels[p] if z.bit_length() - 1 not in pivots[1 - p]],
                      [columns[1 - p][j] for j in pivots[1 - p].values()])
                     for p in (0, 1))

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
    gens, violations = C.generators, []
    for gx, ts in zip(gens, C.targets):
        for gy in [gens[j] for j in ts]:
            if gy.grading != gx.grading - 1:
                violations.append(
                    ("grading-drop", f"{gx.id}->{gy.id}",
                     f"grading {gx.grading} -> {gy.grading}, expected drop by 1"))
            if gy.f1 > gx.f1 or gy.f2 > gx.f2:
                violations.append(
                    ("filtered", f"{gx.id}->{gy.id}",
                     f"bidegree {gx.bidegree} -> {gy.bidegree} is not non-increasing"))
    for g, ts in zip(gens, C.targets):
        acc: set = set()
        for t in ts:
            acc.symmetric_difference_update(C.targets[t])
        if acc:
            hits = sorted(gens[j].id for j in acc)
            violations.append(("d-squared", g.id, f"boundary of boundary hits {hits}"))
        if C.mode is FiltrationMode.MIN_MAX and g.f1 > g.f2:
            violations.append(
                ("min-max", g.id, f"bidegree {g.bidegree} has f1 > f2 in MIN_MAX mode"))
    return ValidationReport(tuple(violations))


def homology_data(C: BifilteredComplex, grading: int):
    """Window, cycle reps and boundary basis for one grading.

    The window lists the translates (u, id) living in the grading.  Reps are
    masks, whose bit k is the k-th of them; boundaries are sorted tuples of
    those positions k.
    """
    indices, reps, boundaries = C.homology[grading % 2]
    window = [((C.generators[i].grading - grading) // 2, C.generators[i].id)
              for i in indices]
    return window, reps, boundaries


def homology_rank(C: BifilteredComplex, grading: int) -> int:
    return len(C.homology[grading % 2][1])


def direct_sum(C1: BifilteredComplex, C2: BifilteredComplex) -> BifilteredComplex:
    """Block-diagonal sum: C2's indices are offset by C1.n, and ids are
    prefixed "L."/"R." only if they would collide."""
    if C1.mode is not C2.mode:
        raise ValueError(f"filtration mode mismatch: {C1.mode.value} vs {C2.mode.value}")
    gens = C1.generators + C2.generators
    if not C1.index.keys().isdisjoint(C2.index):
        gens = tuple(Generator(f"{'L' if i < C1.n else 'R'}.{g.id}", g.grading, g.f1, g.f2)
                     for i, g in enumerate(gens))
    targets = C1.targets + tuple(tuple(C1.n + j for j in ts) for ts in C2.targets)
    return BifilteredComplex.indexed(gens, targets, C1.mode)


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
    ids = [quote(g.id) for g in C.generators]
    gens = [f'    {{\n      "id": {s},\n      "gr": {g.grading},\n      "f1": {g.f1},'
            f'\n      "f2": {g.f2}\n    }}' for s, g in zip(ids, C.generators)]
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
        return complex_from_dict(json.loads(text))
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
