"""Exact piecewise-linear functions on [0, 2] with rational breakpoints.

A function is stored as its piece list, the form the Upsilon sweep emits:
entries (start, (slope, intercept)) with starts strictly increasing in
[0, 2) from 0, each line in force until the next start.  A start is
stored as a reduced integer pair (num, den) with den > 0, so construction
checks the starts by cross-multiplication and builds no Fraction.  Lines
are ints or Fractions, so every comparison is exact and the sweep's
integer lines stay integers.  `pieces()`, `breakpoints` and evaluation
give the starts as Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd


@dataclass(frozen=True)
class PLFunction:
    """Continuous PL function on [0, 2], stored by its canonical pieces
    ((num, den), (slope, intercept)), den > 0.

    Construction reduces the starts, merges equal neighbouring lines and
    rejects neighbouring lines that do not meet at the start between them,
    so equal functions have equal piece lists.
    """

    _pieces: tuple

    def __post_init__(self):
        pieces = self._pieces
        if (not pieces or pieces[0][0][0] != 0 or pieces[-1][0][0] >= 2 * pieces[-1][0][1]
                or any(a * d >= b * c for ((a, c), _), ((b, d), _) in zip(pieces, pieces[1:]))):
            raise ValueError("need pieces whose starts are strictly increasing "
                             "in [0, 2), the first at 0")
        s0, b0 = line0 = pieces[0][1]
        out = [((0, 1), line0)]
        for (num, den), line in pieces[1:]:
            if line != line0:
                s, b = line
                if (s0 - s) * num != (b - b0) * den:
                    raise ValueError(f"neighbouring pieces do not meet at t = "
                                     f"{Fraction(num, den)}")
                g = gcd(num, den)
                out.append(((num // g, den // g), line))
                s0, b0 = line0 = line
        object.__setattr__(self, "_pieces", tuple(out))

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls((((0, 1), (0, v)),))

    @classmethod
    def from_pieces(cls, pieces) -> "PLFunction":
        """The function of pieces (t_start, (slope, intercept)), t_start an int or a Fraction."""
        return cls(tuple(((t.numerator, t.denominator), line) for t, line in pieces))

    @classmethod
    def from_breakpoints(cls, points) -> "PLFunction":
        """The function through (t, value) points that span [0, 2]."""
        pts = [(Fraction(t), Fraction(v)) for t, v in points]
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 2:
            raise ValueError("need at least two breakpoints, spanning [0, 2]")
        if any(t0 >= t1 for (t0, _), (t1, _) in zip(pts, pts[1:])):
            raise ValueError("breakpoint t values must be strictly increasing")
        slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        return cls.from_pieces((t, (s, v - s * t)) for (t, v), s in zip(pts, slopes))

    @cached_property
    def breakpoints(self) -> tuple:
        """(t, value) at every piece start and at t = 2."""
        ends = [*self.pieces(), (Fraction(2), self._pieces[-1][1])]
        return tuple((t, b + s * t) for t, (s, b) in ends)

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError(f"t={t} outside [0, 2]")
        _, (s, b) = self._pieces[bisect_right(self._pieces, t, key=lambda p: Fraction(*p[0])) - 1]
        return b + s * t

    def pieces(self) -> tuple:
        """The piece list (t_start, (slope, intercept)), starts as Fractions."""
        return tuple((Fraction(num, den), line) for (num, den), line in self._pieces)

    def slopes(self):
        return tuple(s for _, (s, _) in self._pieces)
