"""Exact piecewise-linear functions on [0, 2] with rational breakpoints.

A function is stored as its piece list, the form the Upsilon sweep emits:
entries (t_start, (slope, intercept)) with starts strictly increasing in
[0, 2) from 0, each line in force until the next start.  Numbers are ints
or Fractions, so every comparison is exact and the sweep's integer lines
stay integers.  Breakpoints (t, value) are a view derived on request.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class PLFunction:
    """Continuous PL function on [0, 2], stored by its canonical pieces.

    Construction merges equal neighbouring lines and rejects neighbouring
    lines that do not meet at the start between them, so equal functions
    have equal piece lists.
    """

    _pieces: tuple

    def __post_init__(self):
        starts = [t for t, _ in self._pieces]
        if not starts or starts[0] != 0 or starts[-1] >= 2 or any(
                a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError("need pieces whose starts are strictly increasing "
                             "in [0, 2), the first at 0")
        out = [self._pieces[0]]
        for t, (s, b) in self._pieces[1:]:
            s0, b0 = out[-1][1]
            if (s0, b0) != (s, b):
                if (s0 - s) * t.numerator != (b - b0) * t.denominator:
                    raise ValueError(f"neighbouring pieces do not meet at t = {t}")
                out.append((t, (s, b)))
        object.__setattr__(self, "_pieces", tuple(out))

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls(((Fraction(0), (0, v)),))

    @classmethod
    def from_pieces(cls, pieces) -> "PLFunction":
        return cls(tuple(pieces))

    @classmethod
    def from_breakpoints(cls, points) -> "PLFunction":
        """The function through (t, value) points that span [0, 2]."""
        pts = [(Fraction(t), Fraction(v)) for t, v in points]
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 2:
            raise ValueError("need at least two breakpoints, spanning [0, 2]")
        if any(t0 >= t1 for (t0, _), (t1, _) in zip(pts, pts[1:])):
            raise ValueError("breakpoint t values must be strictly increasing")
        slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        return cls(tuple((t, (s, v - s * t)) for (t, v), s in zip(pts, slopes)))

    @cached_property
    def breakpoints(self) -> tuple:
        """(t, value) at every piece start and at t = 2."""
        ends = [(Fraction(t), line) for t, line in self._pieces]
        ends.append((Fraction(2), self._pieces[-1][1]))
        return tuple((t, b + s * t) for t, (s, b) in ends)

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError(f"t={t} outside [0, 2]")
        _, (s, b) = self._pieces[bisect_right(self._pieces, t, key=lambda p: p[0]) - 1]
        return b + s * t

    def pieces(self) -> tuple:
        """The stored piece list (t_start, (slope, intercept))."""
        return self._pieces

    def slopes(self):
        return tuple(s for _, (s, _) in self._pieces)
