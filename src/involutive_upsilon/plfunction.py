"""Exact piecewise-linear functions on [0, 2] with rational breakpoints.

A function converts to and from a "piece list" (`pieces`, `from_pieces`):
entries (t_start, (slope, intercept)) that cover [0, 2], starts strictly
increasing and the first at 0.  Line coefficients are exact numbers
(ints or Fractions), so every comparison is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction


def _val(line, t):
    s, b = line
    return b + s * t


@dataclass(frozen=True)
class PLFunction:
    """Continuous PL function on [0, 2], stored by its breakpoints.

    Breakpoints are (t, value) pairs with strictly increasing rational t,
    always including t = 0 and t = 2; construction drops interior points
    that are collinear with their neighbours, so equal functions compare
    equal.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = [(Fraction(t), Fraction(v)) for t, v in self.breakpoints]
        if len(pts) < 2:
            raise ValueError("need at least the two endpoint breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 2:
            raise ValueError("breakpoints must span [0, 2]")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t0 >= t1:
                raise ValueError("breakpoint t values must be strictly increasing")
        norm = [pts[0]]
        for i in range(1, len(pts) - 1):
            t0, v0 = norm[-1]
            t1, v1 = pts[i]
            t2, v2 = pts[i + 1]
            if (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0):
                continue
            norm.append(pts[i])
        norm.append(pts[-1])
        object.__setattr__(self, "breakpoints", tuple(norm))

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls(((Fraction(0), Fraction(v)), (Fraction(2), Fraction(v))))

    @classmethod
    def from_pieces(cls, pieces) -> "PLFunction":
        pts = [(t, _val(line, t)) for t, line in pieces]
        last = pieces[-1][1]
        pts.append((Fraction(2), _val(last, Fraction(2))))
        return cls(tuple((Fraction(t), Fraction(v)) for t, v in pts))

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError(f"t={t} outside [0, 2]")
        ts = [p[0] for p in self.breakpoints]
        i = max(0, bisect_right(ts, t) - 1)
        if i == len(ts) - 1:
            i -= 1
        (t0, v0), (t1, v1) = self.breakpoints[i], self.breakpoints[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def pieces(self):
        """Piece list (t_start, (slope, intercept)) equivalent to self."""
        out = []
        for (t0, v0), (t1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            slope = (v1 - v0) / (t1 - t0)
            out.append((t0, (slope, v0 - slope * t0)))
        return out

    def slopes(self):
        return tuple(line[0] for _, line in self.pieces())

    def scale(self, c) -> "PLFunction":
        c = Fraction(c)
        return PLFunction(tuple((t, c * v) for t, v in self.breakpoints))
