"""Finitely supported double-sided nonnegative sequences.

A :class:`WindowSeq` stores the values on a finite index window and is zero
outside it, so the sequence metric

    d(x, y) = sum_i  (|x_i - y_i| ^ 1) / 2^(|i| + 1)

is a finite sum computed exactly (no series truncation).  The weights sum
to 3/2 over all of Z, which bounds the metric.

Cone classification counts strictly positive coordinates: a sequence with
exactly ``j`` positive entries lies on the ``j``-spike cone.  The count is
what :func:`exceedance_count` returns at threshold 0, and it is invariant
under positive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "WindowSeq",
    "ZERO",
    "spike",
    "dist",
    "exceedance_count",
    "cone_label",
    "scale",
]


@dataclass(frozen=True)
class WindowSeq:
    """Sequence with values ``values[i]`` at index ``lo + i`` and zero elsewhere.

    Canonical form strips leading and trailing zeros, so equality of
    canonical fields is equality of sequences; the empty window is the zero
    sequence.
    """

    lo: int
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ParameterError("sequence values must be nonnegative")
        start = 0
        end = len(vals)
        while start < end and vals[start] == 0.0:
            start += 1
        while end > start and vals[end - 1] == 0.0:
            end -= 1
        lo = self.lo + start if end > start else 0
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "values", vals[start:end])

    @property
    def hi(self) -> int:
        """Largest index inside the window (lo - 1 for the zero sequence)."""
        return self.lo + len(self.values) - 1

    @property
    def is_zero(self) -> bool:
        return not self.values

    def value_at(self, i: int) -> float:
        if self.lo <= i <= self.hi:
            return self.values[i - self.lo]
        return 0.0

    def support(self):
        """Yield (index, value) for the nonzero coordinates."""
        for off, v in enumerate(self.values):
            if v != 0.0:
                yield self.lo + off, v

    def __add__(self, other: "WindowSeq") -> "WindowSeq":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        vals = [self.value_at(i) + other.value_at(i) for i in range(lo, hi + 1)]
        return WindowSeq(lo, tuple(vals))

    def __mul__(self, lam: float) -> "WindowSeq":
        return scale(self, lam)

    __rmul__ = __mul__


ZERO = WindowSeq(0, ())


def spike(i: int, lam: float) -> WindowSeq:
    """The sequence with value ``lam`` at index ``i`` and zero elsewhere."""
    if lam <= 0:
        raise ParameterError(f"spike height must be positive, got {lam}")
    return WindowSeq(i, (float(lam),))


def dist(x: WindowSeq, y: WindowSeq) -> float:
    """Exact sequence metric; lies in [0, 3/2]."""
    if x.is_zero and y.is_zero:
        return 0.0
    lo = min(x.lo if not x.is_zero else y.lo, y.lo if not y.is_zero else x.lo)
    hi = max(x.hi if not x.is_zero else y.hi, y.hi if not y.is_zero else x.hi)
    total = 0.0
    for i in range(lo, hi + 1):
        gap = abs(x.value_at(i) - y.value_at(i))
        total += min(gap, 1.0) * 2.0 ** -(abs(i) + 1)
    return total


def exceedance_count(x: WindowSeq, u: float) -> int:
    """Number of coordinates with x_i > u (strict); u = 0 counts spikes."""
    if u < 0:
        raise ParameterError(f"threshold must be nonnegative, got {u}")
    return sum(1 for v in x.values if v > u)


def cone_label(x: WindowSeq) -> int:
    """Number of strictly positive coordinates, i.e. the exact spike count."""
    return exceedance_count(x, 0.0)


def scale(x: WindowSeq, lam: float) -> WindowSeq:
    """Coordinatewise ``lam * x`` for ``lam > 0``."""
    if lam <= 0:
        raise ParameterError(f"scaling factor must be positive, got {lam}")
    if x.is_zero:
        return ZERO
    return WindowSeq(x.lo, tuple(lam * v for v in x.values))
