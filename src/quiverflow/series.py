"""Truncated integer power series in t and the recursive formula for the
equivariant Poincare series of the semistable locus.

Coefficients are exact Python ints; operations never read beyond the
truncation degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .quiver import (
    DimVector,
    Quiver,
    StabilityParam,
    codimension,
    enumerate_hn_types,
    rank,
    shifted_param,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer-coefficient power series in t, truncated at max_degree."""

    max_degree: int
    coeffs: tuple[int, ...]

    def __init__(self, max_degree: int, coeffs: Sequence[int] = ()):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        c = list(coeffs)[: max_degree + 1]
        c += [0] * (max_degree + 1 - len(c))
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    @classmethod
    def one(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, [1])

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, [])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degrees differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.max_degree, [x + y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            self.max_degree, [x - y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.max_degree
        out = [0] * (n + 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += x * y
        return TruncatedSeries(n, out)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries(self.max_degree, [0] * k + list(self.coeffs))

    def geometric_factor(self, k: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - t^k), k >= 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = list(self.coeffs)
        for i in range(k, self.max_degree + 1):
            out[i] += out[i - k]
        return TruncatedSeries(self.max_degree, out)


def poincare_BG(v: Sequence[int], max_degree: int) -> TruncatedSeries:
    """Series of the classifying space of prod_l U(v_l):

        prod_l prod_{k=1..v_l} 1/(1 - t^{2k}),  truncated.
    """
    s = TruncatedSeries.one(max_degree)
    for d in v:
        for k in range(1, d + 1):
            s = s.geometric_factor(2 * k)
    return s


def poincare_semistable(
    q: Quiver,
    v: Sequence[int],
    a: StabilityParam,
    max_degree: int,
    _memo: dict | None = None,
) -> TruncatedSeries:
    """Equivariant Poincare series of the semistable locus, computed by the
    Morse-stratification recursion:

        P_ss(v, a) = P(BG_v) - sum_{types L>=2} t^{2d} prod_i P_ss(v_i, a_i)

    where a_i is the slope-shifted trace-free parameter of the i-th graded
    piece. Slope-feasible types with empty strata come out as the zero series
    and self-correct. Memoized on exact (v, a) keys.
    """
    v = q.check_dims(v)
    if rank(v) < 1:
        raise ValueError("rank must be >= 1")
    memo = _memo if _memo is not None else {}

    def rec(w: DimVector, aw: StabilityParam) -> TruncatedSeries:
        key = (w, aw.values)
        if key in memo:
            return memo[key]
        out = poincare_BG(w, max_degree)
        for t in enumerate_hn_types(q, w, aw, include_trivial=False):
            term = TruncatedSeries.one(max_degree)
            for part in t:
                term = term * rec(part, shifted_param(q, part, aw))
            out = out - term.shift(2 * codimension(q, t))
        memo[key] = out
        return out

    return rec(v, StabilityParam(a))


def reconstruct_BG_check(
    q: Quiver, v: Sequence[int], a: StabilityParam, max_degree: int
) -> TruncatedSeries:
    """Residual of the stratification identity

        P(BG) - [P_ss + sum_{L>=2} t^{2d} prod_i P_ss(v_i, a_i)]

    which must come out identically zero."""
    v = q.check_dims(v)
    memo: dict = {}
    total = poincare_semistable(q, v, a, max_degree, _memo=memo)
    for t in enumerate_hn_types(q, v, a, include_trivial=False):
        term = TruncatedSeries.one(max_degree)
        for part in t:
            term = term * poincare_semistable(
                q, part, shifted_param(q, part, a), max_degree, _memo=memo
            )
        total = total + term.shift(2 * codimension(q, t))
    return poincare_BG(v, max_degree) - total
