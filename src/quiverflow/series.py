"""Truncated integer power series in s = t^2 and the recursive formula for
the equivariant Poincare series of the semistable locus.

Every series here has only even powers of t: P(BG_v) is a product of
1/(1 - t^{2k}) and every codimension enters as t^{2 codim}. A
`TruncatedSeries` therefore stores its coefficients in s = t^2, trimmed of
trailing zeros, and rejects a nonzero odd power of t. Its constructor,
`coeffs` and `max_degree` stay in t.

The HN stratification is equivariantly perfect, so P(BG_v) is the sum over HN
types of t^{2 codim} times the product of the parts' semistable series. The
codimension -sum_{j<k} <v_j, v_k> splits after the first part, and
`poincare_semistable` sums over first parts rather than over whole types,
and no type is enumerated. It runs on integers over the sub-vector lattice
of v (`quiver._Lattice`), built once per call: a sub-vector is its
mixed-radix index, a slope is an integer level and an exponent is a dot
product with the sub-vector's Euler row. Inside the recursion a series is a
plain tuple of s-coefficients, and each term is added by `_mac`, the one
truncated convolution of the module, which `TruncatedSeries.__mul__` calls
too. `reconstruct_BG_check` keeps the whole-type sum as an independent check
of the same identity.

Coefficients are exact Python ints; operations never read beyond the
truncation degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul
from typing import Sequence

from .quiver import (
    Quiver,
    StabilityParam,
    _Lattice,
    codimension,
    enumerate_hn_types,
    rank,
    shifted_param,
    slope,
)

SCoeffs = tuple[int, ...]  # coefficients in s = t^2, no trailing zero


def _trim(c: Sequence[int]) -> SCoeffs:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _mac(acc: list[int], x: SCoeffs, y: SCoeffs, e: int) -> None:
    """acc += s^e * x * y, truncated at s^(len(acc) - 1); 0 <= e < len(acc)."""
    n = len(acc) - e
    for i, xi in enumerate(x[:n], e):
        if xi:
            for j, yj in enumerate(y[: n + e - i], i):
                acc[j] += xi * yj


def _geometric(c: list[int], j: int) -> None:
    """c /= (1 - s^j) in place, truncated at s^(len(c) - 1); j >= 1."""
    for i in range(j, len(c)):
        c[i] += c[i - j]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer-coefficient power series in t with only even powers, truncated
    at t^max_degree and stored in s = t^2."""

    max_degree: int
    s_coeffs: SCoeffs

    def __init__(self, max_degree: int, coeffs: Sequence[int] = ()):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        c = list(map(int, coeffs))[: max_degree + 1]
        if any(c[1::2]):
            raise ValueError("odd power of t with a nonzero coefficient")
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "s_coeffs", _trim(c[::2]))

    @classmethod
    def _from_s(cls, max_degree: int, s: Sequence[int]) -> "TruncatedSeries":
        out = object.__new__(cls)
        object.__setattr__(out, "max_degree", max_degree)
        object.__setattr__(out, "s_coeffs", _trim(s[: max_degree // 2 + 1]))
        return out

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of t^0 .. t^max_degree."""
        c = [0] * (self.max_degree + 1)
        c[: 2 * len(self.s_coeffs) : 2] = self.s_coeffs
        return tuple(c)

    @classmethod
    def one(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, [1])

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, [])

    def is_zero(self) -> bool:
        return not self.s_coeffs

    def _check(self, other: "TruncatedSeries") -> None:
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degrees differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        pairs = zip_longest(self.s_coeffs, other.s_coeffs, fillvalue=0)
        return TruncatedSeries._from_s(self.max_degree, [x + y for x, y in pairs])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        pairs = zip_longest(self.s_coeffs, other.s_coeffs, fillvalue=0)
        return TruncatedSeries._from_s(self.max_degree, [x - y for x, y in pairs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        acc = [0] * (self.max_degree // 2 + 1)
        _mac(acc, self.s_coeffs, other.s_coeffs, 0)
        return TruncatedSeries._from_s(self.max_degree, acc)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, k even and nonnegative."""
        if k < 0 or k % 2:
            raise ValueError("shift must be even and nonnegative")
        return TruncatedSeries._from_s(self.max_degree, (0,) * (k // 2) + self.s_coeffs)

    def geometric_factor(self, k: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - t^k), k even and >= 2."""
        if k < 2 or k % 2:
            raise ValueError("k must be even and >= 2")
        out = list(self.s_coeffs) + [0] * (self.max_degree // 2 + 1 - len(self.s_coeffs))
        _geometric(out, k // 2)
        return TruncatedSeries._from_s(self.max_degree, out)


def poincare_BG(v: Sequence[int], max_degree: int) -> TruncatedSeries:
    """Series of the classifying space of prod_l U(v_l):

        prod_l prod_{k=1..v_l} 1/(1 - t^{2k}),  truncated.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    c = [1] + [0] * (max_degree // 2)
    for d in v:
        for k in range(1, d + 1):
            _geometric(c, k)
    return TruncatedSeries._from_s(max_degree, c)


class SeriesInvariantError(RuntimeError):
    """An internal invariant of the Poincare recursion failed: a term with
    nonzero factors carries a negative power of t. Valid input never raises
    it."""


def poincare_semistable(
    q: Quiver,
    v: Sequence[int],
    a: StabilityParam,
    max_degree: int,
    _memo: dict | None = None,
) -> TruncatedSeries:
    """Equivariant Poincare series of the semistable locus, computed by the
    Morse-stratification recursion summed over the first HN part.

    Over whole types the recursion reads

        P_ss(v) = P(BG_v) - sum_{types L>=2} t^{2 codim} prod_i P_ss(v_i, a_i)

    where a_i is the slope-shifted trace-free parameter of the i-th graded
    piece and codim = -sum_{j<k} <v_j, v_k> (`euler_form`). The codimension
    splits after the first part w, so the types sharing w sum to

        P_ss(v) = P(BG_v) - sum_{0<w<v} t^{-2<w, v-w>} P_ss(w) R(v-w, mu(w))
        R(u, s) = sum_{0<w<=u, mu(w)<s} t^{-2<w, u-w>} P_ss(w) R(u-w, mu(w))
        R(0, s) = 1

    R(u, s) is the whole-type sum of t^{2 codim} prod_i P_ss(v_i) over the HN
    types of u whose first slope is below s. Shifting the parameter leaves
    every slope comparison unchanged, so the whole recursion runs on the
    sub-vector lattice of v: sub-vectors are mixed-radix indices (the index
    of u - w is idx(u) - idx(w)), slopes are integer levels over the common
    denominator of a, compared once per call, and the exponent -<w, u-w> is
    the dot product of w's Euler row with u - w. No Fraction is built per
    sub-vector. P_ss is kept per index and R per (index, level) within the
    call; only a caller-shared `_memo` keys P_ss on exact (w, a_w,
    max_degree), so it serves calls on other dimension vectors and degrees,
    and a call whose (v, a_v, max_degree) it holds builds no lattice.
    Both are trimmed s-coefficient tuples, the zero series is (), and each
    term is accumulated in place by `_mac`.

    A slope-feasible type with an empty stratum has some factor equal to the
    zero series. A term with a zero factor is skipped whatever its exponent,
    so empty strata drop out; a negative exponent on a term whose factors are
    both nonzero raises `SeriesInvariantError`.
    """
    v = q.check_dims(v)
    if rank(v) < 1:
        raise ValueError("rank must be >= 1")
    a = StabilityParam(a)

    def key(vec, mu):
        return (vec, tuple(x - mu for x in a.values), max_degree)

    if _memo is not None:
        known = _memo.get(key(v, slope(q, v, a)))
        if known is not None:
            return TruncatedSeries._from_s(max_degree, known)
    lat = _Lattice(q, v, a)
    vecs, levels, rows = lat.vecs, lat.levels, lat.rows
    top = max_degree // 2  # truncation degree in s
    found: list = [None] * len(vecs)  # P_ss by index; the memo unless shared
    tails: dict = {}

    def first_parts(u: int, below: int, whole: bool) -> list[int]:
        """Sum over first parts w of u with level < below; w = u only when
        `whole`."""
        acc = [0] * (top + 1)
        ws = lat.subs(u)
        for w in ws if whole else ws[:-1]:
            if levels[w] >= below:
                continue
            p = found[w] or ss(w)
            if not p:
                continue
            rest = u - w
            e = -sum(map(mul, rows[w], vecs[rest]))
            if e > top:
                continue
            r = tail(rest, levels[w])
            if not r:
                continue
            if e < 0:
                raise SeriesInvariantError(
                    f"negative exponent {e} on a nonzero term: "
                    f"first part {vecs[w]} of {vecs[u]}"
                )
            _mac(acc, p, r, e)
        return acc

    def tail(u: int, below: int) -> SCoeffs:
        if not u:
            return (1,)
        key = (u, below)
        if key not in tails:
            tails[key] = _trim(first_parts(u, below, True))
        return tails[key]

    def compute(w: int) -> SCoeffs:
        bg = poincare_BG(vecs[w], max_degree).s_coeffs
        return _trim([x - y for x, y in zip(bg, first_parts(w, lat.n_levels, False))])

    def ss(w: int) -> SCoeffs:
        if found[w] is None:
            if _memo is None:
                found[w] = compute(w)
            else:
                k = key(vecs[w], lat.slope(w))
                if k not in _memo:
                    _memo[k] = compute(w)
                found[w] = _memo[k]
        return found[w]

    return TruncatedSeries._from_s(max_degree, ss(len(vecs) - 1))


def reconstruct_BG_check(
    q: Quiver, v: Sequence[int], a: StabilityParam, max_degree: int
) -> TruncatedSeries:
    """Residual of the stratification identity, summed over whole types
    independently of the first-part recursion:

        P(BG) - [P_ss + sum_{L>=2} t^{2d} prod_i P_ss(v_i, a_i)]

    which must come out identically zero. A type whose product of P_ss
    factors is zero has an empty stratum and is skipped before its
    codimension is read."""
    v = q.check_dims(v)
    memo: dict = {}
    total = poincare_semistable(q, v, a, max_degree, _memo=memo)
    for t in enumerate_hn_types(q, v, a, include_trivial=False):
        term = TruncatedSeries.one(max_degree)
        for part in t:
            term = term * poincare_semistable(
                q, part, shifted_param(q, part, a), max_degree, _memo=memo
            )
        if not term.is_zero():
            total = total + term.shift(2 * codimension(q, t))
    return poincare_BG(v, max_degree) - total
