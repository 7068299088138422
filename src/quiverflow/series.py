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
product with the sub-vector's Euler row. The one lattice of v gives P_ss of
every sub-vector of v (`_semistable_table`), which `nonempty_hn_types` and
`reconstruct_BG_check` read for the parts of v's types. Inside the recursion
a series is one int with a fixed-width slot per s-coefficient, so each term
is one big-int product; the slot width and the guard on it are argued in
`poincare_semistable`. `_mac`, the truncated convolution of coefficient
tuples, serves `TruncatedSeries.__mul__` alone, whose coefficients may be
negative. `reconstruct_BG_check` keeps the whole-type sum as an independent
check of the same identity.

Coefficients are exact Python ints; operations never read beyond the
truncation degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul
from typing import Callable, Sequence

from .quiver import (
    DimVector,
    HNType,
    Quiver,
    StabilityParam,
    _Lattice,
    codimension,
    enumerate_hn_types,
    rank,
)

SCoeffs = tuple[int, ...]  # coefficients in s = t^2, no trailing zero


def _trim(c: Sequence[int]) -> SCoeffs:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _mac(acc: list[int], x: SCoeffs, y: SCoeffs) -> None:
    """acc += x * y, truncated at s^(len(acc) - 1)."""
    n = len(acc)
    for i, xi in enumerate(x[:n]):
        if xi:
            for j, yj in enumerate(y[: n - i], i):
                acc[j] += xi * yj


def _pack(c: Sequence[int], k: int) -> int:
    """Nonnegative s-coefficients c as one int, c[j] in bits [k*j, k*j + k)."""
    x = 0
    for cj in reversed(c):
        x = (x << k) | cj
    return x


def _unpack(x: int, k: int, n: int) -> SCoeffs:
    """The first n k-bit slots of x as trimmed s-coefficients."""
    slot = (1 << k) - 1
    return _trim([(x >> k * j) & slot for j in range(n)])


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
        _mac(acc, self.s_coeffs, other.s_coeffs)
        return TruncatedSeries._from_s(self.max_degree, acc)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, k even and nonnegative."""
        if k < 0 or k % 2:
            raise ValueError("shift must be even and nonnegative")
        return TruncatedSeries._from_s(self.max_degree, (0,) * (k // 2) + self.s_coeffs)


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
    nonzero factors carries a negative power of t, or a coefficient leaves
    its packed slot (negative, or past the bound P(BG_v)[top]). Valid input
    never raises it."""


def poincare_semistable(
    q: Quiver,
    v: Sequence[int],
    a: StabilityParam,
    max_degree: int,
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
    call.

    Every series inside the call is one Python int with a k-bit slot per
    s-coefficient (Kronecker substitution): coefficient j sits in bits
    [k*j, k*j + k), and slots above s^top (top = max_degree // 2) are
    dropped by one AND with `mask`. A term is `acc += (p * r) << (k * e)`,
    one big-int product, and a first-part sum is masked once at its end.
    P(BG_w) is the masked product of the per-dimension factors
    `poincare_BG((d,), max_degree)`, packed once per call, so `poincare_BG`
    stays the one definition of BG. The result is unpacked once.

    The slot width k = bit_length(P(BG_v)[top]) + 1 is exact. Each P_ss(w),
    R(u, s), term and running sum is a sub-sum, term by term nonnegative, of
    the stratification identity P(BG_u) = sum over all HN types of u, for
    some u <= v. So each of its coefficients up to s^top is at most
    P(BG_u)[top] <= P(BG_v)[top] < 2^(k-1): every factor 1/(1 - s^j) has
    nonnegative coefficients, 1/(1 - s) makes them nondecreasing, and u <= v
    only drops factors. No kept slot overflows. A product's slots above
    s^top may overflow, but carries move only upward, into slots the mask
    drops. P_ss(w) = P(BG_w) - acc is nonnegative slot by slot, so the
    subtraction never borrows.

    The guard checks each new P_ss and R with one AND against `high`, the
    top bit of every slot. A negative coefficient borrows from the slot
    above and leaves its own top bit set, and a coefficient that reaches
    2^(k-1) sets it too; either raises `SeriesInvariantError`.

    A slope-feasible type with an empty stratum has some factor equal to the
    zero series. A term with a zero factor is skipped whatever its exponent,
    so empty strata drop out; a negative exponent on a term whose factors are
    both nonzero raises `SeriesInvariantError`.
    """
    v = q.check_dims(v)
    return _semistable_table(q, v, a, max_degree)(v)


def _semistable_table(
    q: Quiver, v: DimVector, a: StabilityParam, max_degree: int
) -> Callable[[Sequence[int]], TruncatedSeries]:
    """The `poincare_semistable` recursion on the lattice of v, as a map
    from each sub-vector w <= v to P_ss(w, a). Shifting a by a constant
    changes no slope comparison, so P_ss(w, a) = P_ss(w, shifted_param(w, a)),
    and one table serves every part of every HN type of v. Each P_ss is
    computed at most once, on first read."""
    if rank(v) < 1:
        raise ValueError("rank must be >= 1")
    lat = _Lattice(q, v, StabilityParam(a))
    vecs, levels, rows = lat.vecs, lat.levels, lat.rows
    top = max_degree // 2  # truncation degree in s
    k = poincare_BG(v, max_degree).s_coeffs[top].bit_length() + 1
    mask = (1 << k * (top + 1)) - 1
    high = mask // ((1 << k) - 1) << (k - 1)
    factors = [1] + [
        _pack(poincare_BG((d,), max_degree).s_coeffs, k) for d in range(1, max(v) + 1)
    ]
    found: list = [None] * len(vecs)  # packed P_ss by index
    tails: dict = {}

    def checked(x: int, u: int) -> int:
        if x & high:
            raise SeriesInvariantError(
                f"a coefficient at {vecs[u]} left its {k}-bit slot: "
                f"negative or at least 2^{k - 1}"
            )
        return x

    def first_parts(u: int, below: int, whole: bool) -> int:
        """Sum over first parts w of u with level < below; w = u only when
        `whole`."""
        acc = 0
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
            acc += (p * r) << (k * e)
        return acc & mask

    def tail(u: int, below: int) -> int:
        if not u:
            return 1
        key = (u, below)
        if key not in tails:
            tails[key] = checked(first_parts(u, below, True), u)
        return tails[key]

    def compute(w: int) -> int:
        bg = 1
        for d in vecs[w]:
            bg = bg * factors[d] & mask
        return checked(bg - first_parts(w, lat.n_levels, False), w)

    def ss(w: int) -> int:
        if found[w] is None:
            found[w] = compute(w)
        return found[w]

    def table(w: Sequence[int]) -> TruncatedSeries:
        p = ss(sum(map(mul, w, lat.strides)))
        return TruncatedSeries._from_s(max_degree, _unpack(p, k, top + 1))

    return table


def nonempty_hn_types(q: Quiver, v: Sequence[int], a: StabilityParam) -> list[HNType]:
    """The HN types of v whose stratum is nonempty, in the order of
    `enumerate_hn_types`, the trivial type (v,) included when the semistable
    locus of v is nonempty. A stratum is empty exactly when some part's
    semistable series has constant term 0 (Reineke 2003), and only a
    nonempty stratum has a codimension that `codimension` accepts."""
    table = _semistable_table(q, q.check_dims(v), a, 0)
    return [t for t in enumerate_hn_types(q, v, a) if all(table(p).s_coeffs for p in t)]


def reconstruct_BG_check(
    q: Quiver, v: Sequence[int], a: StabilityParam, max_degree: int
) -> TruncatedSeries:
    """Residual of the stratification identity, summed over whole types
    independently of the first-part recursion:

        P(BG) - [P_ss + sum_{L>=2} t^{2d} prod_i P_ss(v_i, a_i)]

    which must come out identically zero. Every P_ss is read from one table
    on the lattice of v. A type whose product of P_ss factors is zero has an
    empty stratum and is skipped before its codimension is read."""
    v = q.check_dims(v)
    table = _semistable_table(q, v, a, max_degree)
    total = table(v)
    for t in enumerate_hn_types(q, v, a, include_trivial=False):
        term = TruncatedSeries.one(max_degree)
        for part in t:
            term = term * table(part)
        if not term.is_zero():
            total = total + term.shift(2 * codimension(q, t))
    return poincare_BG(v, max_degree) - total
