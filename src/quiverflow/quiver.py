"""Exact combinatorics of quivers: dimension vectors, stability parameters,
slopes, Harder-Narasimhan type enumeration, and the stratum codimension formula.
The sub-vector lattice `_Lattice` holds what type enumeration, slope
genericity and the Poincare recursion read per sub-vector on integers: slope
levels and Euler rows from the quiver's integer Euler matrix.

Everything in this module is exact (integers and Fractions); no floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Sequence

DimVector = tuple[int, ...]
HNType = tuple[DimVector, ...]


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph. Loops and parallel edges are allowed.

    Edge order is fixed and determines the component order of representations.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (out_vertex, in_vertex) pairs

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        index = {v: i for i, v in enumerate(self.vertices)}
        for s, t in self.edges:
            if s not in index or t not in index:
                raise QuiverError(f"edge ({s}, {t}) has an undeclared endpoint")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_edge_indices", tuple((index[s], index[t]) for s, t in self.edges))
        # integer Euler matrix C = I - (edge counts): <x, y> = x^T C y
        n = len(self.vertices)
        c = [[int(i == j) for j in range(n)] for i in range(n)]
        for s, t in self._edge_indices:
            c[s][t] -= 1
        object.__setattr__(self, "_euler", tuple(map(tuple, c)))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: str) -> int:
        return self._index[v]

    def edge_indices(self) -> list[tuple[int, int]]:
        """Edges as (out_index, in_index) pairs."""
        return list(self._edge_indices)

    def check_dims(self, v: Sequence[int]) -> DimVector:
        v = tuple(int(x) for x in v)
        if len(v) != self.n_vertices:
            raise QuiverError(
                f"dimension vector has {len(v)} entries, quiver has {self.n_vertices} vertices"
            )
        if any(x < 0 for x in v):
            raise QuiverError("dimension vector entries must be nonnegative")
        return v


def rank(v: Sequence[int]) -> int:
    return sum(v)


@dataclass(frozen=True)
class StabilityParam:
    """Per-vertex rationals a_l encoding the central parameter (a_l is real,
    the purely imaginary parameter itself is recovered as -i*a_l).

    Use :meth:`trace_free` to build a parameter validated against the total
    dimension vector; the plain constructor is the unchecked escape hatch for
    stratum-shifted parameters.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Sequence):
        object.__setattr__(self, "values", tuple(Fraction(x) for x in values))

    @classmethod
    def trace_free(cls, q: Quiver, v: Sequence[int], values: Sequence) -> "StabilityParam":
        v = q.check_dims(v)
        a = cls(values)
        if len(a.values) != q.n_vertices:
            raise QuiverError("stability parameter length does not match vertex count")
        t = sum(x * d for x, d in zip(a.values, v))
        if t != 0:
            raise QuiverError(f"trace_free_violation: sum a_l v_l = {t} != 0")
        return a

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def degree(q: Quiver, v: Sequence[int], a: StabilityParam) -> Fraction:
    """alpha-degree: sum a_l v_l (exact)."""
    v = q.check_dims(v)
    if len(a) != q.n_vertices:
        raise QuiverError("stability parameter length does not match vertex count")
    return sum((x * d for x, d in zip(a, v)), Fraction(0))


def slope(q: Quiver, v: Sequence[int], a: StabilityParam) -> Fraction:
    """alpha-slope: degree/rank. Undefined (raises) for rank zero."""
    v = q.check_dims(v)
    r = rank(v)
    if r == 0:
        raise QuiverError("slope undefined for rank-zero dimension vector")
    return degree(q, v, a) / r


class _Lattice:
    """The sub-vectors w <= v of one dimension vector, on integers.

    w has the mixed-radix index idx(w) = sum_l w_l * stride_l, so index order
    is lexicographic order and idx(u - w) = idx(u) - idx(w); idx(v) is the
    last index. Per index the lattice holds the sub-vector (`vecs`), its rank,
    its degree on the common denominator `denom` of a, its slope level and its
    Euler row w^T C (`rows`, C the quiver's Euler matrix), so <w, x> is
    rows[idx(w)] . x. Levels number the distinct slopes of the nonzero
    sub-vectors in increasing order, equal slopes sharing one; the zero vector
    gets `n_levels`, above every level, so `levels[w] < below` never admits
    it.
    """

    def __init__(self, q: Quiver, v: DimVector, a: StabilityParam):
        if len(a) != q.n_vertices:
            raise QuiverError("stability parameter length does not match vertex count")
        self.strides = tuple(math.prod(x + 1 for x in v[l + 1 :]) for l in range(len(v)))
        self.vecs = list(itertools.product(*(range(x + 1) for x in v)))
        self.ranks = [sum(w) for w in self.vecs]
        self.denom = math.lcm(*(x.denominator for x in a))
        scaled = [x.numerator * (self.denom // x.denominator) for x in a]
        self.degrees = [sum(map(operator.mul, scaled, w)) for w in self.vecs]
        # each slope as its reduced (degree, rank), so equal slopes share a
        # key; ranks are positive, so keys order by cross-multiplying
        keys = []
        for d, r in zip(self.degrees[1:], self.ranks[1:]):
            g = math.gcd(d, r)
            keys.append((d // g, r // g))
        order = sorted(set(keys), key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
        level = {k: i for i, k in enumerate(order)}
        self.n_levels = len(order)
        self.levels = [self.n_levels] + [level[k] for k in keys]
        cols = tuple(zip(*q._euler))
        self.rows = [tuple(sum(map(operator.mul, w, c)) for c in cols) for w in self.vecs]
        self._subs: dict[int, list[int]] = {}

    def subs(self, i: int) -> list[int]:
        """Indices of the sub-vectors of vecs[i], zero and i included, in
        increasing order."""
        out = self._subs.get(i)
        if out is None:
            out = [0]
            for x, stride in zip(self.vecs[i], self.strides):
                out = [j + k * stride for j in out for k in range(x + 1)]
            self._subs[i] = out
        return out


def check_hn_type(q: Quiver, v: Sequence[int], a: StabilityParam, t: HNType) -> None:
    """Validate HNType invariants: nonzero parts summing to v, slopes strictly
    decreasing."""
    v = q.check_dims(v)
    if len(t) < 1:
        raise QuiverError("HN type must have at least one part")
    if any(rank(p) == 0 for p in t):
        raise QuiverError("HN type parts must be nonzero")
    total = tuple(sum(col) for col in zip(*t))
    if total != v:
        raise QuiverError("HN type parts do not sum to the ambient dimension vector")
    slopes = [slope(q, p, a) for p in t]
    if any(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:])):
        raise QuiverError("HN type slopes must be strictly decreasing")


def enumerate_hn_types(
    q: Quiver, v: Sequence[int], a: StabilityParam, include_trivial: bool = True
) -> list[HNType]:
    """All ordered compositions of v into nonzero parts with strictly
    decreasing slopes, in lexicographic order on the flattened tuple.

    Slope-feasible types whose stratum is empty are not pruned here, and
    the `codimension` of such a type may be negative and raise;
    `series.nonempty_hn_types` gives the types with a nonempty stratum.
    """
    # every part is a nonzero sub-vector of v: slopes compare as lattice levels
    lat = _Lattice(q, q.check_dims(v), a)
    vecs, levels = lat.vecs, lat.levels

    def extend(remaining: int, below: int) -> Iterator[HNType]:
        if not remaining:
            yield ()
            return
        for w in lat.subs(remaining):
            if levels[w] < below:
                for tail in extend(remaining - w, levels[w]):
                    yield (vecs[w],) + tail

    out = list(extend(len(vecs) - 1, lat.n_levels))
    if not include_trivial:
        out = [t for t in out if len(t) > 1]
    out.sort(key=lambda t: tuple(itertools.chain.from_iterable(t)))
    return out


def critical_value(q: Quiver, t: HNType, a: StabilityParam) -> Fraction:
    """Value of f = ||Phi - alpha||^2 on the critical set of type t: the sum
    over the parts of rank(part) * slope(part)^2 (exact)."""
    return sum((rank(p) * slope(q, p, a) ** 2 for p in t), Fraction(0))


def euler_form(q: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Euler form <x, y> = sum_l x_l y_l - sum_{edges a} x_{out(a)} y_{in(a)},
    read as x^T C y from the quiver's integer Euler matrix C."""
    return sum(p * sum(map(operator.mul, row, y)) for p, row in zip(x, q._euler) if p)


def codimension(q: Quiver, t: HNType) -> int:
    """Complex codimension of the HN stratum of type t:

        dim Rep^LT - dim g_C^LT = -sum_{j<k} <v_j, v_k>

    (blocks below the diagonal map higher-slope summands to lower-slope ones).
    A negative value signals an invalid type for this quiver and raises.
    """
    d = -sum(euler_form(q, t[j], t[k]) for j in range(len(t)) for k in range(j + 1, len(t)))
    if d < 0:
        raise QuiverError(f"negative codimension {d}: invalid HN type for this quiver")
    return d


def two_filtered_param(
    q: Quiver, v: Sequence[int], vertex_infty: str, abar
) -> StabilityParam:
    """Stability parameter forcing all HN filtrations to have length <= 2.

    Requires v[vertex_infty] == 1 and abar < 0. Every vertex except
    vertex_infty gets abar; vertex_infty gets -abar * (sum of the other
    ranks), which makes the parameter trace-free.
    """
    v = q.check_dims(v)
    abar = Fraction(abar)
    if abar >= 0:
        raise QuiverError("abar must be negative")
    i_inf = q.vertex_index(vertex_infty)
    if v[i_inf] != 1:
        raise QuiverError(f"v[{vertex_infty}] must be 1, got {v[i_inf]}")
    rest = sum(x for i, x in enumerate(v) if i != i_inf)
    values = [abar] * q.n_vertices
    values[i_inf] = -abar * rest
    return StabilityParam.trace_free(q, v, values)


def shifted_param(q: Quiver, part: Sequence[int], a: StabilityParam) -> StabilityParam:
    """Trace-free parameter for a graded piece: a_l - mu_a(part) on every
    vertex (unchecked constructor; trace-free against `part` by construction).
    """
    mu = slope(q, part, a)
    return StabilityParam([x - mu for x in a])
