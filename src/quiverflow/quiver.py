"""Exact combinatorics of quivers: dimension vectors, stability parameters,
slopes, Harder-Narasimhan type enumeration, and the stratum codimension formula.

Everything in this module is exact (integers and Fractions); no floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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


def _sub_vectors(v: DimVector) -> Iterator[DimVector]:
    """All componentwise 0 <= w <= v, in lexicographic order."""
    return itertools.product(*(range(x + 1) for x in v))


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

    Slope-feasible types whose stratum is empty are not pruned here. Such a
    type has a part with an empty semistable locus, i.e. a zero
    `poincare_semistable` factor, and its `codimension` may be negative and
    raise: callers that read codimensions (`reconstruct_BG_check`, the CLI
    `strata` command) skip it by that test first. `poincare_semistable`
    sums over first parts and does not enumerate types.
    """
    v = q.check_dims(v)
    # every part is a nonzero sub-vector of v: one slope per sub-vector
    slopes = {w: slope(q, w, a) for w in _sub_vectors(v) if rank(w)}

    def extend(remaining: DimVector, last_slope) -> Iterator[HNType]:
        if rank(remaining) == 0:
            yield ()
            return
        for w in _sub_vectors(remaining):
            if rank(w) == 0:
                continue
            s = slopes[w]
            if last_slope is not None and s >= last_slope:
                continue
            rest = tuple(r - x for r, x in zip(remaining, w))
            for tail in extend(rest, s):
                yield (w,) + tail

    out = [t for t in extend(v, None)]
    if not include_trivial:
        out = [t for t in out if len(t) > 1]
    out.sort(key=lambda t: tuple(itertools.chain.from_iterable(t)))
    return out


def critical_value(q: Quiver, t: HNType, a: StabilityParam) -> Fraction:
    """Value of f = ||Phi - alpha||^2 on the critical set of type t: the sum
    over the parts of rank(part) * slope(part)^2 (exact)."""
    return sum((rank(p) * slope(q, p, a) ** 2 for p in t), Fraction(0))


def euler_form(q: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Euler form <x, y> = sum_l x_l y_l - sum_{edges a} x_{out(a)} y_{in(a)}."""
    return sum(p * r for p, r in zip(x, y)) - sum(x[s] * y[t] for s, t in q._edge_indices)


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
