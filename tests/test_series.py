"""Truncated integer series arithmetic and the semistable Poincare series
recursion, with an independent partition-counting oracle for the
classifying-space series and Reineke's resolution as the oracle for the
semistable series."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reineke import reineke_series

from quiverflow import (
    Quiver,
    QuiverError,
    SeriesInvariantError,
    StabilityParam,
    TruncatedSeries,
    a2,
    codimension,
    enumerate_hn_types,
    euler_form,
    jordan2,
    nonempty_hn_types,
    poincare_BG,
    poincare_semistable,
    reconstruct_BG_check,
    shifted_param,
    star21,
    two_filtered_param,
)
from quiverflow import series
from conftest import TRIANGLE, kronecker, trace_free

KRONECKER3 = kronecker(3)


def test_series_arithmetic():
    s = TruncatedSeries(10, [1, 0, 2, 0, 3])
    t = TruncatedSeries(10, [0, 0, 1])
    assert (s + t).coeffs == (1, 0, 3, 0, 3, 0, 0, 0, 0, 0, 0)
    assert (s - t).coeffs == (1, 0, 1, 0, 3, 0, 0, 0, 0, 0, 0)
    assert (s * t).coeffs == (0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 0)
    assert s.shift(4).coeffs == (0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 0)
    assert s.shift(10).coeffs == (0,) * 10 + (1,)
    assert TruncatedSeries.one(3).coeffs == (1, 0, 0, 0)
    assert TruncatedSeries.zero(3).is_zero()
    with pytest.raises(ValueError):
        s + TruncatedSeries(8, [1])


def test_odd_powers_are_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(4, [1, 1])
    with pytest.raises(ValueError):
        TruncatedSeries(6, [0, 0, 0, 2])
    s = TruncatedSeries(6, [1])
    with pytest.raises(ValueError):
        s.shift(1)
    # an odd power past the truncation degree is dropped with the rest
    assert TruncatedSeries(4, [1, 0, 0, 0, 0, 5]).coeffs == (1, 0, 0, 0, 0)


def test_odd_max_degree():
    s = TruncatedSeries(5, [1, 0, 2])
    assert s.coeffs == (1, 0, 2, 0, 0, 0)
    assert poincare_BG((1,), 7).coeffs == (1, 0, 1, 0, 1, 0, 1, 0)
    q, v, a = star21()
    odd = poincare_semistable(q, v, a, 11).coeffs
    assert len(odd) == 12 and odd[-1] == 0
    assert odd == poincare_semistable(q, v, a, 12).coeffs[:12]


def _partition_count_oracle(n, parts):
    """Number of multisets of `parts` summing to n, by direct DP."""
    ways = [1] + [0] * n
    for p in parts:
        for k in range(p, n + 1):
            ways[k] += ways[k - p]
    return ways[n]


def test_poincare_BG_against_partition_oracle():
    for v, deg in [((1,), 6), ((2,), 8), ((3,), 10), ((2, 1), 8)]:
        s = poincare_BG(v, deg)
        parts = [2 * k for d in v for k in range(1, d + 1)]
        for n in range(deg + 1):
            assert s.coeffs[n] == _partition_count_oracle(n, parts)


def test_poincare_BG_examples():
    assert poincare_BG((1,), 6).coeffs == (1, 0, 1, 0, 1, 0, 1)
    assert poincare_BG((2,), 8).coeffs == (1, 0, 1, 0, 2, 0, 2, 0, 3)
    assert poincare_BG((), 4).coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        poincare_BG((1,), -1)
    q, v, a = a2()
    with pytest.raises(ValueError):
        poincare_semistable(q, v, a, -2)


def test_a2_semistable_both_signs():
    q, v, a = a2()
    s = poincare_semistable(q, v, a, 10)
    assert s.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    a_rev = StabilityParam.trace_free(q, v, [-1, 1])
    assert poincare_semistable(q, v, a_rev, 10).is_zero()


def test_rank_one_is_BG():
    q, v, a = a2()
    s = poincare_semistable(q, (1, 0), StabilityParam([0, 0]), 8)
    assert s.coeffs == poincare_BG((1,), 8).coeffs


def test_nonnegative_coefficients():
    for make in (a2, jordan2, star21):
        q, v, a = make()
        s = poincare_semistable(q, v, a, 16)
        assert all(c >= 0 for c in s.coeffs)


def test_reconstruct_BG_zero_residual():
    for make, deg in [(a2, 20), (jordan2, 12), (star21, 12)]:
        q, v, a = make()
        assert reconstruct_BG_check(q, v, a, deg).is_zero()
    q, v, _ = a2()
    a_rev = StabilityParam.trace_free(q, v, [-1, 1])
    assert reconstruct_BG_check(q, v, a_rev, 12).is_zero()


def _even(s_coeffs):
    """t-coefficients of the series with s = t^2 coefficients s_coeffs."""
    return [c for x in s_coeffs for c in (x, 0)]


@settings(max_examples=30, deadline=None)
@given(
    c1=st.lists(st.integers(-9, 9), max_size=6),
    c2=st.lists(st.integers(-9, 9), max_size=6),
    c3=st.lists(st.integers(-9, 9), max_size=6),
)
def test_ring_axioms(c1, c2, c3):
    n = 8
    x, y, z = (TruncatedSeries(n, _even(c)) for c in (c1, c2, c3))
    assert (x * y).coeffs == (y * x).coeffs
    assert ((x * y) * z).coeffs == (x * (y * z)).coeffs
    assert (x * (y + z)).coeffs == (x * y + x * z).coeffs


def _gaussian_binomial(m, k):
    """Coefficients of [m k] in q, by [m k] = [m-1 k-1] + q^k [m-1 k]."""
    if k == 0 or k == m:
        return [1]
    lo, hi = _gaussian_binomial(m - 1, k - 1), _gaussian_binomial(m - 1, k)
    out = [0] * (k * (m - k) + 1)
    for i, c in enumerate(lo):
        out[i] += c
    for i, c in enumerate(hi):
        out[i + k] += c
    return out


def _moduli_poincare(m, v):
    """(1 - t^2) P_ss on the m-Kronecker quiver at a = (v2, -v1), truncated
    two s-degrees past the moduli dimension 1 - <v, v>, and that dimension."""
    q = kronecker(m)
    dim = 1 - euler_form(q, v, v)
    p = poincare_semistable(q, v, StabilityParam((v[1], -v[0])), 2 * dim + 4)
    return (p - p.shift(2)).coeffs, dim


def test_kirwan_surjectivity_kronecker_moduli():
    # for coprime v and a generic parameter the moduli space M is smooth and
    # projective of dimension 1 - <v, v>, and P_t(M) = (1 - t^2) P_ss
    # (King 1994; Reineke 2003): a palindromic polynomial in t^2
    cases = [((m, (1, k)), _gaussian_binomial(m, k)) for m in (2, 3, 4, 5) for k in range(1, m)]
    cases.append(((3, (2, 3)), [1, 1, 3, 3, 3, 1, 1]))
    for (m, v), expected in cases:
        coeffs, dim = _moduli_poincare(m, v)
        poly = coeffs[: 2 * dim + 1]
        assert all(c == 0 for c in coeffs[2 * dim + 1 :])
        assert poly == poly[::-1]
        assert list(poly[::2]) == expected
    assert sum(_moduli_poincare(3, (2, 3))[0]) == 13


# slope-feasible types with empty strata: each of these raised "negative
# codimension" when the recursion read a type's codimension before its factors;
# the two Kronecker cases are also taken to degrees 60 and 80, whose
# coefficients reach 9 and 18 bits, so the packed series span many words
EMPTY_STRATUM_CASES = {
    "triangle-202": (TRIANGLE, (2, 0, 2), (-1, 0, 1), 24),
    "triangle-232": (TRIANGLE, (2, 3, 2), trace_free((2, 3, 2), (2, -1, -1)), 24),
    "kronecker3-45": (KRONECKER3, (4, 5), (5, -4), 24),
    "kronecker3-55": (KRONECKER3, (5, 5), (5, -5), 24),
    "kronecker3-45-deg60": (KRONECKER3, (4, 5), (5, -4), 60),
    "kronecker3-55-deg80": (KRONECKER3, (5, 5), (5, -5), 80),
}


@pytest.mark.parametrize("case", list(EMPTY_STRATUM_CASES))
def test_empty_strata_match_reineke(case):
    q, v, values, max_degree = EMPTY_STRATUM_CASES[case]
    a = StabilityParam.trace_free(q, v, values)
    s = poincare_semistable(q, v, a, max_degree)
    assert s.coeffs == reineke_series(q.edge_indices(), v, values, max_degree)
    assert reconstruct_BG_check(q, v, a, max_degree).is_zero()


@st.composite
def quiver_inputs(draw):
    """A quiver on 1-3 vertices with up to 4 edges (loops and parallel edges
    allowed), dims <= 3 and an arbitrary trace-free rational parameter."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    v = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)))
    base = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    names = tuple(str(i) for i in range(n))
    q = Quiver(names, tuple((names[s], names[t]) for s, t in edges))
    return q, v, trace_free(v, base)


@settings(max_examples=60)
@given(quiver_inputs())
def test_recursion_matches_reineke(inputs):
    q, v, values = inputs
    a = StabilityParam.trace_free(q, v, values)
    s = poincare_semistable(q, v, a, 12)
    assert s.coeffs == reineke_series(q.edge_indices(), v, values, 12)
    assert reconstruct_BG_check(q, v, a, 12).is_zero()
    # the semistable locus is empty or a connected open subset
    assert s.coeffs[0] in (0, 1)
    assert all(c >= 0 for c in s.coeffs)


def test_negative_exponent_is_an_invariant_error():
    # no quiver gives a nonzero term a negative power of t; force one with an
    # Euler matrix whose edge entry has the wrong sign, so <(1,0), (0,1)> = 1
    q, v, a = a2()
    object.__setattr__(q, "_euler", ((1, 1), (0, 1)))
    with pytest.raises(SeriesInvariantError) as exc:
        poincare_semistable(q, v, a, 4)
    assert not isinstance(exc.value, QuiverError)
    assert "first part (1, 0) of (1, 1)" in str(exc.value)


def test_negative_coefficient_is_an_invariant_error(monkeypatch):
    # no valid input gives P_ss a negative coefficient; force one by cutting
    # the per-dimension factor 1/(1 - s) to its constant term, so that
    # P(BG_(1,1)) = 1 while the unstable stratum still contributes s
    q, v, a = a2()
    real = series.poincare_BG

    def low(dims, max_degree):
        return TruncatedSeries.one(max_degree) if dims == (1,) else real(dims, max_degree)

    monkeypatch.setattr(series, "poincare_BG", low)
    with pytest.raises(SeriesInvariantError, match="slot") as exc:
        poincare_semistable(q, v, a, 4)
    assert not isinstance(exc.value, QuiverError)


# loops at 1 and 3, two parallel edges 1 -> 2 and a 2-cycle between 2 and 3
LOOPY = Quiver(
    ("1", "2", "3"),
    (("1", "1"), ("1", "2"), ("1", "2"), ("2", "3"), ("3", "2"), ("3", "3")),
)
LOOPY_DIMS = [(2, 0, 2), (2, 1, 1), (1, 2, 1), (0, 2, 2), (1, 1, 2)]


@pytest.mark.parametrize("d", range(2, 8))
def test_lattice_denominators_match_reineke(d):
    # entries of denominators d, d + 1 and 7, so the common denominator of
    # the shifted parameter is an lcm of unequal denominators
    base = (Fraction(d - 1, d), Fraction(5 - 2 * d, d + 1), Fraction(d - 4, 7))
    for sign, v in itertools.product((1, -1), LOOPY_DIMS):
        values = trace_free(v, [sign * x for x in base])
        a = StabilityParam.trace_free(LOOPY, v, values)
        s = poincare_semistable(LOOPY, v, a, 12)
        assert s.coeffs == reineke_series(LOOPY.edge_indices(), v, values, 12), v
        # a positive rescaling of the parameter keeps every slope comparison
        scaled = StabilityParam([Fraction(7, 3) * x for x in values])
        assert poincare_semistable(LOOPY, v, scaled, 12).coeffs == s.coeffs, v


def test_table_parts_match_their_own_series():
    # shifting the parameter by a constant changes no slope comparison, so
    # the one table of v gives every part's series under its shifted
    # parameter
    cases = [
        (KRONECKER3, (2, 3), (3, -2)),
        (KRONECKER3, (3, 3), (3, -3)),
        (TRIANGLE, (2, 2, 2), trace_free((2, 2, 2), (2, -1, -1))),
        (TRIANGLE, (1, 2, 1), trace_free((1, 2, 1), (1, 1, -3))),
    ]
    for q, v, values in cases:
        a = StabilityParam.trace_free(q, v, values)
        table = series._semistable_table(q, v, a, 12)
        assert table(v).coeffs == poincare_semistable(q, v, a, 12).coeffs
        for t in enumerate_hn_types(q, v, a, include_trivial=False):
            for part in t:
                alone = poincare_semistable(q, part, shifted_param(q, part, a), 12)
                assert table(part).coeffs == alone.coeffs, (v, part)
        assert reconstruct_BG_check(q, v, a, 12).is_zero()


def test_reconstruction_builds_one_lattice(monkeypatch):
    # every part of every type is read from the table on the lattice of v
    built = []

    class Counted(series._Lattice):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(series, "_Lattice", Counted)
    for v in [(4, 5), (5, 5)]:
        a = StabilityParam.trace_free(KRONECKER3, v, (v[1], -v[0]))
        built.clear()
        assert reconstruct_BG_check(KRONECKER3, v, a, 24).is_zero()
        assert built == [v]


@functools.cache
def _reineke_nonempty(edges, part, values) -> bool:
    return reineke_series(edges, part, values, 0)[0] == 1


def _nonempty_cases():
    """The inputs of the poincare-exact benchmark, and the four whose
    slope-feasible empty types once raised "negative codimension"."""
    star = star21()[0]
    for k in range(2, 9):
        yield star, (k, 1), two_filtered_param(star, (k, 1), "inf", -1)
    for v in itertools.product(range(5), repeat=2):
        if any(v):
            yield KRONECKER3, v, StabilityParam((v[1], -v[0]))
    for v in itertools.product(range(3), repeat=3):
        if any(v):
            yield TRIANGLE, v, StabilityParam(trace_free(v, (2, -1, -1)))
    for name in ("triangle-202", "triangle-232", "kronecker3-45", "kronecker3-55"):
        q, v, values, _ = EMPTY_STRATUM_CASES[name]
        yield q, v, StabilityParam(values)


def test_nonempty_hn_types_match_reineke():
    dropped = 0
    for q, v, a in _nonempty_cases():
        edges = tuple(q.edge_indices())

        def nonempty(part):
            return _reineke_nonempty(edges, part, shifted_param(q, part, a).values)

        every = enumerate_hn_types(q, v, a)
        got = nonempty_hn_types(q, v, a)
        assert got == [t for t in every if all(map(nonempty, t))], (q.edges, v)
        for t in got:
            codimension(q, t)
        dropped += len(every) - len(got)
    assert dropped > 0


def test_wrong_parameter_length_raises():
    q, v, _ = a2()
    for values in ([1, -1, 0], [0]):
        with pytest.raises(QuiverError, match="length"):
            poincare_semistable(q, v, StabilityParam(values), 4)
        with pytest.raises(QuiverError, match="length"):
            enumerate_hn_types(q, v, StabilityParam(values))
