"""Exact combinatorics: dimension vectors, slopes, HN type enumeration, and
the codimension formula, cross-checked against independent brute-force
oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverflow import (
    Quiver,
    QuiverError,
    StabilityParam,
    a2,
    check_hn_type,
    codimension,
    critical_value,
    degree,
    enumerate_hn_types,
    euler_form,
    jordan2,
    nonempty_hn_types,
    rank,
    shifted_param,
    slope,
    star21,
    two_filtered_param,
)
from quiverflow import quiver as quiver_module
from conftest import TRIANGLE, kronecker, trace_free


def test_quiver_validation():
    with pytest.raises(QuiverError):
        Quiver(("1", "1"), ())
    with pytest.raises(QuiverError):
        Quiver(("1",), (("1", "2"),))
    q = Quiver(("1",), (("1", "1"), ("1", "1")))  # loops and parallels allowed
    assert q.n_vertices == 1 and len(q.edges) == 2


def test_check_dims():
    q, _, _ = a2()
    with pytest.raises(QuiverError):
        q.check_dims((1,))
    with pytest.raises(QuiverError):
        q.check_dims((1, -1))
    assert q.check_dims([2, 3]) == (2, 3)


def test_stability_param_trace_free():
    q, v, _ = a2()
    a = StabilityParam.trace_free(q, v, [1, -1])
    assert a.values == (Fraction(1), Fraction(-1))
    with pytest.raises(QuiverError, match="trace_free_violation"):
        StabilityParam.trace_free(q, v, [1, 1])
    # the unchecked constructor is the escape hatch for shifted parameters
    StabilityParam([1, 1])


def test_degree_slope_exact():
    q, v, a = star21()
    assert degree(q, (1, 1), a) == Fraction(1)
    assert slope(q, (1, 1), a) == Fraction(1, 2)
    assert slope(q, (2, 1), a) == 0
    with pytest.raises(QuiverError):
        slope(q, (0, 0), a)


def test_shifted_param_trace_free_on_part():
    q, v, a = star21()
    part = (1, 1)
    a_s = shifted_param(q, part, a)
    assert sum(x * d for x, d in zip(a_s, part)) == 0
    assert a_s.values == (Fraction(-3, 2), Fraction(3, 2))


def _brute_types(q, v, a):
    """Oracle: enumerate all sequences of nonzero componentwise parts summing
    to v by explicit DFS over the full product lattice, then filter by the
    strict slope decrease, independently of the library's generator."""
    all_sub = [
        w
        for w in itertools.product(*(range(x + 1) for x in v))
        if sum(w) > 0
    ]
    found = set()

    def go(remaining, acc):
        if sum(remaining) == 0:
            slopes = [slope(q, p, a) for p in acc]
            if all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:])):
                found.add(tuple(acc))
            return
        for w in all_sub:
            if all(x <= r for x, r in zip(w, remaining)):
                go(tuple(r - x for r, x in zip(remaining, w)), acc + [w])

    go(v, [])
    return found


@pytest.mark.parametrize(
    "make,v",
    [
        (a2, (1, 1)),
        (a2, (2, 2)),
        (star21, (2, 1)),
        (star21, (3, 1)),
        (jordan2, (3,)),
    ],
)
def test_enumerate_types_against_oracle(make, v):
    q, v0, a = make()
    if len(v) != q.n_vertices:
        pytest.skip("dimension mismatch")
    # rescale a to stay trace-free against v
    t = sum(Fraction(x) * d for x, d in zip(a, v))
    vals = [Fraction(x) - t / rank(v) for x in a]
    a = StabilityParam.trace_free(q, v, vals)
    got = enumerate_hn_types(q, v, a)
    assert set(got) == _brute_types(q, v, a)
    # lexicographic order on the flattened tuples is the output contract
    keys = [tuple(itertools.chain.from_iterable(t)) for t in got]
    assert keys == sorted(keys)
    for t in got:
        check_hn_type(q, v, a, t)


KRONECKER3 = kronecker(3)


def _reference_types(q, v, a):
    """The HN types of v in enumerate_hn_types' order: a depth-first search
    over nonzero parts with strictly decreasing slopes, the slopes taken from
    the degree formula, sorted by the flattened tuple."""

    def mu(w):
        return sum(Fraction(x) * d for x, d in zip(a, w)) / sum(w)

    def go(remaining, last):
        if not any(remaining):
            yield ()
            return
        for w in itertools.product(*(range(x + 1) for x in remaining)):
            if any(w) and (last is None or mu(w) < last):
                for tail in go(tuple(r - x for r, x in zip(remaining, w)), mu(w)):
                    yield (w,) + tail

    return sorted(go(v, None), key=lambda t: tuple(itertools.chain.from_iterable(t)))


def _enumeration_cases():
    star = star21()[0]
    for k in range(1, 7):
        yield star, (k, 1), two_filtered_param(star, (k, 1), "inf", -1)
    for v in itertools.product(range(6), range(6)):
        yield KRONECKER3, v, StabilityParam([v[1], -v[0]])
    for v in itertools.product(range(3), repeat=3):
        if any(v):
            yield TRIANGLE, v, StabilityParam(trace_free(v, (2, -1, -1)))


def test_enumerate_hn_types_computes_each_slope_once(monkeypatch):
    calls = []
    real_slope = quiver_module.slope

    def counting_slope(q, w, a):
        calls.append(tuple(w))
        return real_slope(q, w, a)

    monkeypatch.setattr(quiver_module, "slope", counting_slope)
    for q, v, a in _enumeration_cases():
        calls.clear()
        got = enumerate_hn_types(q, v, a)
        # slopes compare as integer levels of the sub-vector lattice, so no
        # Fraction slope is computed at all
        assert calls == [], (q.edges, v)
        assert got == _reference_types(q, v, a), (q.edges, v)


def _lattice_cases():
    """Quivers with loops, parallel edges and a vertex of dimension 0, under
    parameters whose denominators differ."""
    loopy = Quiver(
        ("1", "2", "3"), (("1", "1"), ("1", "2"), ("1", "2"), ("2", "3"), ("3", "2"))
    )
    yield loopy, (2, 0, 2), StabilityParam([Fraction(1, 2), Fraction(3, 5), Fraction(-1, 2)])
    yield loopy, (1, 2, 3), StabilityParam([Fraction(-1, 7), Fraction(1, 6), 0])
    yield KRONECKER3, (3, 2), StabilityParam([2, -3])
    q, v, a = star21()
    yield q, (3, 1), StabilityParam([Fraction(-2, 3), Fraction(4, 9)])


def test_lattice_matches_exact_slopes_and_euler_form():
    for q, v, a in _lattice_cases():
        lat = quiver_module._Lattice(q, v, a)
        vecs = list(itertools.product(*(range(x + 1) for x in v)))
        assert lat.vecs == vecs
        for i, u in enumerate(vecs):
            # the mixed-radix index, so idx(u - w) = idx(u) - idx(w)
            assert i == sum(x * s for x, s in zip(u, lat.strides))
            below = [j for j, w in enumerate(vecs) if all(x <= y for x, y in zip(w, u))]
            assert lat.subs(i) == below
            for w in vecs:
                # <u, w> from the edge list, independently of the Euler matrix
                plain = sum(x * y for x, y in zip(u, w)) - sum(
                    u[s] * w[t] for s, t in q.edge_indices()
                )
                assert sum(x * y for x, y in zip(lat.rows[i], w)) == plain
                assert euler_form(q, u, w) == plain
        assert lat.levels[0] == lat.n_levels
        mu = {i: slope(q, w, a) for i, w in enumerate(vecs) if i}
        for i in mu:
            for j in mu:
                assert (lat.levels[i] < lat.levels[j]) == (mu[i] < mu[j])
                assert (lat.levels[i] == lat.levels[j]) == (mu[i] == mu[j])
        assert enumerate_hn_types(q, v, a) == _reference_types(q, v, a)


def test_enumerate_a2_explicit():
    q, v, a = a2()
    assert enumerate_hn_types(q, v, a) == [((1, 0), (0, 1)), ((1, 1),)]
    assert enumerate_hn_types(q, v, a, include_trivial=False) == [((1, 0), (0, 1))]


def test_check_hn_type_rejects():
    q, v, a = a2()
    with pytest.raises(QuiverError):
        check_hn_type(q, v, a, ((0, 1), (1, 0)))  # increasing slopes
    with pytest.raises(QuiverError):
        check_hn_type(q, v, a, ((1, 0),))  # wrong total
    with pytest.raises(QuiverError):
        check_hn_type(q, v, a, ())


def _codim_oracle(q, t):
    """Oracle: count matrix entries below the block diagonal one by one."""
    L = len(t)
    dims = tuple(sum(col) for col in zip(*t))

    def block_of(l, idx):
        acc = 0
        for s, part in enumerate(t):
            acc += part[l]
            if idx < acc:
                return s
        raise IndexError

    rep = 0
    for out_i, in_i in q.edge_indices():
        for i in range(dims[in_i]):
            for j in range(dims[out_i]):
                if block_of(in_i, i) > block_of(out_i, j):
                    rep += 1
    gauge = 0
    for l in range(q.n_vertices):
        for i in range(dims[l]):
            for j in range(dims[l]):
                if block_of(l, i) > block_of(l, j):
                    gauge += 1
    return rep - gauge


def test_codimension_values():
    q, v, a = a2()
    assert codimension(q, ((1, 0), (0, 1))) == 1
    assert codimension(q, ((1, 1),)) == 0
    # <x, y> is not symmetric: the arrow 1->2 counts only from x_1 to y_2
    assert euler_form(q, (1, 0), (0, 1)) == -1
    assert euler_form(q, (0, 1), (1, 0)) == 0
    assert euler_form(jordan2()[0], (2,), (2,)) == 0
    qs, vs, as_ = star21()
    assert codimension(qs, ((1, 1), (1, 0))) == 2
    assert codimension(qs, ((0, 1), (2, 0))) == 2


def test_codimension_against_entry_counting():
    for make, v in [(a2, (2, 2)), (star21, (3, 1)), (jordan2, (4,))]:
        q, v0, a0 = make()
        t_sum = sum(Fraction(x) * d for x, d in zip(a0, v))
        a = StabilityParam.trace_free(
            q, v, [Fraction(x) - t_sum / rank(v) for x in a0]
        )
        for t in enumerate_hn_types(q, v, a):
            assert codimension(q, t) == _codim_oracle(q, t)


def test_critical_value_exact():
    # star21 at v = (2, 1), a = (-1, 2): the slopes of (1, 1), (1, 0), (0, 1)
    # and (2, 0) are 1/2, -1, 2 and -1
    q, v, a = star21()
    assert critical_value(q, ((2, 1),), a) == 0
    assert critical_value(q, ((1, 1), (1, 0)), a) == Fraction(3, 2)
    assert critical_value(q, ((0, 1), (2, 0)), a) == 6
    assert critical_value(q, ((0, 1), (1, 1), (1, 0)), a) == Fraction(11, 2)


def test_two_filtered_param():
    q, v, a = star21()
    tf = two_filtered_param(q, v, "inf", -1)
    assert tf.values == (Fraction(-1), Fraction(2))
    with pytest.raises(QuiverError):
        two_filtered_param(q, v, "inf", 1)
    with pytest.raises(QuiverError):
        two_filtered_param(q, (2, 2), "inf", -1)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    abar=st.fractions(min_value=Fraction(-5), max_value=Fraction(-1, 7)),
)
def test_two_filtered_types_have_length_two(data, abar):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    from conftest import random_quiver_with_infty

    q, dims = random_quiver_with_infty(rng)
    a = two_filtered_param(q, dims, "inf", abar)
    for t in enumerate_hn_types(q, dims, a, include_trivial=False):
        assert len(t) == 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_enumerated_types_are_valid_and_codim_nonnegative(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_quiver_with_infty

    q, dims = random_quiver_with_infty(rng)
    a = two_filtered_param(q, dims, "inf", Fraction(-1))
    for t in enumerate_hn_types(q, dims, a):
        check_hn_type(q, dims, a, t)
    # a slope-feasible type with an empty stratum may have a negative
    # codimension, which raises; a nonempty stratum never does
    for t in nonempty_hn_types(q, dims, a):
        assert codimension(q, t) >= 0
