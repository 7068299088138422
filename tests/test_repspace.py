"""Representations, gauge actions, the moment map and its gradient, checked
against finite differences and exact hand computations."""

from fractions import Fraction

import numpy as np
import pytest

from quiverflow import (
    GaugeElement,
    Quiver,
    QuiverError,
    Representation,
    StabilityParam,
    a2,
    act,
    f_value,
    finite_difference_check,
    grad_norm,
    jordan2,
    moment,
    neg_gradient,
    rep_inner,
    rho,
    rho_adjoint,
    shifted_moment,
    star21,
)
from conftest import random_quiver_with_infty, random_unitary_gauge
from quiverflow.repspace import BlockEmbedding, f_of, moment_kernel


def test_representation_shapes():
    q, v, _ = a2()
    with pytest.raises(QuiverError):
        Representation(q, v, [np.zeros((2, 1))])
    with pytest.raises(QuiverError):
        Representation(q, v, [np.array([[np.inf]])])
    A = Representation(q, v, [np.array([[1.0 + 2j]])])
    assert A.norm() == pytest.approx(np.sqrt(5))


def test_moment_jordan_nilpotent():
    q, v, a = jordan2()
    A = Representation(q, v, [np.array([[0, 1], [0, 0]], dtype=complex)])
    phi = moment(q, A)[0]
    assert np.allclose(phi, 0.5j * np.diag([1.0, -1.0]))
    H = shifted_moment(q, A, a)[0]
    assert np.allclose(H, np.diag([-0.5, 0.5]))
    g = neg_gradient(q, A, a)[0]
    assert np.allclose(g, -2.0 * A.mats[0])
    assert f_value(q, A, a) == pytest.approx(0.5)


def test_moment_trace_identity():
    # sum of traces of i*Phi is always zero (each edge contributes +/- |A|^2)
    q, v, a = star21()
    rng = np.random.default_rng(0)
    A = Representation.random(q, v, rng)
    phi = moment(q, A)
    assert abs(sum(np.trace(1j * p) for p in phi)) < 1e-12


def test_a2_zero_level():
    q, v, a = a2()
    A = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    assert f_value(q, A, a) < 1e-28
    assert grad_norm(q, A, a) < 1e-13


def test_finite_difference_gradient():
    rng = np.random.default_rng(42)
    for make in (a2, jordan2, star21):
        q, v, a = make()
        err = finite_difference_check(q, v, a, rng, 5)
        assert err < 1e-6


def test_gauge_action_unitary_invariance():
    q, v, a = star21()
    rng = np.random.default_rng(1)
    A = Representation.random(q, v, rng)
    g = random_unitary_gauge(v, rng)
    B = act(g, A)
    assert f_value(q, B, a) == pytest.approx(f_value(q, A, a), abs=1e-10)
    # moment map is equivariant under the unitary action
    phiA = moment(q, A)
    phiB = moment(q, B)
    for l in range(q.n_vertices):
        assert np.allclose(
            phiB[l], g.blocks[l] @ phiA[l] @ g.blocks[l].conj().T, atol=1e-10
        )


def test_gauge_action_composition():
    q, v, _ = star21()
    rng = np.random.default_rng(2)
    A = Representation.random(q, v, rng)
    g1 = random_unitary_gauge(v, rng)
    g2 = random_unitary_gauge(v, rng)
    g12 = GaugeElement([b2 @ b1 for b1, b2 in zip(g1.blocks, g2.blocks)])
    lhs = act(g2, act(g1, A))
    rhs = act(g12, A)
    for m1, m2 in zip(lhs.mats, rhs.mats):
        assert np.allclose(m1, m2, atol=1e-10)


def test_gauge_element_validation():
    with pytest.raises(QuiverError):
        GaugeElement([np.zeros((2, 2))])  # singular
    with pytest.raises(QuiverError):
        GaugeElement([2 * np.eye(2)], unitary=True)
    GaugeElement([2 * np.eye(2)])  # fine without the unitary claim


def test_rho_adjoint_pairing():
    q, v, _ = star21()
    rng = np.random.default_rng(3)
    A = Representation.random(q, v, rng)
    u = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in v]
    X = Representation.random(q, v, rng).mats
    lhs = rep_inner(rho(A, u), X)
    rhs = rep_inner(u, rho_adjoint(A, X))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gradient_vanishes_iff_critical_blocks_commute():
    # block-diagonal assembly of zero-level pieces is critical
    q, v, a = a2()
    A = Representation.zero(q, v)
    assert grad_norm(q, A, a) == 0.0


def _per_edge_reference(q, A, a):
    """H_l, -grad f and f edge by edge, straight from their definitions."""
    H = [-float(x) * np.eye(d, dtype=complex) for x, d in zip(a, A.dims)]
    for (out_i, in_i), m in zip(q.edge_indices(), A.mats):
        H[in_i] -= 0.5 * (m @ m.conj().T)
        H[out_i] += 0.5 * (m.conj().T @ m)
    grad = [
        2.0 * (H[in_i] @ m - m @ H[out_i]) for (out_i, in_i), m in zip(q.edge_indices(), A.mats)
    ]
    return H, grad, sum(float(np.sum(np.abs(b) ** 2)) for b in H)


def _kernel_cases():
    rng = np.random.default_rng(11)
    cases = [random_quiver_with_infty(rng) for _ in range(12)]
    q, dims = random_quiver_with_infty(rng, max_vertices=3)
    cases.append((q, (0,) + dims[1:]))  # a vertex of dimension 0
    cases.append((q, (0,) * len(dims)))  # the all-zero dimension vector
    cases.append((Quiver(("1", "2"), ()), (2, 3)))  # no edges
    for q, dims in cases:
        a = StabilityParam([Fraction(int(rng.integers(-6, 7)), 3) for _ in dims])
        yield q, Representation.random(q, dims, rng), a


def _rel_err(got, want):
    num = np.sqrt(sum(np.sum(np.abs(g - w) ** 2) for g, w in zip(got, want)))
    den = np.sqrt(sum(np.sum(np.abs(w) ** 2) for w in want))
    return num / den if den else num


def test_moment_kernel_matches_per_edge_reference():
    cases = list(_kernel_cases())
    edge_lists = [q.edges for q, _, _ in cases]
    assert any(s == t for edges in edge_lists for s, t in edges)  # a loop
    assert any(len(set(edges)) < len(edges) for edges in edge_lists)  # parallel edges
    for q, A, a in cases:
        H_ref, grad_ref, f_ref = _per_edge_reference(q, A, a)
        H = shifted_moment(q, A, a)
        grad = neg_gradient(q, A, a)
        assert [b.shape for b in H] == [b.shape for b in H_ref]
        assert [m.shape for m in grad] == [m.shape for m in grad_ref]
        assert _rel_err(H, H_ref) <= 1e-13
        assert _rel_err(grad, grad_ref) <= 1e-13
        assert abs(f_value(q, A, a) - f_ref) <= 1e-13 * f_ref
        gn_ref = np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in grad_ref))
        assert grad_norm(q, A, a) == pytest.approx(gn_ref, rel=1e-13)


def _stacks(members=3):
    """Each kernel case as a stack of `members` random representations of its
    dimension vector, embedded as one (members, N, E, N) array."""
    rng = np.random.default_rng(12)
    for q, A, a in _kernel_cases():
        reps = [A] + [Representation.random(q, A.dims, rng) for _ in range(members - 1)]
        emb = BlockEmbedding(q, A.dims)
        yield q, reps, a, emb, np.stack([emb.embed(B.mats) for B in reps])


def test_moment_kernel_keeps_off_block_zeros():
    # the flow driver integrates the embedded edges, so every entry outside
    # an edge block must stay exactly zero, for one member and for a stack
    for q, reps, a, emb, T in _stacks():
        edge_mask = emb.embed([np.ones_like(m) for m in reps[0].mats]) != 0
        vertex_mask = np.zeros((emb.shape[0],) * 2, dtype=bool)
        for s in emb.vertex_slices:
            vertex_mask[s, s] = True
        for H2, K in (moment_kernel(T[0], 2.0 * emb.shift(a)),
                      moment_kernel(T, 2.0 * emb.shift(a))):
            assert np.all(K[..., ~edge_mask] == 0)
            assert np.all(H2[..., ~vertex_mask] == 0)


def test_stacked_moment_kernel_equals_member_calls():
    # one stacked call is the members' separate calls, bit for bit, and each
    # member matches the per-edge reference
    for q, reps, a, emb, T in _stacks():
        two_shift = 2.0 * emb.shift(a)
        H2, K = moment_kernel(T, two_shift)
        out = np.full(T.shape, np.nan, dtype=complex)
        H2_out, K_out = moment_kernel(T, two_shift, out=out)
        assert np.array_equal(H2_out, H2) and np.array_equal(out, K)
        assert out.size == 0 or np.shares_memory(K_out, out)
        for b, B in enumerate(reps):
            H2_b, K_b = moment_kernel(T[b], two_shift)
            assert np.array_equal(H2[b], H2_b) and np.array_equal(K[b], K_b)
            H_ref, grad_ref, f_ref = _per_edge_reference(q, B, a)
            assert _rel_err(emb.vertex_blocks(0.5 * H2[b]), H_ref) <= 1e-13
            assert _rel_err(emb.edge_blocks(K[b]), grad_ref) <= 1e-13
            assert abs(f_of(H2[b]) - f_ref) <= 1e-13 * f_ref
