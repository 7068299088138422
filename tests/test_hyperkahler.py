"""Doubled quivers: the complex moment map, conservation of its zero level
under the flow, and the linearization residual at length-2 critical points."""

import numpy as np
import pytest

from quiverflow import (
    DoubledRep,
    FiltrationLengthError,
    LevelError,
    Quiver,
    Representation,
    StabilityParam,
    a2,
    act,
    classify_critical,
    double,
    flow_on_level,
    jordan2,
    level_linearization_residual,
    lt_perturbation,
    make_critical_point,
    moment_complex,
    phi_c_norm,
    star21,
)
from conftest import random_unitary_gauge


def test_double_structure():
    q, v, _ = a2()
    qd = double(q)
    assert qd.vertices == q.vertices
    assert qd.edges == (("1", "2"), ("2", "1"))
    # doubling again appends reversals of all four edges
    assert len(double(qd).edges) == 4


def test_doubled_rep_split():
    q, v, _ = a2()
    A = [np.array([[2.0]], dtype=complex)]
    B = [np.array([[3.0]], dtype=complex)]
    dr = DoubledRep.from_parts(q, v, A, B)
    assert np.allclose(dr.a_mats[0], A[0]) and np.allclose(dr.b_mats[0], B[0])
    with pytest.raises(Exception):
        DoubledRep(q, Representation(q, v, A))  # not on the doubled quiver


def test_moment_complex_a2_scalars():
    q, v, _ = a2()
    dr = DoubledRep.from_parts(
        q, v, [np.array([[1.0]], dtype=complex)], [np.array([[1.0]], dtype=complex)]
    )
    phi = moment_complex(dr)
    # edge 1->2: vertex 2 gains AB, vertex 1 loses BA
    assert phi[0][0, 0] == pytest.approx(-1.0)
    assert phi[1][0, 0] == pytest.approx(1.0)


def test_moment_complex_b_zero_and_trace():
    q, v, _ = star21()
    rng = np.random.default_rng(0)
    A = Representation.random(q, v, rng).mats
    dr0 = DoubledRep.from_parts(q, v, A, [np.zeros_like(m.T) for m in A])
    assert phi_c_norm(dr0) == 0.0
    B = [
        rng.standard_normal(m.T.shape) + 1j * rng.standard_normal(m.T.shape) for m in A
    ]
    dr = DoubledRep.from_parts(q, v, A, B)
    assert abs(sum(np.trace(p) for p in moment_complex(dr))) < 1e-12


def test_moment_complex_equivariance():
    q, v, _ = star21()
    rng = np.random.default_rng(1)
    qd = double(q)
    rep = Representation.random(qd, v, rng)
    dr = DoubledRep(q, rep)
    g = random_unitary_gauge(v, rng)
    dr_g = DoubledRep(q, act(g, rep))
    phi = moment_complex(dr)
    phi_g = moment_complex(dr_g)
    for l in range(q.n_vertices):
        assert np.allclose(
            phi_g[l], g.blocks[l] @ phi[l] @ g.blocks[l].conj().T, atol=1e-10
        )


def test_flow_conserves_level_b_zero():
    q, v, a = star21()
    rng = np.random.default_rng(2)
    A = Representation.random(q, v, rng).mats
    dr = DoubledRep.from_parts(q, v, A, [np.zeros_like(m.T) for m in A])
    res = flow_on_level(dr, a)
    assert max(s.phi_c_norm for s in res.trajectory) <= 1e-12


def test_flow_conserves_level_commuting_pair():
    # loop quiver: B a polynomial in A commutes, so (A, B) is on the level;
    # a unitary gauge rotation keeps it there but makes the pair generic-looking
    q, v, a = jordan2()
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = A @ A + 0.5 * A
    g = random_unitary_gauge(v, rng)
    dr = DoubledRep(
        q, act(g, Representation(double(q), v, [A, B]))
    )
    assert phi_c_norm(dr) < 1e-12
    res = flow_on_level(dr, a)
    assert max(s.phi_c_norm for s in res.trajectory) <= 1e-8
    assert res.converged


def test_flow_on_level_rejects_off_level():
    q, v, a = star21()
    rng = np.random.default_rng(4)
    rep = Representation.random(double(q), v, rng)
    with pytest.raises(LevelError):
        flow_on_level(DoubledRep(q, rep), a)


def _doubled_critical(seed=0):
    q, v, a = star21()
    qd = double(q)
    rep, _ = make_critical_point(qd, ((0, 1), (2, 0)), a, seed=seed)
    return q, qd, a, DoubledRep(q, rep), rep


def test_linearization_residual_lt_vanishes():
    q, qd, a, dr, rep = _doubled_critical()
    crit = classify_critical(qd, rep, a)
    assert len(crit.hn_type) == 2
    rng = np.random.default_rng(5)
    delta = lt_perturbation(dr, crit, rng, scale=1.0)
    dnorm2 = sum(np.sum(np.abs(d) ** 2) for d in delta)
    assert dnorm2 > 0
    resid = level_linearization_residual(dr, a, delta)
    assert resid <= 1e-12 * dnorm2


def test_linearization_residual_generic_positive():
    q, qd, a, dr, rep = _doubled_critical()
    rng = np.random.default_rng(6)
    delta = [
        rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        for m in rep.mats
    ]
    assert level_linearization_residual(dr, a, delta) > 1e-2


def test_linearization_residual_zero_perturbation():
    q, qd, a, dr, rep = _doubled_critical()
    delta = [np.zeros_like(m) for m in rep.mats]
    assert level_linearization_residual(dr, a, delta) == 0.0


def test_linearization_rejects_long_filtrations():
    # path with three vertices: the zero representation of its double has
    # three distinct shifted-moment eigenvalues, so the filtration has length 3
    q = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    v = (1, 1, 1)
    a = StabilityParam.trace_free(q, v, [2, 0, -2])
    qd = double(q)
    rep = Representation.zero(qd, v)
    dr = DoubledRep(q, rep)
    delta = [np.zeros_like(m) for m in rep.mats]
    with pytest.raises(FiltrationLengthError):
        level_linearization_residual(dr, a, delta)
