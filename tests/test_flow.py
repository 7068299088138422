"""Gradient flow integration: closed-form limits, monotonicity, group-flow
tracking, and the sigma monotonicity monitor."""

import numpy as np
import pytest

from quiverflow import (
    FlowConfig,
    GaugeElement,
    Representation,
    a2,
    act,
    enumerate_hn_types,
    f_value,
    integrate_flow,
    integrate_gauge,
    jordan2,
    make_hn_example,
    paired_flow_sigma,
    sigma,
    sigma_from_gauge,
    slope,
    star21,
    two_filtered_param,
)
from quiverflow import flow
from quiverflow.repspace import BlockEmbedding
from conftest import random_unitary_gauge


def test_flow_config_validation():
    for bad in ({"grad_tol": 0}, {"max_time": 0}, {"max_time": -1.0},
                {"max_time": float("nan")}, {"sample_stride": 0}):
        with pytest.raises(ValueError):
            FlowConfig(**bad)
    assert FlowConfig(max_time=float("inf"), sample_stride=1).sample_stride == 1


def test_a2_closed_form_limit():
    q, v, a = a2()
    A0 = Representation(q, v, [np.array([[0.1]], dtype=complex)])
    res = integrate_flow(q, A0, a)
    assert res.converged
    assert abs(abs(res.final.mats[0][0, 0]) ** 2 - 2.0) < 1e-8
    assert res.final_f < 1e-12


def test_critical_start_is_stationary():
    q, v, a = a2()
    A0 = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    res = integrate_flow(q, A0, a)
    assert res.converged and res.n_steps == 0
    assert np.allclose(res.final.mats[0], A0.mats[0])


def test_jordan_nilpotent_decays_to_zero():
    # the nilpotent orbit flows to 0 with algebraic (not exponential) decay
    # |c|^2 ~ 1/(4t), so assert the f limit rather than the gradient norm
    q, v, a = jordan2()
    A0 = Representation(q, v, [np.array([[0, 1], [0, 0]], dtype=complex)])
    res = integrate_flow(q, A0, a, FlowConfig(max_time=1e4))
    assert res.final_f < 1e-8
    assert res.final.norm() < 1e-2


def test_f_monotone_along_trajectory():
    q, v, a = star21()
    A0 = Representation.random(q, v, np.random.default_rng(7))
    res = integrate_flow(q, A0, a, FlowConfig(sample_stride=1))
    fs = [s.f for s in res.trajectory]
    for f1, f2 in zip(fs, fs[1:]):
        assert f2 <= f1 + 1e-10 * (1.0 + f1)


def test_convergence_random_all_quivers():
    for make in (a2, jordan2, star21):
        q, v, a = make()
        for seed in range(3):
            A0 = Representation.random(q, v, np.random.default_rng(seed))
            res = integrate_flow(q, A0, a)
            assert res.converged
            assert res.final_grad_norm < 1e-8
            # limit criticality residual per edge
            from quiverflow import neg_gradient

            for m in neg_gradient(q, res.final, a):
                assert np.linalg.norm(m) < 1e-7


def _drift(g_blocks, A0, A):
    """||g . A0 - A|| over the edges."""
    tracked = act(GaugeElement(g_blocks), A0)
    return np.sqrt(sum(np.sum(np.abs(m1 - m2) ** 2) for m1, m2 in zip(tracked.mats, A.mats)))


def test_group_flow_tracks_orbit():
    q, v, a = a2()
    A0 = Representation(q, v, [np.array([[0.1]], dtype=complex)])
    drifts = []
    res, g_final = integrate_gauge(
        q, A0, a, on_sample=lambda t, A, g: drifts.append(_drift(g, A0, A))
    )
    assert res.converged
    assert len(drifts) == len(res.trajectory) and max(drifts) < 1e-5
    assert _drift(g_final, A0, res.final) < 1e-6


def test_gauge_flow_on_unstable_start():
    # on an unstable stratum the limit leaves the orbit of A0, so g(t)
    # diverges; the flow still converges and g . A0 tracks A(t) while g is
    # well conditioned
    q, _, a = star21()
    for seed in range(3):
        A0, _ = make_hn_example(q, ((1, 1), (1, 0)), a, seed=seed)
        checked = []

        def on_sample(t, A, g):
            if max(np.linalg.cond(b) for b in g) <= 1e4:
                checked.append(_drift(g, A0, A))

        res, g_final = integrate_gauge(q, A0, a, on_sample=on_sample)
        assert res.converged, seed
        assert checked and max(checked) < 1e-6, seed
        assert max(np.linalg.cond(b) for b in g_final) > 1e10, seed


def test_flow_stats_fsal_invariant():
    # first-same-as-last: one system call up front, then twelve per trial
    # step, for the plain, the group and the paired flow alike
    q, v, a = star21()
    rng = np.random.default_rng(3)
    A0 = Representation.random(q, v, rng)
    plain = integrate_flow(q, A0, a)
    group, _ = integrate_gauge(q, A0, a)
    paired = paired_flow_sigma(q, A0, random_unitary_gauge(v, rng), a)
    for res in (plain, group):
        assert res.stats.n_accepted == res.n_steps
    for st in (plain.stats, group.stats, paired.stats):
        rejected = st.n_rejected_err + st.n_rejected_monotone + st.n_nonfinite
        assert st.n_rhs == 1 + 12 * (st.n_accepted + rejected)
        assert st.n_accepted > 0 and st.n_rejected_err > 0
        assert 0 < st.h_min <= st.h_max <= flow._MAX_STEP
        assert 0 <= st.n_stiff_capped <= st.n_accepted


def test_stop_below_halts_at_first_state_under_level():
    q, v, a = star21()
    A0 = Representation.random(q, v, np.random.default_rng(5))
    cfg = FlowConfig(sample_stride=1)
    full = integrate_flow(q, A0, a, cfg)
    fs = [s.f for s in full.trajectory]
    level = 0.5 * (fs[0] + full.final_f)
    first = next(i for i, f in enumerate(fs) if f < level)
    assert first > 1

    res = integrate_flow(q, A0, a, cfg, stop_below=level)
    # samples: the initial state, every accepted state, the final state again
    assert res.n_steps == first and not res.converged
    assert res.final_f == fs[first] < level
    assert [s.f for s in res.trajectory[:-1]] == fs[: first + 1]
    assert min(s.f for s in res.trajectory[:-2]) >= level
    st = res.stats
    rejected = st.n_rejected_err + st.n_rejected_monotone + st.n_nonfinite
    assert st.n_accepted == first
    assert st.n_rhs == 1 + 12 * (st.n_accepted + rejected)

    # a start already below the level does not step
    res = integrate_flow(q, A0, a, cfg, stop_below=2 * fs[0])
    assert res.n_steps == 0 and res.stats.n_rhs == 1 and res.final_f == fs[0]


def test_stop_below_default_leaves_flow_unchanged():
    q, v, a = star21()
    A0 = Representation.random(q, v, np.random.default_rng(11))
    plain = integrate_flow(q, A0, a)
    passed = integrate_flow(q, A0, a, stop_below=None)
    assert plain.converged and plain.stats == passed.stats
    assert plain.trajectory == passed.trajectory
    assert all(np.array_equal(x, y) for x, y in zip(plain.final.mats, passed.final.mats))


def test_dop853_stiff_cap():
    # R(z) = 1 + z b^T (I - z A)^{-1} 1 is the pair's stability function;
    # the cap keeps h rho at kappa, where the stiff mode still decays
    A, b = flow._A[:12], flow._A[12]
    kappa = flow._STIFF_KAPPA

    def R(z):
        return 1.0 + z * b @ np.linalg.solve(np.eye(12) - z * A, np.ones(12))

    assert abs(R(-kappa)) <= 0.5
    assert all(abs(R(z)) < 1.0 for z in np.linspace(-kappa, 0.0, 601)[:-1])

    # dy/dt = -diag(1, 100) y, f = y^T diag(1, 100) y / 2
    lam = np.array([1.0, 100.0])

    def stage(y, out):
        out[:] = -lam * y

    def measure(k):
        return 0.5 * float(np.sum(np.abs(k) ** 2 / lam)), flow._norm(k)

    ts = []
    out = flow._integrate((stage, measure), np.array([1.0, 1.0]),
                          FlowConfig(sample_stride=1),
                          lambda t, y, f, g: ts.append(t))
    st = out.stats
    assert out.converged
    assert st.n_rejected_err + st.n_rejected_monotone + st.n_nonfinite <= 0.1 * st.n_accepted
    assert st.n_stiff_capped > 0
    # after the transient (t >= 1) every step sits at the cap, up to the
    # estimate of rho, and inside the stability interval: |R(-100 h)| < 1.
    # rho is a Rayleigh quotient of stage differences that still carry some
    # of the slow mode, so it reads a few percent below 100
    ts = np.array(ts[:-1])  # the last sample repeats the final state
    hs = np.diff(ts)[ts[:-1] >= 1.0]
    assert hs.size > 100
    assert hs.min() >= 0.9 * kappa / 100
    assert hs.max() <= 1.07 * kappa / 100
    assert all(abs(R(-100.0 * h)) < 1.0 for h in hs)


def test_norm_overflow_ends_in_step_underflow():
    # dy/dt = y grows past the range of ||y||^2 near ||y|| = 1e154; the
    # error scale is then infinite, so no trial may be accepted there
    def stage(y, out):
        out[:] = y

    with pytest.raises(flow.StepUnderflowError) as exc:
        flow._integrate((stage, lambda k: (0.0, 1.0)), np.array([1.0]),
                        FlowConfig(max_time=400), lambda *args: None)
    assert isinstance(exc.value, flow.FlowError)
    assert np.isfinite(flow._norm(exc.value.state))
    assert exc.value.t < 400


def test_dop853_tableau():
    A, (e5, e3) = flow._A, flow._E
    assert A.shape == (13, 12) and flow._E.shape == (2, 13)
    c = A[:12].sum(axis=1)
    b = A[12]
    # quadrature conditions of order 8
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1.0 / k) < 1e-13
    # error estimates vanish on constants
    assert abs(e5.sum()) < 1e-13 and abs(e3.sum()) < 1e-13
    # the FSAL row is the 8th-order weights b of dop853.f
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(b, coeffs.B)
    assert np.array_equal(A, coeffs.A[:13, :12])
    assert np.array_equal(e5, coeffs.E5) and np.array_equal(e3, coeffs.E3)


def test_no_stall_above_grad_tol_at_larger_rank():
    # these starts stalled with ||grad|| at 1e-8..4e-8, just above grad_tol,
    # under the 5th-order pair
    q, _, _ = star21()
    cases = [((4, 1), 8, 100.0), ((5, 1), 4, 100.0)]
    cases += [((6, 1), seed, 20.0) for seed in range(8)]
    for v, seed, max_time in cases:
        a = two_filtered_param(q, v, "inf", -1)
        A0 = Representation.random(q, v, np.random.default_rng(seed))
        res = integrate_flow(q, A0, a, FlowConfig(max_time=max_time))
        assert res.converged, (v, seed)
        crit = [
            sum(sum(p) * float(slope(q, p, a)) ** 2 for p in t)
            for t in enumerate_hn_types(q, v, a)
        ]
        assert min(abs(res.final_f - f) for f in crit) < 1e-8, (v, seed)


def test_group_flow_zero_generator():
    # f = 0 start: generator vanishes, g stays the identity
    q, v, a = a2()
    A0 = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    _, g_final = integrate_gauge(q, A0, a)
    for b, d in zip(g_final, v):
        assert np.allclose(b, np.eye(d), atol=1e-10)


def test_sigma_values():
    assert sigma([np.eye(3, dtype=complex)], 3) == pytest.approx(0.0)
    assert sigma([np.diag([2.0, 0.5]).astype(complex)], 2) == pytest.approx(1.0)
    h = np.diag([3.0, 0.7]).astype(complex)
    hinv = np.diag([1 / 3.0, 1 / 0.7]).astype(complex)
    assert sigma([h], 2) == pytest.approx(sigma([hinv], 2))
    with pytest.raises(Exception):
        sigma([np.diag([1.0, -1.0]).astype(complex)], 2)


def test_sigma_from_gauge_matches_eigen_route():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ginv = np.linalg.inv(g)
    h = ginv @ ginv.conj().T
    assert sigma_from_gauge([g], 3) == pytest.approx(sigma([h], 3), rel=1e-10)


def test_paired_flow_sigma_monotone():
    q, v, a = a2()
    rng = np.random.default_rng(5)
    A0 = Representation.random(q, v, rng)
    g0 = GaugeElement([np.array([[2.0]], dtype=complex), np.array([[1.0]], dtype=complex)])
    tr = paired_flow_sigma(q, A0, g0, a)
    assert tr.converged
    assert all(s >= -1e-12 for _, s in tr.samples)
    assert tr.max_forward_increase <= 1e-8


def test_paired_flow_sigma_unitary_is_zero():
    q, v, a = star21()
    rng = np.random.default_rng(6)
    A0 = Representation.random(q, v, rng)
    g0 = random_unitary_gauge(v, rng)
    tr = paired_flow_sigma(q, A0, g0, a)
    assert max(abs(s) for _, s in tr.samples) < 1e-8


def test_paired_flow_members_stay_separate():
    # g0 = id starts both members of the stacked pair at A0, so they follow
    # one trajectory and sigma stays at zero. They agree to rounding, not bit
    # for bit: the driver's stage sums round by position in the state vector.
    q, v, a = star21()
    A0 = Representation.random(q, v, np.random.default_rng(9))
    tr = paired_flow_sigma(q, A0, GaugeElement.identity(v), a, FlowConfig(sample_stride=1))
    assert tr.converged and len(tr.samples) > 10
    for (t1, g1), (t2, g2) in zip(tr.g1_curve, tr.g2_curve, strict=True):
        assert t1 == t2
        for b1, b2 in zip(g1, g2, strict=True):
            assert np.allclose(b1, b2, rtol=1e-13, atol=1e-13)
    assert max(s for _, s in tr.samples) <= 1e-10


def test_stacked_group_stage_equals_member_stages():
    # one stage of the two-member group system writes, bit for bit, what the
    # one-member system writes for each member: nothing mixes the members
    rng = np.random.default_rng(10)
    for make in (jordan2, star21):
        q, v, a = make()
        emb = BlockEmbedding(q, v)
        members = []
        for _ in range(2):
            A = Representation.random(q, v, rng)
            g = np.zeros((emb.shape[0],) * 2, dtype=complex)
            for s, d in zip(emb.vertex_slices, v):
                g[s, s] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            members.append(np.concatenate([emb.embed(A.mats).ravel(), g.ravel()]))
        stage2, measure2 = flow._group_system(emb, a, 2)
        stage1, measure1 = flow._group_system(emb, a, 1)
        out2 = np.empty(2 * members[0].size, dtype=complex)
        stage2(np.concatenate(members), out2)
        f2, g2 = measure2(out2)
        fs, gs = [], []
        for y, half in zip(members, np.split(out2, 2)):
            out1 = np.empty_like(y)
            stage1(y, out1)
            assert np.array_equal(out1, half)
            f, g = measure1(out1)
            fs.append(f)
            gs.append(g)
        assert f2 == fs[0] + fs[1] and g2 == max(gs)


def test_flow_invariance_under_unitary_gauge():
    # f(g.A(t)) == f(A(t)) along the trajectory
    q, v, a = star21()
    rng = np.random.default_rng(8)
    A0 = Representation.random(q, v, rng)
    g = random_unitary_gauge(v, rng)
    res = integrate_flow(q, A0, a)
    assert f_value(q, act(g, res.final), a) == pytest.approx(res.final_f, abs=1e-10)
