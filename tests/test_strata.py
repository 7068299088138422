"""Critical-point classification, constructed HN instances and the
semistability certificate behind them, intertwiner spaces, graded objects,
and the tangent-space codimension check."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from quiverflow import (
    ClassificationError,
    ConstructionError,
    Filtration,
    FlowConfig,
    GaugeElement,
    Quiver,
    QuiverError,
    RankAmbiguityError,
    Representation,
    SlopeMismatchError,
    StabilityParam,
    a2,
    act,
    certify_semistable,
    classify_critical,
    codimension,
    enumerate_hn_types,
    f_value,
    flow_to_critical,
    graded_object,
    grad_norm,
    hn_type_by_flow,
    hom_space,
    integrate_flow,
    is_isomorphic,
    jordan2,
    make_critical_point,
    make_hn_example,
    nonempty_hn_types,
    rho,
    sample_semistable,
    semistable_gap,
    shifted_param,
    slope,
    slope_generic,
    star21,
    tangent_decomposition,
    two_filtered_param,
    verify_graded_limit,
)
from quiverflow import strata
from conftest import TRIANGLE, kronecker, random_unitary_gauge, trace_free


def test_classify_a2_zero():
    q, v, a = a2()
    crit = classify_critical(q, Representation.zero(q, v), a)
    assert crit.hn_type == ((1, 0), (0, 1))
    assert crit.lambdas == pytest.approx((-1.0, 1.0))


def test_classify_a2_minimum():
    q, v, a = a2()
    A = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    crit = classify_critical(q, A, a)
    assert crit.hn_type == ((1, 1),)
    assert crit.lambdas == pytest.approx((0.0,), abs=1e-12)


def test_classify_jordan_normal():
    q, v, a = jordan2()
    A = Representation(q, v, [np.diag([1.0, 2.0]).astype(complex)])
    crit = classify_critical(q, A, a)
    assert crit.hn_type == ((2,),)
    assert crit.lambdas == pytest.approx((0.0,), abs=1e-12)


def test_classify_rejects_noncritical():
    q, v, a = star21()
    A = Representation.random(q, v, np.random.default_rng(0))
    with pytest.raises(ClassificationError):
        classify_critical(q, A, a)


def test_classify_rejects_empty_space():
    q = Quiver(("1", "2"), (("1", "2"),))
    a = StabilityParam.trace_free(q, (0, 0), [0, 0])
    with pytest.raises(ClassificationError, match="empty representation space"):
        classify_critical(q, Representation.zero(q, (0, 0)), a)


def test_classify_rejects_wrong_parameter():
    # critical for one parameter, classified against another: the gradient
    # gate is opened (||grad|| = 5.66 under bad), so the slope law rejects it
    q, v, a = a2()
    A = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    bad = StabilityParam.trace_free(q, v, [2, -2])
    with pytest.raises(SlopeMismatchError, match="off the nearest -slope level"):
        classify_critical(q, A, bad, grad_tol=1)
    # here the eigenvalues (1, -1) sit on the levels -slope(0,1) and
    # -slope(1,0), each at the other vertex (||grad|| = 8)
    A2 = Representation(q, v, [np.array([[2.0]], dtype=complex)])
    with pytest.raises(SlopeMismatchError, match="has another slope"):
        classify_critical(q, A2, a, grad_tol=1)


def test_hn_type_by_flow_a2():
    q, v, a = a2()
    assert hn_type_by_flow(q, Representation.zero(q, v), a) == ((1, 0), (0, 1))
    A0 = Representation(q, v, [np.array([[0.1]], dtype=complex)])
    assert hn_type_by_flow(q, A0, a) == ((1, 1),)


def test_make_hn_example_a2_unique_instance():
    q, v, a = a2()
    A, filt = make_hn_example(q, ((1, 0), (0, 1)), a, seed=0)
    assert np.allclose(A.mats[0], 0)
    assert filt.hn_type == ((1, 0), (0, 1))


def test_make_hn_example_star_and_flow_recovers_type():
    q, v, a = star21()
    for t in [((1, 1), (1, 0)), ((0, 1), (2, 0))]:
        for seed in (0, 1):
            A, filt = make_hn_example(q, t, a, seed=seed)
            assert hn_type_by_flow(q, A, a) == t


def test_make_hn_example_reads_each_part_series_once(monkeypatch):
    # the part (1,1) has a non-trivial type, so sample_semistable would check
    # its series again after make_hn_example did
    q, v, a = star21()
    parts = []
    real = strata.poincare_semistable

    def counted(q, part, *args, **kwargs):
        parts.append(tuple(part))
        return real(q, part, *args, **kwargs)

    monkeypatch.setattr(strata, "poincare_semistable", counted)
    t = ((1, 1), (1, 0))
    make_hn_example(q, t, a, seed=0)
    assert parts == list(t)


def test_make_hn_example_eta_scale_invariance():
    q, v, a = star21()
    for scale in (0.1, 1.0, 10.0):
        A, _ = make_hn_example(q, ((1, 1), (1, 0)), a, seed=2, eta_scale=scale)
        assert hn_type_by_flow(q, A, a) == ((1, 1), (1, 0))


def critical_point_cases():
    """(quiver, parameter, type, seed): the star types, and triangle types
    (two of length 3) whose refinement converges at seed 0."""
    q, v, a = star21()
    for t in [((1, 1), (1, 0)), ((0, 1), (2, 0)), ((2, 1),)]:
        yield q, a, t, 3
    for v, t in [
        ((1, 2, 2), ((1, 1, 2), (0, 1, 0))),
        ((2, 2, 1), ((1, 0, 0), (1, 0, 1), (0, 2, 0))),
        ((2, 2, 1), ((1, 0, 0), (1, 1, 1), (0, 1, 0))),
        ((2, 2, 1), ((1, 1, 0), (1, 1, 1))),
        ((2, 2, 1), ((2, 2, 0), (0, 0, 1))),
    ]:
        yield TRIANGLE, StabilityParam(trace_free(v, (2, -1, -1))), t, 0


def test_make_critical_point_laws():
    for q, a, t, seed in critical_point_cases():
        A, filt = make_critical_point(q, t, a, seed=seed)
        assert grad_norm(q, A, a) < 1e-7
        crit = classify_critical(q, A, a)
        assert crit.hn_type == t
        assert crit.level_margin < 1e-6
        # eigenvalue-slope law and critical value law
        f_star = 0.0
        for lam, part in zip(crit.lambdas, t):
            mu = float(slope(q, part, a))
            assert abs(lam + mu) < 1e-6
            f_star += sum(part) * mu * mu
        from quiverflow import f_value

        assert f_value(q, A, a) == pytest.approx(f_star, abs=1e-8)


def test_slope_generic():
    q, v, a = star21()
    from quiverflow import shifted_param

    assert slope_generic(q, (1, 1), shifted_param(q, (1, 1), a))
    assert not slope_generic(q, (2, 0), shifted_param(q, (2, 0), a))


def test_slope_generic_matches_exact_slopes():
    loopy = Quiver(("1", "2", "3"), (("1", "1"), ("1", "2"), ("1", "2"), ("3", "2")))
    a = StabilityParam([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)])
    for v in itertools.product(range(3), repeat=3):
        if any(v):
            mu = slope(loopy, v, a)
            others = (
                w for w in itertools.product(*(range(x + 1) for x in v)) if 0 < sum(w) < sum(v)
            )
            expected = all(slope(loopy, w, a) != mu for w in others)
            assert slope_generic(loopy, v, a) == expected, v
    with pytest.raises(QuiverError):
        slope_generic(loopy, (0, 0, 0), a)


def test_graded_object_split_filtration():
    q, v, a = star21()
    t = ((1, 1), (1, 0))
    A, filt = make_hn_example(q, t, a, seed=4)
    g = graded_object(q, A, filt)
    # the graded object is block-diagonal in the coordinate filtration basis:
    # the strictly upper extension blocks of A are dropped, diagonal ones kept
    for (out_i, in_i), m, gm in zip(q.edge_indices(), A.mats, g.mats):
        r = t[0][in_i]
        c = t[0][out_i]
        assert np.allclose(gm[:r, :c], m[:r, :c], atol=1e-12)
        assert np.allclose(gm[r:, c:], m[r:, c:], atol=1e-12)
        assert np.allclose(gm[:r, c:], 0, atol=1e-12)
        assert np.allclose(gm[r:, :c], 0, atol=1e-12)
    # block-diagonal input is its own graded object
    g2 = graded_object(q, g, filt)
    for m1, m2 in zip(g.mats, g2.mats):
        assert np.allclose(m1, m2, atol=1e-12)


def test_classify_rejects_offdiagonal_block():
    q, v, a = star21()
    t = ((1, 1), (1, 0))
    A, _ = make_critical_point(q, t, a, seed=0)

    def bumped(eps):
        # the first loop's lower off-diagonal entry maps part 0 into part 1
        mats = [m.copy() for m in A.mats]
        mats[0][1, 0] += eps
        return A.with_mats(mats)

    with pytest.raises(ClassificationError, match="off-diagonal block"):
        classify_critical(q, bumped(1e-3), a, grad_tol=1)
    assert classify_critical(q, bumped(1e-5), a, grad_tol=1).hn_type == t


def test_graded_object_rejects_noninvariant():
    q, v, a = star21()
    A = Representation.random(q, v, np.random.default_rng(5))
    filt = Filtration.coordinate(v, ((1, 1), (1, 0)))
    with pytest.raises(QuiverError):
        graded_object(q, A, filt)
    # on A3 1 -> 2 -> 3 the first step (vertex 1) is invariant, the second
    # (vertices 1, 2) is not: edge 2 -> 3 leaves it
    q3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    A3 = Representation(q3, (1, 1, 1), [np.zeros((1, 1)), np.ones((1, 1))])
    filt3 = Filtration.coordinate((1, 1, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(QuiverError):
        graded_object(q3, A3, filt3)


def test_coordinate_filtration_rejects_mismatched_type():
    with pytest.raises(QuiverError, match=r"\(\(1, 0\), \(0, 1\)\).*\(2, 1\)"):
        Filtration.coordinate((2, 1), ((1, 0), (0, 1)))


def test_hom_space_a2():
    q, v, _ = a2()
    B = Representation(q, v, [np.array([[1.0]], dtype=complex)])
    C = Representation(q, v, [np.array([[0.0]], dtype=complex)])
    h = hom_space(q, B, C)
    # psi_2 * 1 = 0 * psi_1 forces psi_2 = 0, psi_1 free
    assert h.dimension == 1
    psi = h.basis[0]
    assert abs(psi[1][0, 0]) < 1e-10
    assert not is_isomorphic(q, B, C).isomorphic


def test_hom_space_no_edges_is_the_gauge_algebra():
    # with no equations every per-vertex matrix is an intertwiner
    q = Quiver(("1", "2"), ())
    A = Representation.zero(q, (2, 3))
    h = hom_space(q, A, A)
    assert h.dimension == 2 ** 2 + 3 ** 2
    assert all(psi[0].shape == (2, 2) and psi[1].shape == (3, 3) for psi in h.basis)


def test_hom_space_rank_ambiguity():
    # K2 at (1,1), B = (1, 0), C = (1, eps): the system has singular values
    # about sqrt(2) and eps / sqrt(2), and the rank cutoff is about
    # 1e-10 * sqrt(2), so eps = 1e-10 puts the small one inside the decade
    # band around it
    q = kronecker(2)
    B = Representation(q, (1, 1), [np.ones((1, 1)), np.zeros((1, 1))])

    def C(eps):
        return Representation(q, (1, 1), [np.ones((1, 1)), np.full((1, 1), eps)])

    assert hom_space(q, B, C(0.0)).dimension == 1
    assert hom_space(q, B, C(1e-3)).dimension == 0
    with pytest.raises(RankAmbiguityError):
        hom_space(q, B, C(1e-10))


def test_is_isomorphic_rejects_unequal_dims():
    q, _, _ = star21()
    rng = np.random.default_rng(0)
    B = Representation.random(q, (2, 1), rng)
    C = Representation.random(q, (1, 1), rng)
    with pytest.raises(QuiverError, match="equal dimension vectors"):
        is_isomorphic(q, B, C)


def test_hom_space_identity_and_endomorphisms():
    q, v, a = star21()
    A = Representation.random(q, v, np.random.default_rng(6))
    h = hom_space(q, A, A)
    assert h.dimension >= 1
    # every basis element intertwines to 1e-8
    for psi in h.basis:
        for (out_i, in_i), m in zip(q.edge_indices(), A.mats):
            assert np.linalg.norm(psi[in_i] @ m - m @ psi[out_i]) < 1e-8
    # with B = C = A the system matrix is rho_A^C: column (l, r, c) is the
    # row-major image of the unit matrix E_rc at vertex l
    M, _ = strata._intertwiner_matrix(q, A, A)
    cols = []
    for l, d in enumerate(v):
        for r in range(d):
            for c in range(d):
                u = [np.zeros((k, k), dtype=complex) for k in v]
                u[l][r, c] = 1
                cols.append(np.concatenate([x.ravel() for x in rho(A, u)]))
    assert np.array_equal(M, np.stack(cols, axis=1))


def test_is_isomorphic_gauge_orbit():
    q, v, _ = star21()
    rng = np.random.default_rng(7)
    A = Representation.random(q, v, rng)
    g = random_unitary_gauge(v, rng)
    res = is_isomorphic(q, A, act(g, A), seed=1)
    assert res.isomorphic
    assert res.witness is not None
    assert res.hom_dimension == hom_space(q, A, act(g, A)).dimension
    # self-isomorphism with identity-containing hom space
    assert is_isomorphic(q, A, A).isomorphic


def test_stable_critical_hom_dimension_one():
    # a semistable a2 point at the zero level is stable; End = C
    q, v, a = a2()
    A = Representation(q, v, [np.array([[np.sqrt(2)]], dtype=complex)])
    assert hom_space(q, A, A).dimension == 1


def test_verify_graded_limit_star():
    q, v, a = star21()
    for seed in range(3):
        A, filt = make_hn_example(q, ((1, 1), (1, 0)), a, seed=seed, require_stable=True)
        rep = verify_graded_limit(q, A, a, filt, seed=seed)
        assert rep.type_match
        assert rep.isomorphic
        assert rep.hom_dimension >= 1


def test_verify_graded_limit_a2():
    q, v, a = a2()
    A, filt = make_hn_example(q, ((1, 0), (0, 1)), a, seed=0)
    rep = verify_graded_limit(q, A, a, filt)
    assert rep.type_match and rep.isomorphic


def test_tangent_decomposition_matches_codimension():
    q, v, a = a2()
    A = Representation.zero(q, v)
    filt = Filtration.coordinate(v, ((1, 0), (0, 1)))
    assert tangent_decomposition(q, A, a, filt) == 1 == codimension(q, ((1, 0), (0, 1)))

    qs, vs, as_ = star21()
    for t in [((1, 1), (1, 0)), ((0, 1), (2, 0))]:
        Ac, filtc = make_critical_point(qs, t, as_, seed=8)
        assert tangent_decomposition(qs, Ac, as_, filtc) == codimension(qs, t)
    # trivial type at a minimum: LT space is zero
    Am, filtm = make_critical_point(qs, ((2, 1),), as_, seed=9)
    assert tangent_decomposition(qs, Am, as_, filtm) == 0

    # linear A3 quiver 1 -> 2 -> 3, including a length-3 type
    q3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    a3 = StabilityParam.trace_free(q3, (1, 1, 1), [1, 0, -1])
    types3 = enumerate_hn_types(q3, (1, 1, 1), a3, include_trivial=False)
    t3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(types3) == 3 and t3 in types3 and codimension(q3, t3) == 2
    for t in types3:
        A3, filt3 = make_critical_point(q3, t, a3, seed=0)
        assert tangent_decomposition(q3, A3, a3, filt3) == codimension(q3, t)
        if t == t3:
            # a critical point is its own graded object
            g3 = graded_object(q3, A3, filt3)
            assert all(np.array_equal(x, y) for x, y in zip(g3.mats, A3.mats))

    # every non-trivial star type at v=(3,1) and (4,1)
    for v in [(3, 1), (4, 1)]:
        av = two_filtered_param(qs, v, "inf", -1)
        for t in enumerate_hn_types(qs, v, av, include_trivial=False):
            Ac, filtc = make_critical_point(qs, t, av, seed=0)
            assert tangent_decomposition(qs, Ac, av, filtc) == codimension(qs, t)


def test_tangent_decomposition_rejects_noncritical():
    q, v, a = star21()
    A = Representation.random(q, v, np.random.default_rng(0))
    with pytest.raises(ClassificationError, match="not numerically critical"):
        tangent_decomposition(q, A, a, Filtration.coordinate(v, ((1, 1), (1, 0))))


def test_flow_to_critical_reports_flyby():
    q, v, a = star21()
    A, filt = make_hn_example(q, ((1, 1), (1, 0)), a, seed=10)
    A_inf, crit, res = flow_to_critical(q, A, a)
    assert crit.hn_type == ((1, 1), (1, 0))
    assert grad_norm(q, A_inf, a) < 1e-7
    assert res.dip_state is not None
    assert res.critical_path == "dip"
    assert res.fallback_reason is None


def test_stiff_plateau_rejections():
    # the flow creeps past the saddle on a stiff plateau, where a step
    # controlled by the error estimate alone swings across the stability
    # boundary (160 rejected trial steps against 249 accepted ones)
    q, v, a = star21()
    A, _ = make_hn_example(q, ((1, 1), (1, 0)), a, seed=3, eta_scale=1.0, require_stable=True)
    _, crit, res = flow_to_critical(q, A, a, FlowConfig(max_time=30))
    assert res.converged
    assert crit.hn_type == ((1, 1), (1, 0)) and res.critical_path == "dip"
    assert res.stats.n_rejected_err <= 0.25 * res.stats.n_accepted


def test_flow_to_critical_records_fallback_reason(monkeypatch):
    q, v, a = star21()
    A, _ = make_hn_example(q, ((1, 1), (1, 0)), a, seed=10)
    real = strata.classify_critical
    calls = []

    def fail_on_dip(q_, A_, *args, **kwargs):
        calls.append(A_)
        if len(calls) == 1:
            raise ClassificationError("forced on the dip state")
        return real(q_, A_, *args, **kwargs)

    monkeypatch.setattr(strata, "classify_critical", fail_on_dip)
    A_inf, crit, res = flow_to_critical(q, A, a)
    assert res.dip_state is not None and calls[0] is res.dip_state
    assert res.fallback_reason == "ClassificationError: forced on the dip state"
    assert res.critical_path == "endpoint"
    # the endpoint is classified instead
    assert A_inf is res.final and crit.hn_type == ((2, 1),)


TRIANGLE_DIMS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]


def count_flows(monkeypatch) -> list:
    """Record every flow and every gauge-group descent strata starts."""
    calls = []

    def counting(real):
        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        return counted

    for name in ("integrate_flow", "certify_semistable"):
        monkeypatch.setattr(strata, name, counting(getattr(strata, name)))
    return calls


def test_make_hn_example_not_slope_generic_part():
    # the part (2,1,1) is strictly semistable at a generic draw, and its flow
    # converges algebraically: a sampler that waits for grad_tol gives up
    # after minutes and reports the stratum empty
    v = (2, 2, 1)
    a = StabilityParam(trace_free(v, (2, -1, -1)))
    t0 = time.perf_counter()
    A, filt = make_hn_example(TRIANGLE, ((2, 1, 1), (0, 1, 0)), a, seed=0)
    assert time.perf_counter() - t0 < 5
    assert filt.hn_type == ((2, 1, 1), (0, 1, 0)) and A.dims == v


def test_make_hn_example_triangle_coverage(monkeypatch):
    calls = count_flows(monkeypatch)
    built, empty = 0, 0
    for v in TRIANGLE_DIMS:
        a = StabilityParam(trace_free(v, (2, -1, -1)))
        nonempty = nonempty_hn_types(TRIANGLE, v, a)
        for t in enumerate_hn_types(TRIANGLE, v, a, include_trivial=False):
            if t not in nonempty:
                before = len(calls)
                with pytest.raises(ConstructionError, match="exact series"):
                    make_hn_example(TRIANGLE, t, a, seed=0)
                assert len(calls) == before
                empty += 1
            else:
                A, filt = make_hn_example(TRIANGLE, t, a, seed=0)
                assert filt.hn_type == t and A.dims == v
                built += 1
    assert (built, empty) == (38, 22)
    # the built parts were certified through the recorded descent
    assert calls


def test_make_hn_example_length_three_is_block_upper_triangular():
    # a length-3 triangle type: the diagonal blocks are the semistable
    # draws, the extensions lie above them, and nothing lies below
    v, t = (2, 2, 2), ((1, 0, 1), (1, 1, 1), (0, 1, 0))
    A, filt = make_hn_example(TRIANGLE, t, StabilityParam(trace_free(v, (2, -1, -1))), seed=0)
    assert filt.hn_type == t
    lab = strata._part_labels(t)
    upper = 0.0
    for (out_i, in_i), r in zip(TRIANGLE.edge_indices(), filt.coordinates(TRIANGLE, A.mats)):
        rows, cols = lab[in_i][:, None], lab[out_i][None, :]
        assert np.all(r[rows > cols] == 0)
        upper += np.abs(r[rows < cols]).sum()
    assert upper > 0


def gap_cases():
    """(quiver, v, parameter, type, seed) of constructed unstable instances:
    every non-trivial star type at v = (2,1)..(4,1) and every nonempty
    non-trivial triangle type, seed 0, plus the star instances whose flow
    drains past the saddle and the length-3 triangle type that does so at
    seeds 0-2."""
    qs = star21()[0]
    for v in [(2, 1), (3, 1), (4, 1)]:
        a = two_filtered_param(qs, v, "inf", -1)
        for t in enumerate_hn_types(qs, v, a, include_trivial=False):
            yield qs, v, a, t, 0
    for v, t, seed in [((3, 1), ((1, 1), (2, 0)), 3), ((4, 1), ((1, 1), (3, 0)), 2)]:
        yield qs, v, two_filtered_param(qs, v, "inf", -1), t, seed
    for v in TRIANGLE_DIMS:
        a = StabilityParam(trace_free(v, (2, -1, -1)))
        for t in nonempty_hn_types(TRIANGLE, v, a):
            if len(t) > 1:
                yield TRIANGLE, v, a, t, 0
    for seed in (1, 2):
        v = (2, 2, 2)
        yield TRIANGLE, v, StabilityParam(trace_free(v, (2, -1, -1))), ((1, 0, 1), (1, 1, 1), (0, 1, 0)), seed


def test_descent_iterates_are_witnesses():
    # the descent starts at g = id, and f falls strictly along it; each
    # yielded g is its own witness while it is well conditioned. Random star
    # draws are semistable and descend towards f = 0; the triangle instance
    # is unstable, so f stops falling above the gap. Both descents end by
    # themselves at the step floor, well inside the bound on the step sum
    q, v, a = star21()
    rng = np.random.default_rng(0)
    starts = [(q, a, Representation.random(q, v, rng)) for _ in range(5)]
    v3 = (2, 2, 2)
    a3 = StabilityParam(trace_free(v3, (2, -1, -1)))
    starts.append((TRIANGLE, a3, make_hn_example(TRIANGLE, ((2, 2, 0), (0, 0, 2)), a3)[0]))
    for q, a, B in starts:
        iterates = list(strata._descend(q, B, a))
        t0, f0, cond0, g0 = iterates[0]
        assert (t0, cond0) == (0.0, 1.0) and f0 == f_value(q, B, a)
        assert all(np.array_equal(b, np.eye(d)) for b, d in zip(g0, B.dims))
        for (t1, f1, _, _), (t2, f2, _, _) in zip(iterates, iterates[1:]):
            assert t2 > t1 and f2 < f1
        for _, f, cond, g in iterates:
            if cond <= 1e4:
                witness = f_value(q, act(GaugeElement(g), B), a)
                assert abs(witness - f) <= 1e-12 * max(1.0, f)
        assert iterates[-1][0] < strata._MAX_ETA_SUM
    assert iterates[-1][1] > semistable_gap(TRIANGLE, v3, a3)


def test_gap_certificate_rejects_unstable_instances():
    # the flow from many of these drains below the gap once roundoff ejects
    # it from the stratum, by t = 15; the descent on the gauge group stays in
    # the orbit, so it ends above the level, under the full bound on its
    # steps: on the triangle types ((k,0,0),(0,*,*)) g diverges by different
    # scalars at the 1-dimensional vertices, which cond(g) over all blocks
    # sees before exp overflows
    outcomes = []
    for q, v, a, t, seed in gap_cases():
        A, _ = make_hn_example(q, t, a, seed=seed)
        gap = semistable_gap(q, v, a)
        cert = certify_semistable(q, A, a, gap)
        assert not cert.certified, (v, t, seed, cert)
        assert cert.gap == float(gap) and cert.level < cert.gap
        outcomes.append(cert.outcome)
    assert set(outcomes) == {"above gap"}


def test_gap_certificate_accepts_random_starts():
    q = star21()[0]
    rng = np.random.default_rng(0)
    for v in [(2, 1), (3, 1)]:
        a = two_filtered_param(q, v, "inf", -1)
        gap = semistable_gap(q, v, a)
        for _ in range(5):
            cert = certify_semistable(q, Representation.random(q, v, rng), a, gap)
            assert cert.certified and cert.t < 2.0 and 1.0 <= cert.cond < 10.0


def test_gap_certificate_at_a_start_below_the_gap():
    # a start already below the level takes no step: the witness is g = id
    q = star21()[0]
    v = (2, 1)
    a = two_filtered_param(q, v, "inf", -1)
    B = integrate_flow(q, Representation.random(q, v, np.random.default_rng(0)), a).final
    cert = certify_semistable(q, B, a, semistable_gap(q, v, a))
    assert cert.certified and cert.t == 0.0
    assert cert.cond == 1.0


def test_sample_semistable_trivial_part_single_draw(monkeypatch):
    # (2, 0) on star21 has no non-trivial HN type: every draw is semistable
    q, _, a = star21()
    part = (2, 0)
    a_s = shifted_param(q, part, a)
    assert semistable_gap(q, part, a_s) is None
    calls = count_flows(monkeypatch)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    B = sample_semistable(q, part, a_s, rng)
    first = Representation.random(q, part, ref)
    assert all(np.array_equal(x, y) for x, y in zip(B.mats, first.mats))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert calls == []


def test_sample_semistable_empty_locus_raises_without_flow(monkeypatch):
    v = (2, 0, 2)
    a = StabilityParam.trace_free(TRIANGLE, v, [-1, 0, 1])
    assert (v,) not in nonempty_hn_types(TRIANGLE, v, a)
    calls = count_flows(monkeypatch)
    with pytest.raises(ConstructionError, match="is empty: the exact series"):
        sample_semistable(TRIANGLE, v, a, np.random.default_rng(0))
    assert calls == []


def test_sample_semistable_out_of_attempts_reports_flows(monkeypatch):
    q, v, a = star21()
    monkeypatch.setattr(strata, "_MAX_ETA_SUM", 1e-3)
    monkeypatch.setattr(strata, "_MAX_ATTEMPTS", 2)
    with pytest.raises(ConstructionError) as err:
        sample_semistable(q, v, a, np.random.default_rng(0))
    msg = str(err.value)
    assert "in 2 attempts" in msg and "(2 above gap)" in msg and "empty" not in msg


def test_gap_certificate_large_star_draw():
    # scaling keeps a draw semistable; at 300 times a random draw, H has
    # eigenvalues near 1e5, so the first trial steps overflow exp, and their
    # f, not finite, halves the step instead of raising
    q, v, a = star21()
    for seed in range(3):
        B = Representation.random(q, v, np.random.default_rng(seed))
        B = B.with_mats([300 * m for m in B.mats])
        assert certify_semistable(q, B, a, semistable_gap(q, v, a)).certified
