"""Acceptance suite: one test per top-level correctness criterion, each
printing a single PASS/FAIL line at the stated tolerance."""

import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from quiverflow import (
    DoubledRep,
    FlowConfig,
    GaugeElement,
    Representation,
    StabilityParam,
    a2,
    act,
    classify_critical,
    codimension,
    double,
    enumerate_hn_types,
    f_value,
    finite_difference_check,
    flow_on_level,
    flow_to_critical,
    hn_type_by_flow,
    integrate_flow,
    jordan2,
    level_linearization_residual,
    lt_perturbation,
    make_critical_point,
    make_hn_example,
    paired_flow_sigma,
    poincare_semistable,
    reconstruct_BG_check,
    slope,
    star21,
    tangent_decomposition,
    two_filtered_param,
    verify_graded_limit,
)
from conftest import random_quiver_with_infty, random_unitary_gauge

BUILTIN_MAKERS = (a2, jordan2, star21)


def report(num: int, desc: str, ok: bool):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # also bypass output capture so the per-criterion verdict is always
        # visible in the test run's console output
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for make in BUILTIN_MAKERS:
        q, v, a = make()
        worst = max(worst, finite_difference_check(q, v, a, rng, 20))
    dt = time.perf_counter() - t0
    report(1, f"max relative FD gradient error {worst:.3g} < 1e-6 in {dt:.2f}s < 5s",
           worst < 1e-6 and dt < 5.0)


def _hundred_flows():
    cfg = FlowConfig(sample_stride=1)
    runs = []
    per = (34, 33, 33)
    for make, n in zip(BUILTIN_MAKERS, per):
        q, v, a = make()
        for seed in range(n):
            A0 = Representation.random(q, v, np.random.default_rng(seed))
            runs.append((q, a, integrate_flow(q, A0, a, cfg)))
    return runs


def test_criterion_02_flow_convergence():
    t0 = time.perf_counter()
    runs = _hundred_flows()
    all_conv = all(r.converged and r.final_grad_norm < 1e-8 for _, _, r in runs)
    monotone = True
    for _, _, r in runs:
        fs = [s.f for s in r.trajectory]
        monotone &= all(f2 <= f1 + 1e-10 * (1.0 + f1) for f1, f2 in zip(fs, fs[1:]))
    dt = time.perf_counter() - t0
    report(2, f"100/100 flows converged with per-step monotone f in {dt:.1f}s < 60s",
           all_conv and monotone and dt < 60.0)


def test_criterion_03_closed_form():
    q, v, a = a2()
    A0 = Representation(q, v, [np.array([[0.1]], dtype=complex)])
    res = integrate_flow(q, A0, a)
    err = abs(abs(res.final.mats[0][0, 0]) ** 2 - 2.0)
    report(3, f"|A_inf|^2 error {err:.3g} < 1e-8 and f {res.final_f:.3g} < 1e-12",
           res.converged and err < 1e-8 and res.final_f < 1e-12)


def _classified_limits():
    """Classified critical representations: converged random-start limits for
    each builtin plus constructed non-minimal critical points."""
    out = []
    for make in BUILTIN_MAKERS:
        q, v, a = make()
        for seed in range(5):
            A0 = Representation.random(q, v, np.random.default_rng(seed))
            A_inf, crit, _ = flow_to_critical(q, A0, a)
            out.append((q, a, A_inf, crit))
    qs, vs, as_ = star21()
    for t in [((1, 1), (1, 0)), ((0, 1), (2, 0))]:
        for seed in range(3):
            A, _ = make_critical_point(qs, t, as_, seed=seed)
            out.append((qs, as_, A, classify_critical(qs, A, as_)))
    qa, va, aa = a2()
    out.append((qa, aa, Representation.zero(qa, va),
                classify_critical(qa, Representation.zero(qa, va), aa)))
    return out


@pytest.fixture(scope="module")
def classified_limits():
    return _classified_limits()


def test_criterion_04_eigenvalue_slope_law(classified_limits):
    worst = 0.0
    for q, a, A, crit in classified_limits:
        for lam, part in zip(crit.lambdas, crit.hn_type):
            worst = max(worst, abs(lam + float(slope(q, part, a))))
    report(4, f"max |lambda + slope| = {worst:.3g} < 1e-6 over "
              f"{len(classified_limits)} classified limits", worst < 1e-6)


def test_criterion_05_critical_value_law(classified_limits):
    worst = 0.0
    for q, a, A, crit in classified_limits:
        f_star = sum(sum(p) * float(slope(q, p, a)) ** 2 for p in crit.hn_type)
        worst = max(worst, abs(f_value(q, A, a) - f_star))
    report(5, f"max |f - sum rank*mu^2| = {worst:.3g} < 1e-8", worst < 1e-8)


def test_criterion_06_stratification_equivalence():
    qs, vs, as_ = star21()
    qa, va, aa = a2()
    cases = []
    for t in [((1, 1), (1, 0)), ((0, 1), (2, 0))]:
        for scale in (0.1, 1.0, 10.0):
            for seed in range(8):
                cases.append((qs, as_, t, scale, seed))
    for scale in (0.1, 1.0, 10.0):
        for seed in range(3):
            cases.append((qa, aa, ((1, 0), (0, 1)), scale, seed))
    assert len(cases) >= 50
    n_match = 0
    for q, a, t, scale, seed in cases:
        A, _ = make_hn_example(q, t, a, seed=seed, eta_scale=scale)
        if hn_type_by_flow(q, A, a) == t:
            n_match += 1
    report(6, f"hn_type_by_flow matched the construction type in "
              f"{n_match}/{len(cases)} instances (100% required)",
           n_match == len(cases))


def test_criterion_07_graded_limit_isomorphism():
    families = [(a2, ((1, 0), (0, 1))), (star21, ((1, 1), (1, 0)))]
    n_ok = n_total = 0
    for make, t in families:
        q, v, a = make()
        for seed in range(20):
            A, filt = make_hn_example(q, t, a, seed=seed, require_stable=True)
            rep = verify_graded_limit(q, A, a, filt, seed=seed)
            n_total += 1
            n_ok += rep.type_match and rep.isomorphic
    report(7, f"graded-object isomorphism held on {n_ok}/{n_total} instances "
              "(20 per family with stable blocks)", n_ok == n_total == 40)


def test_criterion_08_sigma_monotonicity():
    worst_inc = 0.0
    n = 0
    for make in BUILTIN_MAKERS:
        q, v, a = make()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A0 = Representation.random(q, v, rng)
            g0 = GaugeElement(
                [np.eye(d, dtype=complex)
                 + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                 for d in v]
            )
            tr = paired_flow_sigma(q, A0, g0, a)
            worst_inc = max(worst_inc, tr.max_forward_increase)
            n += 1
    worst_unitary = 0.0
    for make in BUILTIN_MAKERS:
        q, v, a = make()
        for seed in (10, 11):
            rng = np.random.default_rng(seed)
            A0 = Representation.random(q, v, rng)
            tr = paired_flow_sigma(q, A0, random_unitary_gauge(v, rng), a)
            worst_unitary = max(worst_unitary, max(abs(s) for _, s in tr.samples))
            n += 1
    report(8, f"{n} paired flows: max sigma increase {worst_inc:.3g} <= 1e-8, "
              f"unitary-g0 sigma {worst_unitary:.3g} <= 1e-8",
           n >= 20 and worst_inc <= 1e-8 and worst_unitary <= 1e-8)


def test_criterion_09_codimension_consistency():
    qs, vs, as_ = star21()
    qa, va, aa = a2()
    qj, vj, aj = jordan2()
    cases = [
        (qs, as_, ((1, 1), (1, 0))),
        (qs, as_, ((0, 1), (2, 0))),
        (qs, as_, ((2, 1),)),
        (qa, aa, ((1, 0), (0, 1))),
        (qa, aa, ((1, 1),)),
        (qj, aj, ((2,),)),
    ]
    ok = True
    for q, a, t in cases:
        A, filt = make_critical_point(q, t, a, seed=0)
        ok &= tangent_decomposition(q, A, a, filt) == codimension(q, t)
    report(9, f"tangent decomposition == combinatorial codimension on all "
              f"{len(cases)} constructed critical points (exact)", ok)


def test_criterion_10_worked_example_reproduction():
    q, v, a = star21()
    assert a.values == (Fraction(-1), Fraction(2))
    t = ((1, 1), (1, 0))
    nu = tuple(s for part in t for s in [slope(q, part, a)] * sum(part))
    exact = nu == (Fraction(1, 2), Fraction(1, 2), Fraction(-1))
    A, _ = make_critical_point(q, t, a, seed=0)
    crit = classify_critical(q, A, a)
    report(10, f"slope vector {tuple(str(x) for x in nu)} == (1/2, 1/2, -1) "
               f"exactly and critical type {crit.hn_type} == ((1,1),(1,0))",
           exact and crit.hn_type == t)


def test_criterion_11_poincare_recursion():
    t0 = time.perf_counter()
    q, v, a = a2()
    s = poincare_semistable(q, v, a, 20)
    all_ones = all(c == (1 if k % 2 == 0 else 0) for k, c in enumerate(s.coeffs))
    a_rev = StabilityParam.trace_free(q, v, [-1, 1])
    zero = poincare_semistable(q, v, a_rev, 20).is_zero()
    resid_zero = True
    for make in BUILTIN_MAKERS:
        qq, vv, aa = make()
        resid_zero &= reconstruct_BG_check(qq, vv, aa, 12).is_zero()
    resid_zero &= reconstruct_BG_check(q, v, a_rev, 12).is_zero()
    dt = time.perf_counter() - t0
    report(11, f"even all-ones series, zero series for the reversed parameter, "
               f"and zero reconstruction residuals in {dt:.2f}s < 5s",
           all_ones and zero and resid_zero and dt < 5.0)


def test_criterion_12_two_filtered_lengths():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q, dims = random_quiver_with_infty(rng)
        a = two_filtered_param(q, dims, "inf", Fraction(-1))
        for t in enumerate_hn_types(q, dims, a, include_trivial=False):
            ok &= len(t) == 2
    report(12, "all nontrivial HN types on 20 random rank-1-vertex star "
               "quivers have length exactly 2", ok)


def test_criterion_13_hyperkahler_conservation():
    worst = 0.0
    n = 0
    # zero-B starts on each builtin quiver
    for make in BUILTIN_MAKERS:
        q, v, a = make()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = Representation.random(q, v, rng).mats
            b0 = [np.zeros((v[o], v[i]), dtype=complex) for o, i in q.edge_indices()]
            res = flow_on_level(DoubledRep.from_parts(q, v, A, b0), a)
            worst = max(worst, max(s.phi_c_norm for s in res.trajectory))
            n += 1
    # commuting pairs on the loop quiver, rotated by a random unitary gauge
    q, v, a = jordan2()
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = A @ A + 0.3 * A
        rep = act(random_unitary_gauge(v, rng), Representation(double(q), v, [A, B]))
        res = flow_on_level(DoubledRep(q, rep), a)
        worst = max(worst, max(s.phi_c_norm for s in res.trajectory))
        n += 1
    report(13, f"{n} on-level flows kept ||Phi_C|| <= {worst:.3g} <= 1e-8",
           n == 20 and worst <= 1e-8)


def test_criterion_14_level_linearization():
    q, v, a = star21()
    qd = double(q)
    rep, _ = make_critical_point(qd, ((0, 1), (2, 0)), a, seed=0)
    dr = DoubledRep(q, rep)
    crit = classify_critical(qd, rep, a)
    rng = np.random.default_rng(0)
    delta = lt_perturbation(dr, crit, rng)
    dnorm2 = float(sum(np.sum(np.abs(d) ** 2) for d in delta))
    resid_lt = level_linearization_residual(dr, crit, delta)
    generic = [rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
               for m in rep.mats]
    resid_gen = level_linearization_residual(dr, crit, generic)
    report(14, f"LT residual {resid_lt:.3g} <= 1e-12*||delta||^2 = {1e-12*dnorm2:.3g}; "
               f"generic control {resid_gen:.3g} > 0",
           dnorm2 > 0 and resid_lt <= 1e-12 * dnorm2 and resid_gen > 1e-6)
