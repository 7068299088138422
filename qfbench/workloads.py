"""The four workloads. Each is built from the run's seed into rounds of ops;
an op is one timed call into quiverflow plus an untimed check of its output
against oracle.py.

Every round of a run holds the same number of ops of the same kinds, so the
share of failed ops is the same in every run. The flow workloads repeat one
round of seeded inputs; poincare-exact gives every round its own parameter
scale, so no top-level input repeats within a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle
from quiverflow import flow, quiver, repspace, series, strata
from quiverflow.catalog import star21

GRAD_TOL = 1e-8
CRIT_TOL = 1e-8  # |f - critical value|, as in the package's critical-value law
AGREE_TOL = 1e-12  # reported value against the recomputed one
MONOTONE_TOL = 1e-10  # the integrator's acceptance gate on f
WITNESS_TOL = 1e-8
SIGMA_TOL = 1e-8
PAIRED_GRAD_TOL = 1e-7

T1 = ((1, 1), (1, 0))
T2 = ((0, 1), (2, 0))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # returns the name of the first failed check, or None
    check: Callable[[object], str | None]
    # reason this op fails while a named fault in quiverflow stands
    known_fault: str | None = None


@dataclass
class Plan:
    rounds: Callable[[int], list[Op]]  # round index -> ops of that round
    warmup: Op


def _star(v):
    q = star21()[0]
    return q, quiver.two_filtered_param(q, v, "inf", -1)


def _check_flow(q, a, res, crit_values) -> str | None:
    if not res.converged or not res.final_grad_norm < GRAD_TOL:
        return "not_converged"
    fs = [s.f for s in res.trajectory]
    if any(f2 > f1 + MONOTONE_TOL * (1.0 + f1) for f1, f2 in zip(fs, fs[1:])):
        return "f_increased"
    f, g = oracle.moment_and_gradient(q.edge_indices(), res.final.dims, a, res.final.mats)
    if abs(f - res.final_f) > AGREE_TOL or abs(g - res.final_grad_norm) > AGREE_TOL:
        return "reported_f_or_grad"
    if min(abs(f - c) for c in crit_values) > CRIT_TOL:
        return "not_a_critical_value"
    return None


# --- flow-ensemble ----------------------------------------------------------

FLOW_OPS_PER_ROUND = 16


def flow_ensemble(seed: int) -> Plan:
    q21, a21 = _star((2, 1))
    q31, a31 = _star((3, 1))
    crit21 = oracle.hn_critical_values(a21, (2, 1))
    crit31 = oracle.hn_critical_values(a31, (3, 1))

    def make(idx):
        rng = np.random.default_rng(idx)
        A = repspace.Representation.random(q21, (2, 1), rng)
        B = repspace.Representation.random(q31, (3, 1), rng)

        def run():
            return flow.integrate_flow(q21, A, a21), flow.integrate_flow(q31, B, a31)

        def check(out):
            return _check_flow(q21, a21, out[0], crit21) or _check_flow(q31, a31, out[1], crit31)

        return Op(f"flow start {idx}", run, check)

    ops = [make(seed * FLOW_OPS_PER_ROUND + i) for i in range(FLOW_OPS_PER_ROUND)]
    return Plan(rounds=lambda r: ops, warmup=ops[0])


# --- hn-typing --------------------------------------------------------------

# ops of type T1 cost about 0.55 s and ops of type T2 about 0.3 s; with T1 in
# the majority the median op falls inside the T1 cluster, not at its edge
HN_SEEDS_PER_SCALE = {T1: 3, T2: 1}
HN_SCALES = (0.1, 1.0, 10.0)
# ROADMAP item 3: the flow drains past the saddle and returns the semistable
# type; the inputs are fixed, so every round fails exactly these three
HN_KNOWN_MISSES = (
    ((3, 1), ((1, 1), (2, 0)), 3),
    ((4, 1), ((1, 1), (3, 0)), 2),
    ((4, 1), ((2, 1), (2, 0)), 0),
)


def _hn_op(v, hn_type, seed, eta_scale, graded: bool, known_fault=None) -> Op:
    q, a = _star(v)
    edges = q.edge_indices()
    crit_value = oracle.type_critical_value(a, hn_type)
    kwargs = {} if eta_scale is None else {"eta_scale": eta_scale}

    def run():
        A, filt = strata.make_hn_example(
            q, hn_type, a, seed=seed, require_stable=graded, **kwargs
        )
        A_inf, crit, _ = strata.flow_to_critical(q, A, a)
        iso = None
        if graded:
            gr = strata.graded_object(q, A, filt)
            iso = strata.is_isomorphic(q, A_inf, gr, seed=seed), gr
        return A_inf, crit, iso

    def check(out):
        A_inf, crit, iso = out
        if crit.hn_type != hn_type:
            return "type_mismatch"
        f, _ = oracle.moment_and_gradient(edges, A_inf.dims, a, A_inf.mats)
        if abs(f - crit_value) > CRIT_TOL:
            return "critical_value"
        if iso is not None:
            res, gr = iso
            if not res.isomorphic:
                return "not_isomorphic"
            resid = oracle.witness_residual(edges, res.witness, A_inf.mats, gr.mats)
            if resid is None or resid > WITNESS_TOL:
                return "witness"
        return None

    label = f"hn {v} {hn_type} eta={eta_scale} seed={seed}"
    return Op(label, run, check, known_fault)


def hn_typing(seed: int) -> Plan:
    ops = []
    for hn_type, k in HN_SEEDS_PER_SCALE.items():
        for scale in HN_SCALES:
            for s in range(seed * k, seed * k + k):
                ops.append(_hn_op((2, 1), hn_type, s, scale, graded=hn_type == T1))
    for v, hn_type, s in HN_KNOWN_MISSES:
        ops.append(_hn_op(v, hn_type, s, None, graded=False, known_fault="type_mismatch"))
    return Plan(rounds=lambda r: ops, warmup=ops[0])


# --- poincare-exact ---------------------------------------------------------

MAX_DEGREE = 24
KRONECKER3 = quiver.Quiver(("1", "2"), (("1", "2"),) * 3)
TRIANGLE = quiver.Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3")))


def _shift_to_trace_free(v, base):
    mu = Fraction(sum(x * d for x, d in zip(base, v)), sum(v))
    return tuple(Fraction(x) - mu for x in base)


def _poincare_cases():
    """(quiver, v, parameter direction) of every seeded case; a run scales
    the direction by a distinct positive integer per round, which leaves
    every slope comparison, and so the series, unchanged."""
    star = star21()[0]
    cases = [(star, (k, 1), tuple(_star((k, 1))[1])) for k in range(2, 9)]
    for v in itertools.product(range(5), range(5)):
        if sum(v):
            cases.append((KRONECKER3, v, (v[1], -v[0])))
    for v in itertools.product(range(3), range(3), range(3)):
        if sum(v):
            cases.append((TRIANGLE, v, _shift_to_trace_free(v, (2, -1, -1))))
    return cases


# ROADMAP item 4: an empty stratum reaches codimension() with a negative
# value and the recursion raises instead of cancelling the term
POINCARE_KNOWN_FAULTS = (
    (TRIANGLE, (2, 0, 2), (-1, 0, 1)),
    (TRIANGLE, (2, 3, 2), _shift_to_trace_free((2, 3, 2), (2, -1, -1))),
    (KRONECKER3, (4, 5), (5, -4)),
    (KRONECKER3, (5, 5), (5, -5)),
)


class _SeriesOracle:
    """Reineke series keyed by what determines it: the quiver, v and the set
    of sub-dimension vectors whose slope exceeds slope(v)."""

    def __init__(self):
        self._memo = {}

    def __call__(self, q, v, a):
        mu = oracle.slope(a, v)
        above = frozenset(
            w
            for w in itertools.product(*(range(x + 1) for x in v))
            if 0 < sum(w) < sum(v) and oracle.slope(a, w) > mu
        )
        key = (q.edges, v, above)
        if key not in self._memo:
            self._memo[key] = oracle.reineke_series(q.edge_indices(), v, a, MAX_DEGREE)
        return self._memo[key]


def _poincare_op(q, v, a, reineke, known_fault=None) -> Op:
    param = quiver.StabilityParam.trace_free(q, v, a)

    def run():
        return series.poincare_semistable(q, v, param, MAX_DEGREE)

    def check(out):
        return None if out.coeffs == reineke(q, v, a) else "reineke_mismatch"

    return Op(f"poincare {q.edges} {v}", run, check, known_fault)


def poincare_exact(seed: int) -> Plan:
    cases = _poincare_cases()
    reineke = _SeriesOracle()
    base = 2 + (seed % 4096) * 128

    def rounds(r):
        c = base + r
        ops = [_poincare_op(q, v, tuple(c * x for x in a), reineke) for q, v, a in cases]
        # the known-fault inputs do not depend on the seed
        ops += [
            _poincare_op(q, v, tuple((r + 1) * x for x in a), reineke, "QuiverError")
            for q, v, a in POINCARE_KNOWN_FAULTS
        ]
        return ops

    q, v, a = cases[0]
    return Plan(rounds=rounds, warmup=_poincare_op(q, v, tuple((base - 1) * x for x in a), reineke))


# --- paired-sigma -----------------------------------------------------------

PAIRED_OPS_PER_ROUND = 14


def paired_sigma(seed: int) -> Plan:
    q, v, a = star21()
    edges = q.edge_indices()

    def make(idx):
        rng = np.random.default_rng(idx)
        A0 = repspace.Representation.random(q, v, rng)
        g0 = repspace.GaugeElement([
            np.eye(d, dtype=complex)
            + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for d in v
        ])

        def run():
            return flow.paired_flow_sigma(q, A0, g0, a)

        def check(tr):
            if not tr.converged:
                return "not_converged"
            if not tr.max_forward_increase <= SIGMA_TOL:
                return "sigma_increased"
            sig = [
                oracle.sigma([b2 @ b0 @ np.linalg.inv(b1) for b2, b0, b1 in zip(g2, g0.blocks, g1)],
                             sum(v))
                for (_, g1), (_, g2) in zip(tr.g1_curve, tr.g2_curve)
            ]
            if any(s2 > s1 + SIGMA_TOL for s1, s2 in zip(sig, sig[1:])):
                return "sigma_increased"
            if max(abs(s - r) for s, (_, r) in zip(sig, tr.samples)) > SIGMA_TOL * (1 + max(sig)):
                return "reported_sigma"
            g1 = tr.g1_curve[-1][1]
            A1 = [g1[t] @ m @ np.linalg.inv(g1[s]) for (s, t), m in zip(edges, A0.mats)]
            _, g = oracle.moment_and_gradient(edges, v, a, A1)
            if not g < PAIRED_GRAD_TOL:
                return "g1_A0_not_critical"
            return None

        return Op(f"paired start {idx}", run, check)

    ops = [make(seed * PAIRED_OPS_PER_ROUND + i) for i in range(PAIRED_OPS_PER_ROUND)]
    return Plan(rounds=lambda r: ops, warmup=ops[0])


WORKLOADS = {
    "flow-ensemble": flow_ensemble,
    "hn-typing": hn_typing,
    "poincare-exact": poincare_exact,
    "paired-sigma": paired_sigma,
}
