"""Time integration of the negative gradient flow of f = ||Phi - alpha||^2,
the paired group flow on the complexified gauge group, and the sigma
monotonicity monitor.

All three flows run on one explicit embedded Dormand-Prince 5(4) driver with
an extra acceptance gate enforcing monotone decrease of f, which guarantees
the Lyapunov property the convergence theory relies on. Each flow is a
"system": a function of one flat state vector returning its time derivative,
f and ||grad f||. The representation part of the state is the block
embedding of repspace.BlockEmbedding, so one call of repspace.moment_kernel
(three matrix products, no loop over edges) evaluates H, the gradient and f.
The pair is first-same-as-last (FSAL): its last stage is evaluated at the
new point, so that stage is the next step's first stage and also yields f
and ||grad f|| there. A step, accepted or rejected, costs six system calls,
which is six kernel calls (twelve for the paired flow, whose system is two
group-flow systems).
The group flow is co-integrated with the same pair and the same factor-2
time scale as the gradient flow, so that g(t) . A(0) tracks the flow
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quiver import Quiver, StabilityParam, rank
from .repspace import BlockEmbedding, GaugeElement, Representation, act, moment_kernel

# Dormand-Prince 5(4) tableau. Row 6 of _A equals the 5th-order weights, so
# the last stage is evaluated at the new point (FSAL).
_A = np.array(
    [
        [0.0] * 6,
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# weights of the error estimate y5 - y4
_E = np.append(_A[6], 0.0) - _B4


class FlowError(RuntimeError):
    pass


class StepUnderflowError(FlowError):
    """min_step reached without an acceptable step; carries the last state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class FlowConfig:
    grad_tol: float = 1e-8
    max_time: float = 1e4
    initial_step: float = 1e-2
    min_step: float = 1e-13
    max_step: float = 5.0
    safety: float = 0.9
    rtol: float = 1e-10
    atol: float = 1e-12
    sample_stride: int = 10
    drift_tol: float = 1e-5
    # a gradient dip below saddle_tol followed by a 10x rise marks a flyby of
    # a non-minimal critical point; finite precision cannot track the
    # measure-zero stratum all the way down to grad_tol
    saddle_tol: float = 1e-4

    def __post_init__(self):
        if not (0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError("require 0 < min_step <= initial_step <= max_step")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class FlowSample:
    t: float
    f: float
    grad_norm: float
    sigma: float | None = None
    phi_c_norm: float | None = None


@dataclass
class FlowStats:
    """Work counters of one integration. Every trial step costs six system
    calls after the first (FSAL), so

        n_rhs == 1 + 6 * (n_accepted + n_rejected_err
                          + n_rejected_monotone + n_nonfinite).

    Rejections are split by reason: error estimate above tolerance, f rising
    past the monotone gate, or a non-finite trial. h_min and h_max range over
    accepted steps (inf and 0 when there are none)."""

    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected_err: int = 0
    n_rejected_monotone: int = 0
    n_nonfinite: int = 0
    h_min: float = math.inf
    h_max: float = 0.0


@dataclass
class FlowResult:
    final: Representation
    final_f: float
    final_grad_norm: float
    elapsed: float
    trajectory: list[FlowSample]
    converged: bool
    n_steps: int
    warnings: list[str] = field(default_factory=list)
    # state at the first locked gradient dip (saddle flyby), if any
    dip_state: Representation | None = None
    dip_t: float | None = None
    dip_grad_norm: float | None = None
    dip_f: float | None = None
    stats: FlowStats = field(default_factory=FlowStats)
    # why strata.critical_of_flow set the dip state aside for the endpoint,
    # "ExceptionClass: message" when classifying or refining it raised
    fallback_reason: str | None = None


_F_MONOTONE_TOL = 1e-10


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm costs twice as much on these short vectors
    return math.sqrt(np.vdot(x, x).real)


@dataclass
class _DriverOut:
    y: np.ndarray
    t: float
    f: float
    g: float
    converged: bool
    stats: FlowStats
    # (grad norm, state, t, f) at the locked dip, if any
    dip: tuple | None


def _integrate(system, y0: np.ndarray, cfg: FlowConfig, on_sample) -> _DriverOut:
    """The adaptive DP5(4) driver shared by every flow.

    system(y) returns (dy/dt, f, ||grad f||) at the flat state y.
    on_sample(t, y, f, gnorm) is called on the initial state, every
    sample_stride-th accepted step, and the final state. The first state
    whose running-minimum gradient norm drops below saddle_tol and is later
    exceeded tenfold gets locked as the dip record (saddle flyby)."""
    stats = FlowStats(n_rhs=1)
    t = 0.0
    y = y0.astype(complex)
    y_norm = _norm(y)
    h = cfg.initial_step
    K = np.empty((7, y.size), dtype=complex)
    K[0], fs, g = system(y)
    on_sample(t, y, fs, g)
    run_min = (g, y, t, fs)
    dip = None
    while True:
        if g < cfg.grad_tol:
            converged = True
            break
        if t >= cfg.max_time:
            converged = False
            break
        h = min(h, cfg.max_step, cfg.max_time - t)
        # overflow in a rejected trial step is harmless: a non-finite error
        # estimate fails the acceptance test below and the step is halved
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 7):
                y_new = y + h * (_A[i, :i] @ K[:i])
                K[i], f_new, g_new = system(y_new)
            err = h * _norm(_E @ K)
            y_new_norm = _norm(y_new)
        stats.n_rhs += 6
        scale = cfg.atol + cfg.rtol * max(y_norm, y_new_norm)
        finite = math.isfinite(err) and math.isfinite(f_new)
        if not finite:
            err = math.inf
        if err <= scale and f_new <= fs + _F_MONOTONE_TOL * (1.0 + fs):
            t += h
            y, y_norm, fs, g = y_new, y_new_norm, f_new, g_new
            K[0] = K[6]
            stats.n_accepted += 1
            stats.h_min = min(stats.h_min, h)
            stats.h_max = max(stats.h_max, h)
            if g < run_min[0]:
                run_min = (g, y, t, fs)
            elif dip is None and run_min[0] < cfg.saddle_tol and g > 10 * run_min[0]:
                dip = run_min
            if stats.n_accepted % cfg.sample_stride == 0:
                on_sample(t, y, fs, g)
            if err > 0:
                h *= min(5.0, max(0.2, cfg.safety * (scale / err) ** 0.2))
            else:
                h *= 5.0
        else:
            if not finite:
                stats.n_nonfinite += 1
            elif err > scale:
                stats.n_rejected_err += 1
            else:
                stats.n_rejected_monotone += 1
            if err <= scale or not finite:
                h *= 0.5
            else:
                h *= max(0.1, min(0.5, cfg.safety * (scale / err) ** 0.2))
            if h < cfg.min_step:
                raise StepUnderflowError(
                    f"step size underflow at t={t:.6g} (f={fs:.6g})", t, y
                )
    on_sample(t, y, fs, g)
    return _DriverOut(y=y, t=t, f=fs, g=g, converged=converged, stats=stats, dip=dip)


def _gradient_system(emb: BlockEmbedding, a: StabilityParam):
    """dA/dt = -grad f on the embedded edges."""
    shift = emb.shift(a)

    def system(y):
        _, K, f = moment_kernel(y.reshape(emb.shape), shift)
        k = K.ravel()
        return k, f, _norm(k)

    return system


def _group_system(emb: BlockEmbedding, a: StabilityParam):
    """The gradient flow with the block-diagonal gauge element g appended to
    the state, dg/dt = 2 H g."""
    shift = emb.shift(a)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]

    def system(y):
        H, K, f = moment_kernel(y[:n_rep].reshape(emb.shape), shift)
        k = K.ravel()
        dg = 2.0 * (H @ y[n_rep:].reshape(n, n))
        return np.concatenate([k, dg.ravel()]), f, _norm(k)

    return system


def _group_state(emb: BlockEmbedding, A0: Representation) -> np.ndarray:
    return np.concatenate([emb.embed(A0.mats).ravel(), np.eye(emb.shape[0]).ravel()])


def _result(lo: _DriverOut, to_rep, samples: list[FlowSample]) -> FlowResult:
    res = FlowResult(
        final=to_rep(lo.y),
        final_f=lo.f,
        final_grad_norm=lo.g,
        elapsed=lo.t,
        trajectory=samples,
        converged=lo.converged,
        n_steps=lo.stats.n_accepted,
        stats=lo.stats,
    )
    if lo.dip is not None:
        res.dip_grad_norm, dip_y, res.dip_t, res.dip_f = lo.dip
        res.dip_state = to_rep(dip_y)
    return res


def integrate_flow(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    extra: Callable[[Representation], float] | None = None,
) -> FlowResult:
    """Integrate dA/dt = -grad f from A0 until ||grad f|| < grad_tol or
    max_time. `extra`, if given, is evaluated on each sample and recorded in
    the phi_c_norm field of the trajectory."""
    emb = BlockEmbedding(q, A0.dims)

    def to_rep(y):
        return A0.with_mats(emb.edge_blocks(y))

    samples: list[FlowSample] = []

    def on_sample(t, y, fs, g):
        s = FlowSample(t=t, f=fs, grad_norm=g)
        if extra is not None:
            s.phi_c_norm = extra(to_rep(y))
        samples.append(s)

    lo = _integrate(_gradient_system(emb, a), emb.embed(A0.mats).ravel(), cfg, on_sample)
    return _result(lo, to_rep, samples)


def integrate_group_flow(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
) -> tuple[FlowResult, GaugeElement, list[tuple[float, list[np.ndarray]]]]:
    """Co-integrate the gradient flow A(t) and the gauge curve g(t) solving
    dg/dt g^{-1} = 2 H(A(t)), g(0) = id.

    Returns the flow result, the final gauge element, and the sampled gauge
    curve. A drift warning is attached to the result if ||g(t).A0 - A(t)||
    exceeds drift_tol at any sample."""
    emb = BlockEmbedding(q, A0.dims)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]

    def to_rep(y):
        return A0.with_mats(emb.edge_blocks(y[:n_rep]))

    def gauge_blocks(y):
        return emb.vertex_blocks(y[n_rep:].reshape(n, n))

    samples: list[FlowSample] = []
    gauge_curve: list[tuple[float, list[np.ndarray]]] = []
    max_drift = 0.0

    def on_sample(t, y, fs, g):
        nonlocal max_drift
        A, gb = to_rep(y), gauge_blocks(y)
        drift = float(
            np.sqrt(sum(np.sum(np.abs(m1 - m2) ** 2) for m1, m2 in
                        zip(act(GaugeElement(gb), A0).mats, A.mats)))
        )
        max_drift = max(max_drift, drift)
        samples.append(FlowSample(t=t, f=fs, grad_norm=g))
        gauge_curve.append((t, gb))

    lo = _integrate(_group_system(emb, a), _group_state(emb, A0), cfg, on_sample)
    result = _result(lo, to_rep, samples)
    if max_drift > cfg.drift_tol:
        result.warnings.append(f"gauge drift {max_drift:.3g} exceeds drift_tol")
    return result, GaugeElement(gauge_blocks(lo.y)), gauge_curve


def sigma(h_blocks: Sequence[np.ndarray], total_rank: int) -> float:
    """sigma(h) = tr h + tr h^{-1} - 2 rank, from Hermitian eigenvalues.

    Requires each block positive-definite Hermitian; >= 0 with equality iff
    h = id."""
    acc = 0.0
    for b in h_blocks:
        if b.size == 0:
            continue
        w = np.linalg.eigvalsh(b)
        if w.min() <= 0:
            raise FlowError("sigma requires positive-definite blocks")
        acc += float(np.sum(w) + np.sum(1.0 / w))
    return acc - 2.0 * total_rank


def sigma_from_gauge(gbar_blocks: Sequence[np.ndarray], total_rank: int) -> float:
    """sigma of h = gbar^{-1} (gbar*)^{-1}, computed from singular values of
    gbar (eigenvalues of h are the inverse squared singular values)."""
    acc = 0.0
    for b in gbar_blocks:
        if b.size == 0:
            continue
        s = np.linalg.svd(b, compute_uv=False)
        acc += float(np.sum(s**2) + np.sum(1.0 / s**2))
    return acc - 2.0 * total_rank


@dataclass
class SigmaTrace:
    samples: list[tuple[float, float]]
    g1_curve: list[tuple[float, list[np.ndarray]]]
    g2_curve: list[tuple[float, list[np.ndarray]]]
    max_forward_increase: float
    converged: bool


def paired_flow_sigma(
    q: Quiver,
    A0: Representation,
    g0: GaugeElement,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
) -> SigmaTrace:
    """Run the group flow jointly from A0 and from g0 . A0, form
    gbar(t) = g2(t) g0 g1(t)^{-1}, and sample sigma(h(t)) with
    h = gbar^{-1}(gbar*)^{-1}. The two flows share time steps, so the samples
    are exactly aligned."""
    emb = BlockEmbedding(q, A0.dims)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]
    half = n_rep + n * n
    group = _group_system(emb, a)
    total = rank(A0.dims)

    def system(y):
        k1, f1, g1 = group(y[:half])
        k2, f2, g2 = group(y[half:])
        return np.concatenate([k1, k2]), f1 + f2, max(g1, g2)

    samples: list[tuple[float, float]] = []
    g1_curve: list[tuple[float, list[np.ndarray]]] = []
    g2_curve: list[tuple[float, list[np.ndarray]]] = []

    def on_sample(t, y, fs, g):
        g1 = emb.vertex_blocks(y[n_rep:half].reshape(n, n))
        g2 = emb.vertex_blocks(y[half + n_rep :].reshape(n, n))
        gbar = [
            b2 @ b0 @ np.linalg.solve(b1, np.eye(b1.shape[0], dtype=complex))
            for b2, b0, b1 in zip(g2, g0.blocks, g1)
        ]
        samples.append((t, sigma_from_gauge(gbar, total)))
        g1_curve.append((t, g1))
        g2_curve.append((t, g2))

    y0 = np.concatenate([_group_state(emb, A0), _group_state(emb, act(g0, A0))])
    lo = _integrate(system, y0, cfg, on_sample)
    increase = 0.0
    for (_, s1), (_, s2) in zip(samples, samples[1:]):
        increase = max(increase, s2 - s1)
    return SigmaTrace(
        samples=samples,
        g1_curve=g1_curve,
        g2_curve=g2_curve,
        max_forward_increase=increase,
        converged=lo.converged,
    )
