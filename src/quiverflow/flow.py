"""Time integration of the negative gradient flow of f = ||Phi - alpha||^2,
the paired group flow on the complexified gauge group, and the sigma
monotonicity monitor.

All three flows run on one explicit embedded Dormand-Prince 8(5,3) driver
(DOP853) with an extra acceptance gate enforcing monotone decrease of f,
which guarantees the Lyapunov property the convergence theory relies on.
Each flow is a "system": a function of one flat state vector returning its
time derivative, f and ||grad f||. The representation part of the state is
the block embedding of repspace.BlockEmbedding, so one call of
repspace.moment_kernel (three matrix products, no loop over edges) evaluates
H, the gradient and f.
The pair is first-same-as-last (FSAL): its last stage is evaluated at the
new point, so that stage is the next step's first stage and also yields f
and ||grad f|| there. A trial step, accepted or rejected, costs twelve
system calls, which is twelve kernel calls (24 for the paired flow, whose
system is two group-flow systems). The step error blends the 5th- and
3rd-order embedded estimates, as in DOP853.
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
from .repspace import BlockEmbedding, GaugeElement, Representation, act, moment_kernel, rep_norm

# Dormand-Prince 8(5,3) tableau (DOP853; Hairer, Norsett & Wanner, Solving
# ODEs I, II.10, coefficients of dop853.f). Row i of _A holds the weights of
# stages 0..i-1 for stage i; row 12 is the 8th-order weights b, so the last
# stage is evaluated at the new point (FSAL).
_A_ROWS = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
]
_A = np.array([row + [0.0] * (12 - len(row)) for row in _A_ROWS])
# weights of the 5th- and 3rd-order error estimates over the 13 stages; the
# step error is their blend h ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2)
_E = np.array(
    [
        [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
         -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
         0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0],
        [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, -0.4226823213237919,
         -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0],
    ]
)


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
    phi_c_norm: float | None = None


@dataclass
class FlowStats:
    """Work counters of one integration. Every trial step costs twelve
    system calls after the first (FSAL), so

        n_rhs == 1 + 12 * (n_accepted + n_rejected_err
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
    # which state strata.critical_of_flow classified: "dip" (the refined
    # saddle-flyby state) or "endpoint"; None until it has run
    critical_path: str | None = None
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
    """The adaptive Dormand-Prince 8(5,3) driver shared by every flow.

    A trial step takes twelve system calls into a (13, n) stage array; its
    error is h ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2) with the embedded
    5th- and 3rd-order estimates e5 and e3, against the scale
    atol + rtol * max(||y||, ||y_new||), and the step factor goes with the
    1/8th power of scale / error.

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
    K = np.empty((13, y.size), dtype=complex)
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
            for i in range(1, 13):
                y_new = y + h * (_A[i, :i] @ K[:i])
                K[i], f_new, g_new = system(y_new)
            e5, e3 = _E @ K
            n5, n3 = float(np.vdot(e5, e5).real), float(np.vdot(e3, e3).real)
            denom = n5 + 0.01 * n3
            err = h * n5 / math.sqrt(denom) if denom else 0.0
            y_new_norm = _norm(y_new)
        stats.n_rhs += 12
        scale = cfg.atol + cfg.rtol * max(y_norm, y_new_norm)
        finite = math.isfinite(err) and math.isfinite(f_new)
        if not finite:
            err = math.inf
        if err <= scale and f_new <= fs + _F_MONOTONE_TOL * (1.0 + fs):
            t += h
            y, y_norm, fs, g = y_new, y_new_norm, f_new, g_new
            K[0] = K[12]
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
                h *= min(5.0, max(0.2, cfg.safety * (scale / err) ** 0.125))
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
                h *= max(0.1, min(0.5, cfg.safety * (scale / err) ** 0.125))
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
        drift = rep_norm([m1 - m2 for m1, m2 in zip(act(GaugeElement(gb), A0).mats, A.mats)])
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
