"""Time integration of the negative gradient flow of f = ||Phi - alpha||^2,
the paired group flow on the complexified gauge group, and the sigma
monotonicity monitor.

All three flows run on one explicit embedded Dormand-Prince 8(5,3) driver
(DOP853) with an extra acceptance gate enforcing monotone decrease of f,
which guarantees the Lyapunov property the convergence theory relies on.
Each flow is a "system": a stage function that writes the time derivative
of one flat state vector in place, and a measure that returns f and
||grad f|| at the state of the latest stage. The representation part of the
state is the block embedding of repspace.BlockEmbedding, so one call of
repspace.moment_kernel (four matrix products, no loop over edges) evaluates
2H and the gradient; the paired flow stacks its two members on a leading
axis, so it too takes one kernel call per stage.
The pair is first-same-as-last (FSAL): its last stage is evaluated at the
new point, so that stage is the next step's first stage, and the measure
taken there gives f and ||grad f|| at the new point. A trial step, accepted
or rejected, costs twelve stages, which is twelve stacked kernel calls for
every flow, and one measure. The step error blends the 5th- and 3rd-order
embedded estimates, as in DOP853. Each stage input is one dot product of the
step-scaled complex tableau row with the earlier stages, written into a
preallocated stage-input array.
Near a critical point the flow is stiff, and the step size is set by the
stability of the pair rather than by its accuracy. Stages 11 and 12 both sit
at the new time, so their difference estimates the stiffest rate the step
damps, and the next step is capped at the edge of the real stability
interval; as in dop853.f, a step never grows right after a rejection.
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
from .repspace import (
    BlockEmbedding,
    GaugeElement,
    Representation,
    act,
    f_of,
    moment_kernel,
)

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
# the stage sums multiply the tableau into the complex stages; stored complex
# once, so no stage casts a float row
_A_C = _A.astype(complex)
# weights of the 5th- and 3rd-order error estimates over the 13 stages,
# complex like the stages; the step error is their blend
# h ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2)
_E = np.array(
    [
        [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
         -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
         0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0],
        [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, -0.4226823213237919,
         -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0],
    ],
    dtype=complex,
)
# the stability cap: the step after an accepted one is at most
# _STIFF_KAPPA / rho, rho the stiffest rate estimated from stages 11 and 12.
# On the DOP853 stability function R(-6) = -0.49, and the real stability
# interval ends near -6.39 (see test_dop853_stiff_cap)
_STIFF_KAPPA = 6.0


class FlowError(RuntimeError):
    pass


class StepUnderflowError(FlowError):
    """_MIN_STEP reached without an acceptable step; carries the last state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


# step control of _integrate, whose error scale is atol + rtol * ||y||
_INITIAL_STEP = 1e-2
_MIN_STEP = 1e-13
_MAX_STEP = 5.0
_SAFETY = 0.9
_RTOL = 1e-10
_ATOL = 1e-12
# a gradient dip below _SADDLE_TOL followed by a 10x rise marks a saddle
# flyby: finite precision cannot track the stratum down to grad_tol
_SADDLE_TOL = 1e-4


@dataclass(frozen=True)
class FlowConfig:
    """Stopping rule and sampling of a flow: stop when ||grad f|| < grad_tol
    or at t = max_time, and record every sample_stride-th accepted step."""

    grad_tol: float = 1e-8
    max_time: float = 1e4
    sample_stride: int = 10

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not self.max_time > 0:
            raise ValueError("max_time must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class FlowSample:
    t: float
    f: float
    grad_norm: float
    phi_c_norm: float | None = None


@dataclass
class FlowStats:
    """Work counters of one integration. Every trial step costs twelve
    stages after the first (FSAL), each one stacked kernel call, so

        n_rhs == 1 + 12 * (n_accepted + n_rejected_err
                           + n_rejected_monotone + n_nonfinite).

    Rejections are split by reason: error estimate above tolerance, f rising
    past the monotone gate, or a non-finite trial. h_min and h_max range over
    accepted steps (inf and 0 when there are none). n_stiff_capped counts the
    accepted steps whose next step the stability cap bounded below what the
    error estimate allowed."""

    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected_err: int = 0
    n_rejected_monotone: int = 0
    n_nonfinite: int = 0
    h_min: float = math.inf
    h_max: float = 0.0
    n_stiff_capped: int = 0


@dataclass
class FlowResult:
    final: Representation
    final_f: float
    final_grad_norm: float
    elapsed: float
    trajectory: list[FlowSample]
    converged: bool
    n_steps: int
    # state at the first locked gradient dip (saddle flyby), if any
    dip_state: Representation | None = None
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
    # (grad norm, state) at the locked dip, if any
    dip: tuple | None


def _integrate(
    system, y0: np.ndarray, cfg: FlowConfig, on_sample, stop_below: float | None = None
) -> _DriverOut:
    """The adaptive Dormand-Prince 8(5,3) driver shared by every flow.

    A trial step of size h sums the stage inputs Y[i] = y + (h A)[i, :i] K[:i]
    into a (13, n) array, with h A formed once per trial from the complex
    tableau, takes twelve stages into a (13, n) stage array K and one measure
    of f and ||grad f|| at its last stage, the new point Y[12]. Its error is
    h ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2) with the embedded 5th- and
    3rd-order estimates e5 and e3, against the scale
    atol + rtol * max(||y||, ||Y[12]||), and the step factor goes with the
    1/8th power of scale / error, clamped to [0.2, 5] after an accepted step.

    Near a critical point the flow is stiff, and past the stability boundary
    of the pair the error test alone makes the step swing between growth and
    rejection. Stages 11 and 12 both sit at t + h, so after an accepted step
    rho = ||K[12] - K[11]|| / ||Y[12] - Y[11]|| estimates the stiffest rate
    the step damps (Hairer & Wanner, Solving ODEs II, IV.2), and the factor
    is capped at _STIFF_KAPPA / (h rho), which keeps h rho inside the real
    stability interval. As in dop853.f, the step that follows a rejection
    does not grow.

    system is a pair (stage, measure). stage(y, out) writes dy/dt at the
    flat state y into out; measure(k) returns (f, ||grad f||) at the state
    of the latest stage call, whose dy/dt is k. The driver measures y0 and
    the FSAL stage of each trial step, the new point, and no other stage.
    on_sample(t, y, f, gnorm) is called on the initial state, every
    sample_stride-th accepted step, and the final state. The first state
    whose running-minimum gradient norm drops below _SADDLE_TOL and is later
    exceeded tenfold gets locked as the dip record (saddle flyby).

    The flow stops at the first state, the initial one or an accepted one,
    whose f lies below stop_below (never, by default); converged then stays
    False unless ||grad f|| is below grad_tol there too."""
    stop_below = -math.inf if stop_below is None else stop_below
    stats = FlowStats(n_rhs=1)
    t = 0.0
    y = y0.astype(complex)
    y_norm = _norm(y)
    h = _INITIAL_STEP
    stage, measure = system
    K = np.empty((13, y.size), dtype=complex)
    Y = np.empty_like(K)
    stage(y, K[0])
    fs, g = measure(K[0])
    on_sample(t, y, fs, g)
    run_min = (g, y)
    dip = None
    rejected = False
    while True:
        if g < cfg.grad_tol:
            converged = True
            break
        if fs < stop_below or t >= cfg.max_time:
            converged = False
            break
        h = min(h, _MAX_STEP, cfg.max_time - t)
        hA = h * _A_C
        # overflow in a rejected trial step is harmless: a non-finite error
        # estimate fails the acceptance test below and the step is halved
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 13):
                np.dot(hA[i, :i], K[:i], out=Y[i])
                Y[i] += y
                stage(Y[i], K[i])
            f_new, g_new = measure(K[12])
            e5, e3 = _E @ K
            n5, n3 = float(np.vdot(e5, e5).real), float(np.vdot(e3, e3).real)
            denom = n5 + 0.01 * n3
            err = h * n5 / math.sqrt(denom) if denom else 0.0
            y_new_norm = _norm(Y[12])
        stats.n_rhs += 12
        scale = _ATOL + _RTOL * max(y_norm, y_new_norm)
        # a norm that overflows leaves scale infinite or NaN and no error
        # control: such a trial is non-finite whatever err says
        finite = math.isfinite(err) and math.isfinite(f_new) and math.isfinite(y_new_norm)
        if not finite:
            err = math.inf
        if finite and err <= scale and f_new <= fs + _F_MONOTONE_TOL * (1.0 + fs):
            t += h
            y, y_norm, fs, g = Y[12].copy(), y_new_norm, f_new, g_new
            K[0] = K[12]
            stats.n_accepted += 1
            stats.h_min = min(stats.h_min, h)
            stats.h_max = max(stats.h_max, h)
            if g < run_min[0]:
                run_min = (g, y)
            elif dip is None and run_min[0] < _SADDLE_TOL and g > 10 * run_min[0]:
                dip = run_min
            if stats.n_accepted % cfg.sample_stride == 0:
                on_sample(t, y, fs, g)
            fac = min(5.0, _SAFETY * (scale / err) ** 0.125) if err > 0 else 5.0
            dk, dy = _norm(K[12] - K[11]), _norm(Y[12] - Y[11])
            # kappa / (h rho) < fac with rho = dk / dy, safe when dk = 0
            if _STIFF_KAPPA * dy < fac * h * dk:
                fac = _STIFF_KAPPA * dy / (h * dk)
                stats.n_stiff_capped += 1
            if rejected:
                fac = min(fac, 1.0)
                rejected = False
            h *= max(0.2, fac)
        else:
            if not finite:
                stats.n_nonfinite += 1
            elif err > scale:
                stats.n_rejected_err += 1
            else:
                stats.n_rejected_monotone += 1
            rejected = True
            if err <= scale or not finite:
                h *= 0.5
            else:
                h *= max(0.1, min(0.5, _SAFETY * (scale / err) ** 0.125))
            if h < _MIN_STEP:
                raise StepUnderflowError(
                    f"step size underflow at t={t:.6g} (f={fs:.6g})", t, y
                )
    on_sample(t, y, fs, g)
    return _DriverOut(y=y, t=t, f=fs, g=g, converged=converged, stats=stats, dip=dip)


def _gradient_system(emb: BlockEmbedding, a: StabilityParam):
    """dA/dt = -grad f on the embedded edges."""
    two_shift = 2.0 * emb.shift(a)
    two_h = None

    def stage(y, out):
        nonlocal two_h
        two_h, _ = moment_kernel(y.reshape(emb.shape), two_shift, out=out)

    def measure(k):
        return f_of(two_h), _norm(k)

    return stage, measure


def _group_system(emb: BlockEmbedding, a: StabilityParam, members: int):
    """The gradient flow with the block-diagonal gauge element g appended to
    the state, dg/dt = 2 H g, for a stack of independent members: the state
    is `members` rows of (embedded edges, g), and one stacked kernel call
    evaluates them all. f is the sum over the members and ||grad f|| the
    largest member's."""
    two_shift = 2.0 * emb.shift(a)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]
    width = n_rep + n * n
    two_h = None

    def stage(y, out):
        nonlocal two_h
        y, out = y.reshape(members, width), out.reshape(members, width)
        two_h, _ = moment_kernel(
            y[:, :n_rep].reshape(members, *emb.shape), two_shift, out=out[:, :n_rep]
        )
        np.matmul(two_h, y[:, n_rep:].reshape(members, n, n),
                  out=out[:, n_rep:].reshape(members, n, n))

    def measure(k):
        k = k.reshape(members, width)
        return sum(f_of(h) for h in two_h), max(_norm(row[:n_rep]) for row in k)

    return stage, measure


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
        res.dip_state = to_rep(lo.dip[1])
    return res


def integrate_flow(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    extra: Callable[[Representation], float] | None = None,
    *,
    stop_below: float | None = None,
) -> FlowResult:
    """Integrate dA/dt = -grad f from A0 until ||grad f|| < grad_tol,
    max_time, or, when stop_below is given, the first state with
    f < stop_below. `extra`, if given, is evaluated on each sample and
    recorded in the phi_c_norm field of the trajectory."""
    emb = BlockEmbedding(q, A0.dims)

    def to_rep(y):
        return A0.with_mats(emb.edge_blocks(y))

    samples: list[FlowSample] = []

    def on_sample(t, y, fs, g):
        s = FlowSample(t=t, f=fs, grad_norm=g)
        if extra is not None:
            s.phi_c_norm = extra(to_rep(y))
        samples.append(s)

    lo = _integrate(
        _gradient_system(emb, a), emb.embed(A0.mats).ravel(), cfg, on_sample, stop_below
    )
    return _result(lo, to_rep, samples)


def integrate_gauge(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    *,
    stop_below: float | None = None,
    on_sample: Callable[[float, Representation, list[np.ndarray]], None] | None = None,
) -> tuple[FlowResult, list[np.ndarray]]:
    """Co-integrate the gradient flow A(t) and the gauge curve g(t) solving
    dg/dt g^{-1} = 2 H(A(t)), g(0) = id; stop_below stops the flow as in
    integrate_flow. Returns the flow result and the per-vertex blocks of the
    final g, unchecked: on an unstable start g diverges, and its blocks may
    be numerically singular. on_sample(t, A, g_blocks), if given, sees every
    sample; it is how a caller reads the gauge curve."""
    emb = BlockEmbedding(q, A0.dims)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]

    def to_rep(y):
        return A0.with_mats(emb.edge_blocks(y[:n_rep]))

    def gauge_blocks(y):
        return emb.vertex_blocks(y[n_rep:].reshape(n, n))

    samples: list[FlowSample] = []

    def sample(t, y, fs, g):
        samples.append(FlowSample(t=t, f=fs, grad_norm=g))
        if on_sample is not None:
            on_sample(t, to_rep(y), gauge_blocks(y))

    lo = _integrate(_group_system(emb, a, 1), _group_state(emb, A0), cfg, sample, stop_below)
    return _result(lo, to_rep, samples), gauge_blocks(lo.y)


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
    stats: FlowStats


def paired_flow_sigma(
    q: Quiver,
    A0: Representation,
    g0: GaugeElement,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
) -> SigmaTrace:
    """Run the group flow jointly from A0 and from g0 . A0, form
    gbar(t) = g2(t) g0 g1(t)^{-1}, and sample sigma(h(t)) with
    h = gbar^{-1}(gbar*)^{-1}. The two flows are the two members of one
    stacked group system, so they share time steps and the samples are
    exactly aligned."""
    emb = BlockEmbedding(q, A0.dims)
    n_rep = math.prod(emb.shape)
    n = emb.shape[0]
    half = n_rep + n * n
    total = rank(A0.dims)

    samples: list[tuple[float, float]] = []
    g1_curve: list[tuple[float, list[np.ndarray]]] = []
    g2_curve: list[tuple[float, list[np.ndarray]]] = []

    def on_sample(t, y, fs, g):
        g1 = emb.vertex_blocks(y[n_rep:half].reshape(n, n))
        g2 = emb.vertex_blocks(y[half + n_rep :].reshape(n, n))
        gbar = [b2 @ b0 @ np.linalg.inv(b1) for b2, b0, b1 in zip(g2, g0.blocks, g1)]
        samples.append((t, sigma_from_gauge(gbar, total)))
        g1_curve.append((t, g1))
        g2_curve.append((t, g2))

    y0 = np.concatenate([_group_state(emb, A0), _group_state(emb, act(g0, A0))])
    lo = _integrate(_group_system(emb, a, 2), y0, cfg, on_sample)
    increase = 0.0
    for (_, s1), (_, s2) in zip(samples, samples[1:]):
        increase = max(increase, s2 - s1)
    return SigmaTrace(
        samples=samples,
        g1_curve=g1_curve,
        g2_curve=g2_curve,
        max_forward_increase=increase,
        converged=lo.converged,
        stats=lo.stats,
    )
