"""Harder-Narasimhan strata through one filtration type: a `Filtration` (an
HN type with orthonormal level bases) and its `coordinates`, the one change
of basis used here. A `CriticalType` is a critical filtration plus its
eigenvalues, each snapped to the exact -slope level of a sub-dimension-vector,
and a constructed critical point is a refined graded object. Also flow-based
HN typing, semistability certified at the critical-value gap by a descent on
the gauge group (the sampler behind constructed instances), intertwiner (Hom)
spaces, isomorphism certificates and the numeric tangent-space codimension
check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .flow import FlowConfig, FlowError, FlowResult, integrate_flow, _SADDLE_TOL
from .flow import _INITIAL_STEP, _MAX_STEP, _MIN_STEP
from .quiver import (
    HNType,
    Quiver,
    QuiverError,
    StabilityParam,
    check_hn_type,
    critical_value,
    enumerate_hn_types,
    rank,
    shifted_param,
    _Lattice,
)
from .repspace import Representation, f_of, grad_norm, shifted_moment, _conjugate, _evaluate
from .series import poincare_semistable


class ClassificationError(RuntimeError):
    pass


class SlopeMismatchError(ClassificationError):
    """The eigenvalues do not satisfy lambda = -slope: some eigenvalue is off
    the -slope levels, or the part on a level has another slope. The input is
    not a critical point of this functional."""


class ConstructionError(RuntimeError):
    pass


# an eigenvalue of the shifted moment lies off its -slope level by less than
# _LEVEL_MARGIN of the half-gap (at most 1/2, so by less than 1e-2), and an
# off-diagonal block of an edge matrix in the eigenbasis has norm below
# _OFF_DIAGONAL_TOL
_LEVEL_MARGIN = 2e-2
_OFF_DIAGONAL_TOL = 1e-4
# a filtration level is invariant when its block into the levels above has
# norm below _INVARIANCE_TOL
_INVARIANCE_TOL = 1e-8
# relative singular-value cutoffs of the intertwiner system: hom_space's
# nullspace and tangent_decomposition's kernel of rho^C; tangent_decomposition
# also takes its input as critical on the scale of _TANGENT_GRAD_TOL
_HOM_RANK_TOL = 1e-10
_TANGENT_RANK_TOL = 1e-8
_TANGENT_GRAD_TOL = 1e-8
# is_isomorphic draws _ISO_TRIALS random intertwiners and accepts one whose
# blocks all have condition number at most _ISO_COND_BOUND
_ISO_TRIALS = 20
_ISO_COND_BOUND = 1e8


def _part_offsets(hn_type: HNType) -> np.ndarray:
    """Block layout of an HN type in its coordinate filtration: part s
    occupies coordinates off[s, l]:off[s + 1, l] at vertex l, and the last
    row off[-1] is the dimension vector. Shape (L + 1, n_vertices)."""
    return np.vstack([np.zeros(len(hn_type[0]), dtype=int), np.cumsum(hn_type, axis=0)])


def _part_labels(hn_type: HNType) -> list[np.ndarray]:
    """Per vertex, the part index of each coordinate of the same layout."""
    parts = np.array(hn_type)
    return [np.repeat(np.arange(len(parts)), parts[:, l]) for l in range(parts.shape[1])]


def _block_matrices(q: Quiver, hn_type: HNType, block) -> list[np.ndarray]:
    """Per-edge matrices in the block layout of `hn_type`, zero but where
    block(e, s, t, shape) returns the block of edge e with rows in part s and
    columns in part t. Each edge's nonempty blocks are visited in row-major
    (s, t) order, so draws made inside `block` come in that order."""
    off = _part_offsets(hn_type)
    mats = []
    for e, (out_i, in_i) in enumerate(q.edge_indices()):
        m = np.zeros((off[-1, in_i], off[-1, out_i]), dtype=complex)
        for s, t in np.ndindex(len(hn_type), len(hn_type)):
            shape = (hn_type[s][in_i], hn_type[t][out_i])
            b = block(e, s, t, shape) if shape[0] and shape[1] else None
            if b is not None:
                m[off[s, in_i] : off[s + 1, in_i], off[t, out_i] : off[t + 1, out_i]] = b
        mats.append(m)
    return mats


def _noise(rng: np.random.Generator, shape: tuple[int, int], scale: float) -> np.ndarray:
    """A complex Gaussian block of the given shape and scale."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass
class Filtration:
    """Nested per-vertex subspaces presented through orthonormal level bases:
    the i-th filtration step at vertex l is spanned by the columns of
    bases[0][l], ..., bases[i-1][l]."""

    hn_type: HNType
    bases: tuple[tuple[np.ndarray, ...], ...]

    def full_basis(self, vertex: int) -> np.ndarray:
        return np.concatenate([b[vertex] for b in self.bases], axis=1)

    def coordinates(self, q: Quiver, mats: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Edge matrices written in the level bases: U_in^H m U_out per edge,
        with U = full_basis, so the block of rows in part s and columns in
        part t maps level t into level s."""
        U = [self.full_basis(l) for l in range(q.n_vertices)]
        return _conjugate(q, [u.conj().T for u in U], mats, U)

    def from_coordinates(self, q: Quiver, mats: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Inverse of coordinates: U_in r U_out^H per edge."""
        U = [self.full_basis(l) for l in range(q.n_vertices)]
        return _conjugate(q, U, mats, [u.conj().T for u in U])

    @classmethod
    def coordinate(cls, dims: Sequence[int], hn_type: HNType) -> "Filtration":
        """The standard coordinate filtration: consecutive coordinate blocks."""
        off = _part_offsets(hn_type)
        if tuple(off[-1]) != tuple(dims):
            raise QuiverError(f"parts of hn_type {hn_type} do not sum to dims {tuple(dims)}")
        levels = tuple(
            tuple(
                np.eye(d, dtype=complex)[:, off[s, l] : off[s + 1, l]]
                for l, d in enumerate(dims)
            )
            for s in range(len(hn_type))
        )
        return cls(hn_type, levels)


@dataclass
class CriticalType(Filtration):
    """The critical filtration of a critical point: the eigenspaces of its
    shifted moment, ordered by increasing eigenvalue lambdas[s] (strictly
    decreasing slope); bases[s][l] is an orthonormal basis (columns) of the
    s-th eigenspace at vertex l. level_margin and offdiag_residue are the
    margins classify_critical measured (see there)."""

    lambdas: tuple[float, ...]
    level_margin: float
    offdiag_residue: float


def classify_critical(
    q: Quiver,
    A: Representation,
    a: StabilityParam,
    grad_tol: float = 1e-8,
) -> CriticalType:
    """Classify a numerically critical representation: eigendecompose the
    shifted moment blocks and snap each eigenvalue to the nearest level
    -slope(w), w a nonzero sub-dimension-vector of A.dims. The eigenvalues on
    one level form one part, whose slope must be that level. The result
    carries the margins: level_margin, the worst distance of an eigenvalue
    from its level over half the least gap 1/(rank^2 * denom) between two
    slopes, and offdiag_residue, the largest norm of an off-diagonal block of
    an edge matrix in the eigenbasis."""
    if rank(A.dims) == 0:
        raise ClassificationError("empty representation space")
    if grad_norm(q, A, a) >= 10 * grad_tol:
        raise ClassificationError("input is not numerically critical")
    eigs, vecs = zip(*map(np.linalg.eigh, shifted_moment(q, A, a)))
    # -slope of every level, read off any sub-vector on it
    lat = _Lattice(q, A.dims, a)
    targets = np.empty(lat.n_levels)
    targets[lat.levels[1:]] = [-d / (r * lat.denom) for d, r in zip(lat.degrees, lat.ranks) if r]
    half_gap = 0.5 / (rank(A.dims) ** 2 * lat.denom)
    snaps = [np.abs(w[:, None] - targets).argmin(axis=1) for w in eigs]
    dev = max(float(np.abs(w - targets[k]).max(initial=0.0)) for w, k in zip(eigs, snaps))
    margin = dev / half_gap
    if margin >= _LEVEL_MARGIN:
        raise SlopeMismatchError(
            f"an eigenvalue lies {dev:.3g} off the nearest -slope level, {margin:.3g} "
            "of the half-gap: not a critical point of this functional"
        )

    all_eigs, all_snaps = np.concatenate(eigs), np.concatenate(snaps)
    bases, parts, lambdas = [], [], []
    # levels number slopes upwards, so eigenvalues rise as the level falls
    for k in sorted(set(all_snaps.tolist()), reverse=True):
        sel = [s == k for s in snaps]
        part = tuple(int(np.count_nonzero(m)) for m in sel)
        if lat.levels[sum(x * st for x, st in zip(part, lat.strides))] != k:
            raise SlopeMismatchError(
                f"the part {part} on the eigenvalue level {targets[k]:.6g} has another "
                "slope: not a critical point of this functional"
            )
        bases.append(tuple(u[:, m] for u, m in zip(vecs, sel)))
        parts.append(part)
        lambdas.append(float(np.mean(np.sort(all_eigs[all_snaps == k]))))
    hn_type = tuple(parts)

    # off-diagonal blocks of every edge matrix in the eigenbasis must vanish:
    # the squared norm of block (s, t) is summed at label s * L + t
    filt = Filtration(hn_type, tuple(bases))
    L = len(hn_type)
    lab = _part_labels(hn_type)
    off_diag = ~np.eye(L, dtype=bool).ravel()
    residue = 0.0
    for (out_i, in_i), r in zip(q.edge_indices(), filt.coordinates(q, A.mats)):
        block = (lab[in_i][:, None] * L + lab[out_i][None, :]).ravel()
        sq = np.bincount(block, weights=np.abs(r.ravel()) ** 2, minlength=L * L)
        residue = max(residue, float(np.sqrt(sq[off_diag].max(initial=0.0))))
    if residue >= _OFF_DIAGONAL_TOL:
        raise ClassificationError("edge matrix has a non-vanishing off-diagonal block")
    return CriticalType(hn_type, filt.bases, tuple(lambdas), margin, residue)


def refine_critical(
    q: Quiver,
    A: Representation,
    a: StabilityParam,
    filt: Filtration,
    cfg: FlowConfig = FlowConfig(),
) -> Representation:
    """Polish a near-critical representation into a genuine critical point of
    the filtration's type: rotate into the level bases, drop the off-diagonal
    residue, and flow each diagonal block to the zero level of its
    slope-shifted functional (those flows have stable limits, so they
    converge fully). Raises FlowError when a block flow does not converge or
    stops above the zero level."""
    edges = q.edge_indices()
    rot = filt.coordinates(q, A.mats)
    off = _part_offsets(filt.hn_type)
    diag = []
    for s, part in enumerate(filt.hn_type):
        mats = [
            r[off[s, in_i] : off[s + 1, in_i], off[s, out_i] : off[s + 1, out_i]]
            for (out_i, in_i), r in zip(edges, rot)
        ]
        a_s = shifted_param(q, part, a)
        res = integrate_flow(q, Representation(q, part, mats), a_s, cfg)
        if not res.converged:
            raise FlowError("diagonal block refinement did not converge")
        if res.final_f > 1e-12:
            raise FlowError(f"diagonal block of dimension {part} did not reach the zero level")
        diag.append(res.final.mats)
    blocks = _block_matrices(q, filt.hn_type, lambda e, s, t, _: diag[s][e] if s == t else None)
    return Representation(q, A.dims, filt.from_coordinates(q, blocks))


def critical_of_flow(
    q: Quiver,
    res: FlowResult,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
) -> tuple[Representation, CriticalType]:
    """The critical point a finished flow identifies (see flow_to_critical).

    The state classified, "dip" or "endpoint", is recorded in
    res.critical_path; when the dip state is set aside for the endpoint, the
    reason is recorded in res.fallback_reason."""
    if res.dip_state is not None:
        try:
            crit = classify_critical(q, res.dip_state, a, _SADDLE_TOL)
            A_ref = refine_critical(q, res.dip_state, a, crit, cfg)
            crit2 = classify_critical(q, A_ref, a, cfg.grad_tol)
            if crit2.hn_type == crit.hn_type:
                res.critical_path = "dip"
                return A_ref, crit2
            res.fallback_reason = (
                f"refined type {crit2.hn_type} differs from dip type {crit.hn_type}"
            )
        except (ClassificationError, FlowError, QuiverError) as e:
            res.fallback_reason = f"{type(e).__name__}: {e}"
    if not res.converged:
        raise FlowError(f"flow did not converge within max_time={cfg.max_time}")
    res.critical_path = "endpoint"
    return res.final, classify_critical(q, res.final, a, cfg.grad_tol)


def flow_to_critical(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
) -> tuple[Representation, CriticalType, FlowResult]:
    """Flow to the first critical point the trajectory identifies.

    In exact arithmetic the flow limit of a stratum point is a non-minimal
    critical point, but the stratum has positive codimension and roundoff
    ejects the numerical trajectory, which then drains to a lower stratum.
    The integrator therefore records the gradient dip of any such flyby; if
    one is present, the near-critical dip state is classified and polished
    into a genuine critical point, which is the faithful limit. Otherwise the
    converged endpoint is classified directly."""
    res = integrate_flow(q, A0, a, cfg)
    A, crit = critical_of_flow(q, res, a, cfg)
    return A, crit, res


def hn_type_by_flow(q: Quiver, A0: Representation, a: StabilityParam) -> HNType:
    """Flow to a critical point and classify it: the analytic computation of
    the Harder-Narasimhan type."""
    return flow_to_critical(q, A0, a)[1].hn_type


def slope_generic(q: Quiver, v: Sequence[int], a: StabilityParam) -> bool:
    """True when no proper nonzero sub-dimension-vector has the same slope as
    v; then semistable implies stable for this (q, v, a)."""
    v = q.check_dims(v)
    if rank(v) == 0:
        raise QuiverError("slope undefined for rank-zero dimension vector")
    levels = _Lattice(q, v, a).levels
    return levels.count(levels[-1]) == 1


def semistable_gap(q: Quiver, v: Sequence[int], a: StabilityParam) -> Fraction | None:
    """The critical-value gap of (q, v, a): the smallest critical value of f
    over the non-trivial HN types of v, or None when v has none (then every
    representation of v is semistable). Every non-trivial type has a nonzero
    slope, so the gap is positive, while a semistable representation flows
    to f = 0 (a is trace-free on v)."""
    types = enumerate_hn_types(q, v, a, include_trivial=False)
    return min(critical_value(q, t, a) for t in types) if types else None


def _require_nonempty(q: Quiver, v: Sequence[int], a: StabilityParam) -> None:
    """Raise ConstructionError when the semistable locus of v is empty, which
    the exact series tells by a zero constant term (Reineke 2003)."""
    if poincare_semistable(q, v, a, 0).coeffs[0] == 0:
        raise ConstructionError(
            f"the semistable locus of v={tuple(v)} is empty: the exact series "
            "poincare_semistable has constant term 0"
        )


# The certificate's witness is a gauge element g with f(g . B) below the gap.
# Computed g . B carries a relative rounding error of about n eps cond(g)^2,
# cond(g) taken over all blocks of g at once, and f, quartic in B, four times
# that: a witness is trusted up to cond(g) = _WITNESS_COND, and f(g . B) is
# tested against the gap less the relative margin _GAP_MARGIN, which covers
# that rounding. The descent's steps sum to at most _MAX_ETA_SUM, and the
# sampler draws at most _MAX_ATTEMPTS times.
_WITNESS_COND = 1e4
_GAP_MARGIN = 1e-6
_MAX_ETA_SUM = 1e4
_MAX_ATTEMPTS = 30


@dataclass
class GapCertificate:
    """Outcome of a descent on the gauge group from a representation B
    towards the critical-value gap of its dimension vector (see
    certify_semistable). level is the gap less the rounding margin; t, f and
    cond are where the descent stopped: t the sum of its steps, f = f(g . B)
    and cond the largest singular value of a block of g over the smallest."""

    gap: float
    level: float
    t: float
    f: float
    cond: float

    @property
    def outcome(self) -> str:
        """"certified"; "above gap", when the descent ended at or above the
        level; or "no witness", when it fell below the level only at a g too
        ill-conditioned to trust."""
        if self.f >= self.level:
            return "above gap"
        return "certified" if self.cond <= _WITNESS_COND else "no witness"

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"


def certify_semistable(
    q: Quiver, B: Representation, a: StabilityParam, gap: Fraction | float
) -> GapCertificate:
    """Certify B semistable at the critical-value gap (see semistable_gap).

    The stratum of an HN type is invariant under the complex gauge group G_C,
    and f decreases along the flow to the critical value of the type, so
    f >= that value on the whole stratum. Hence f(g . B) < gap for some g in
    G_C proves B semistable. The witness g comes from geodesic descent on
    G_C (Buergisser et al., FOCS 2019): each step g <- exp(2 eta H(g . B)) g
    is the Euler step of dg/dt g^{-1} = 2 H, and g . B is recomputed from B,
    so every iterate is its own witness; a trial is one moment evaluation at
    g . B. A step along which f does not fall (a non-finite f never does) is
    halved, and an accepted one grows 1.5x. The descent stops below the
    level (the gap less a rounding margin), at cond(g) > _WITNESS_COND, when
    the step falls under the flow's least step (flow._MIN_STEP), or when the
    steps sum to _MAX_ETA_SUM; a step is capped as the flow caps its own."""
    gap = float(gap)
    level = gap * (1 - _GAP_MARGIN)

    def moment_at(mats):  # f and the blocks H_l at edge matrices mats
        emb, (two_h, _) = _evaluate(q, B.dims, mats, a)
        return f_of(two_h), [0.5 * b for b in emb.vertex_blocks(two_h)]

    g = g_inv = [np.eye(d, dtype=complex) for d in B.dims]
    (f, h), t, eta, cond = moment_at(B.mats), 0.0, _INITIAL_STEP, 1.0
    eigs = [np.linalg.eigh(b) for b in h]
    while f >= level and cond <= _WITNESS_COND and eta >= _MIN_STEP and t < _MAX_ETA_SUM:
        eta = min(eta, _MAX_STEP, _MAX_ETA_SUM - t)
        g_new, g_inv_new = [], []
        # a step too long for exp overflows, and its f fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            for (w, u), b, b_inv in zip(eigs, g, g_inv):
                g_new.append((u * np.exp(2 * eta * w)) @ u.conj().T @ b)
                g_inv_new.append(b_inv @ (u * np.exp(-2 * eta * w)) @ u.conj().T)
            f_new, h = moment_at(_conjugate(q, g_new, B.mats, g_inv_new))
        if f_new < f:
            g, g_inv, f, t = g_new, g_inv_new, f_new, t + eta
            eigs = [np.linalg.eigh(b) for b in h]
            sv = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in g])
            cond = float(sv.max() / sv.min())
            eta *= 1.5
        else:
            eta *= 0.5
    return GapCertificate(gap, level, t, f, cond)


def sample_semistable(
    q: Quiver,
    v: Sequence[int],
    a: StabilityParam,
    rng: np.random.Generator,
    *,
    _known_nonempty: bool = False,
) -> Representation:
    """Rejection-sample a semistable representation of v, certified at the
    critical-value gap. When v has no non-trivial HN type the first draw is
    returned and nothing flows; when the exact series says the semistable
    locus is empty, ConstructionError is raised at once (make_hn_example
    has checked its parts already and passes _known_nonempty). Otherwise
    each draw descends on the gauge group until f falls below the gap
    (certify_semistable), and the first certified of _MAX_ATTEMPTS draws is
    returned."""
    v = q.check_dims(v)
    gap = semistable_gap(q, v, a)
    if gap is None:
        return Representation.random(q, v, rng)
    if not _known_nonempty:
        _require_nonempty(q, v, a)
    ended = Counter()
    for _ in range(_MAX_ATTEMPTS):
        B = Representation.random(q, v, rng)
        cert = certify_semistable(q, B, a, gap)
        if cert.certified:
            return B
        ended[cert.outcome] += 1
    how = ", ".join(f"{n} {outcome}" for outcome, n in sorted(ended.items()))
    raise ConstructionError(
        f"no draw of v={tuple(v)} certified semistable in {_MAX_ATTEMPTS} attempts "
        f"at the critical-value gap {float(gap):.6g} ({how})"
    )


def make_hn_example(
    q: Quiver,
    hn_type: HNType,
    a: StabilityParam,
    seed: int = 0,
    eta_scale: float = 0.5,
    require_stable: bool = False,
) -> tuple[Representation, Filtration]:
    """Ground-truth instance of a given HN type: block-upper-triangular with
    semistable diagonal blocks (slopes strictly decreasing down the diagonal)
    and random extension blocks of relative size eta_scale. The returned
    filtration is the HN filtration by construction.

    Each diagonal block is drawn by sample_semistable, which certifies it
    semistable at the critical-value gap of its part. When the exact series
    says some part has an empty semistable locus, the stratum is empty and
    ConstructionError is raised before anything is drawn or flowed."""
    dims = tuple(sum(col) for col in zip(*hn_type))
    check_hn_type(q, dims, a, hn_type)
    shifted = [shifted_param(q, part, a) for part in hn_type]
    for part, a_s in zip(hn_type, shifted):
        if require_stable and not slope_generic(q, part, a_s):
            raise ConstructionError(
                f"part {part} admits equal-slope subvectors: stability cannot be certified"
            )
        _require_nonempty(q, part, a_s)
    rng = np.random.default_rng(seed)
    diag = [
        sample_semistable(q, part, a_s, rng, _known_nonempty=True)
        for part, a_s in zip(hn_type, shifted)
    ]
    scale = eta_scale * max(1.0, max(B.norm() for B in diag))

    def block(e, s, t, shape):
        # the semistable draws on the diagonal, random extensions above it
        if s < t:
            return _noise(rng, shape, scale)
        return diag[s].mats[e] if s == t else None

    A = Representation(q, dims, _block_matrices(q, hn_type, block))
    return A, Filtration.coordinate(dims, hn_type)


def make_critical_point(
    q: Quiver, hn_type: HNType, a: StabilityParam, seed: int = 0
) -> tuple[Representation, Filtration]:
    """Numerically critical representation of the given type: the graded
    object of the ground-truth instance make_hn_example builds from `seed`,
    refined onto the critical set (each diagonal block flowed onto the zero
    level of its slope-shifted functional)."""
    A, filt = make_hn_example(q, hn_type, a, seed)
    return refine_critical(q, graded_object(q, A, filt), a, filt), filt


def graded_object(q: Quiver, A: Representation, filt: Filtration) -> Representation:
    """Block-diagonal representation of the successive filtration quotients,
    written in the filtration's orthonormal bases. Raises if the filtration is
    not invariant under A: at each level, the block mapping the level into
    the coordinates above it must vanish."""
    off = _part_offsets(filt.hn_type)
    lab = _part_labels(filt.hn_type)
    edges = q.edge_indices()
    rot = filt.coordinates(q, A.mats)
    for level in range(1, len(filt.hn_type)):
        for (out_i, in_i), r in zip(edges, rot):
            resid = r[off[level, in_i] :, : off[level, out_i]]
            if resid.size and np.linalg.norm(resid) >= _INVARIANCE_TOL:
                raise QuiverError("filtration is not invariant under the representation")
    mats = [
        np.where(lab[in_i][:, None] == lab[out_i][None, :], r, 0)
        for (out_i, in_i), r in zip(edges, rot)
    ]
    return Representation(q, A.dims, mats)


@dataclass
class HomSpace:
    """Basis of intertwiners psi with psi_in A_a = A'_a psi_out; each basis
    element is a tuple of per-vertex matrices."""

    basis: list[tuple[np.ndarray, ...]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _intertwiner_matrix(
    q: Quiver, B: Representation, C: Representation
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix of psi -> (psi_in B_a - C_a psi_out)_a, whose kernel is Hom(B, C).

    The unknown psi_l is a v_C[l] x v_B[l] matrix. Columns hold one variable
    block per vertex, in vertex order, each the row-major vec of psi_l; the
    block of vertex l is offs[l]:offs[l + 1]. Rows hold the row-major vec of
    each edge's equation, in edge order, skipping edges with no entries.
    With B = C = A this is rho_A^C on the gauge Lie algebra. Returns (M, offs)."""
    bdims, cdims = B.dims, C.dims
    offs = np.concatenate([[0], np.cumsum([cdims[l] * bdims[l] for l in range(q.n_vertices)])])
    rows = []
    for (out_i, in_i), mb, mc in zip(q.edge_indices(), B.mats, C.mats):
        n_eq = cdims[in_i] * bdims[out_i]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, offs[-1]), dtype=complex)
        # vec_r(psi_in @ mb) = (I kron mb^T) vec_r(psi_in)
        block[:, offs[in_i] : offs[in_i + 1]] = np.kron(np.eye(cdims[in_i]), mb.T)
        # vec_r(mc @ psi_out) = (mc kron I) vec_r(psi_out)
        block[:, offs[out_i] : offs[out_i + 1]] -= np.kron(mc, np.eye(bdims[out_i]))
        rows.append(block)
    M = np.concatenate(rows, axis=0) if rows else np.zeros((0, offs[-1]), dtype=complex)
    return M, offs


def hom_space(q: Quiver, B: Representation, C: Representation) -> HomSpace:
    """Solve the homogeneous intertwining system by SVD nullspace. The system
    is _intertwiner_matrix(q, B, C): row-major vec per edge, and one variable
    block per vertex in vertex order."""
    M, offs = _intertwiner_matrix(q, B, C)
    n_vars = M.shape[1]
    if n_vars == 0:
        return HomSpace(basis=[])
    if M.shape[0]:
        _, s, vh = np.linalg.svd(M)
        cutoff = _HOM_RANK_TOL * max(1.0, s[0] if s.size else 0.0)
        r = int(np.sum(s > cutoff))
        null = vh[r:].conj()
    else:
        null = np.eye(n_vars, dtype=complex)
    basis = []
    for row in null:
        psi = tuple(
            row[offs[l] : offs[l + 1]].reshape(C.dims[l], B.dims[l])
            for l in range(q.n_vertices)
        )
        basis.append(psi)
    return HomSpace(basis=basis)


@dataclass
class IsoResult:
    isomorphic: bool
    witness: tuple[np.ndarray, ...] | None
    trials: int
    hom_dimension: int


def is_isomorphic(q: Quiver, B: Representation, C: Representation, seed: int = 0) -> IsoResult:
    """Randomized certificate test: sample elements of Hom(B, C) and accept
    when every vertex block is invertible. A positive answer carries an
    explicit witness; a negative answer is probabilistic."""
    if B.dims != C.dims:
        raise QuiverError("is_isomorphic requires equal dimension vectors")
    hom = hom_space(q, B, C)
    if hom.dimension == 0:
        return IsoResult(False, None, 0, 0)
    rng = np.random.default_rng(seed)
    for k in range(_ISO_TRIALS):
        coeffs = rng.standard_normal(hom.dimension) + 1j * rng.standard_normal(hom.dimension)
        psi = tuple(
            sum(c * b[l] for c, b in zip(coeffs, hom.basis))
            for l in range(q.n_vertices)
        )
        ok = True
        for m in psi:
            if m.size == 0:
                continue
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= 0 or s[0] / s[-1] > _ISO_COND_BOUND:
                ok = False
                break
        if ok:
            return IsoResult(True, psi, k + 1, hom.dimension)
    return IsoResult(False, None, _ISO_TRIALS, hom.dimension)


@dataclass
class GradedLimitReport:
    type_match: bool
    isomorphic: bool
    hom_dimension: int


def verify_graded_limit(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    filt: Filtration,
    seed: int = 0,
) -> GradedLimitReport:
    """Flow A0 to its limit, build the graded object of the construction
    filtration, and compare: the limit must have the construction type and be
    isomorphic (as a quiver representation) to the graded object."""
    A_inf, crit, _ = flow_to_critical(q, A0, a)
    graded = graded_object(q, A0, filt)
    iso = is_isomorphic(q, A_inf, graded, seed=seed)
    return GradedLimitReport(
        type_match=crit.hn_type == filt.hn_type,
        isomorphic=iso.isomorphic,
        hom_dimension=iso.hom_dimension,
    )


class RankAmbiguityError(RuntimeError):
    pass


def tangent_decomposition(
    q: Quiver,
    A: Representation,
    a: StabilityParam,
    filt: Filtration,
) -> int:
    """Complex dimension of ker(rho_A^C)* intersected with the
    lower-triangular block subspace, at a critical A with critical filtration
    `filt`. Equals the combinatorial stratum codimension."""
    if grad_norm(q, A, a) >= 10 * _TANGENT_GRAD_TOL:
        raise ClassificationError("input is not numerically critical")
    # work in the filtration's orthonormal coordinates
    Af = A.with_mats(filt.coordinates(q, A.mats))
    # complex matrix of rho^C: one column per gauge basis element
    M, _ = _intertwiner_matrix(q, Af, Af)
    Ufull, s, _ = np.linalg.svd(M, full_matrices=True)
    cutoff = _TANGENT_RANK_TOL * max(1.0, s[0] if s.size else 0.0)
    if np.any((s > cutoff / 10) & (s < cutoff * 10)):
        raise RankAmbiguityError("singular value within a decade of the rank tolerance")
    N = Ufull[:, int(np.sum(s > cutoff)) :]

    # lower-triangular coordinate mask: row block strictly below column block
    lab = _part_labels(filt.hn_type)
    mask = [
        (lab[in_i][:, None] > lab[out_i][None, :]).ravel() for out_i, in_i in q.edge_indices()
    ]
    flat = np.concatenate(mask) if mask else np.zeros(0, dtype=bool)
    if not flat.any() or N.shape[1] == 0:
        return 0
    angles = np.linalg.svd(N[flat].conj().T, compute_uv=False)
    near_one = int(np.sum(angles > 1 - 1e-6))
    if np.any((angles > 1e-3) & (angles < 1 - 1e-3)):
        raise RankAmbiguityError("ambiguous principal angle between kernel and LT subspace")
    return near_one
