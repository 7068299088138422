"""Harder-Narasimhan strata through one filtration type: a `Filtration` (an
HN type with orthonormal level bases) and its `coordinates`, the one change
of basis used here. A `CriticalType` is a critical filtration plus its
eigenvalues, and a constructed critical point is a refined graded object.
Also flow-based HN typing, semistability certified at the critical-value gap
(the sampler behind constructed instances), intertwiner (Hom) spaces,
isomorphism certificates and the numeric tangent-space codimension check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .flow import FlowConfig, FlowError, FlowResult, integrate_flow, integrate_gauge
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
    slope,
    _Lattice,
)
from .repspace import Representation, f_value, grad_norm, shifted_moment
from .series import poincare_semistable


class ClassificationError(RuntimeError):
    pass


class ClusterAmbiguityError(ClassificationError):
    """Two eigenvalue clusters are separated by a gap in the ambiguous band
    [cluster_tol, 2*cluster_tol); retry with a different tolerance."""


class SlopeMismatchError(ClassificationError):
    """Eigenvalue clusters do not satisfy lambda = -slope: the input is not a
    critical point of this functional."""


class ConstructionError(RuntimeError):
    pass


def _part_offsets(hn_type: HNType) -> np.ndarray:
    """Block layout of an HN type in its coordinate filtration: part s
    occupies coordinates off[s, l]:off[s + 1, l] at vertex l, and the last
    row off[-1] is the dimension vector. Shape (L + 1, n_vertices)."""
    return np.vstack([np.zeros(len(hn_type[0]), dtype=int), np.cumsum(hn_type, axis=0)])


def _part_labels(hn_type: HNType) -> list[np.ndarray]:
    """Per vertex, the part index of each coordinate of the same layout."""
    parts = np.array(hn_type)
    return [np.repeat(np.arange(len(parts)), parts[:, l]) for l in range(parts.shape[1])]


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
        edges = q.edge_indices()
        return [U[in_i].conj().T @ m @ U[out_i] for (out_i, in_i), m in zip(edges, mats)]

    def from_coordinates(self, q: Quiver, mats: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Inverse of coordinates: U_in r U_out^H per edge."""
        U = [self.full_basis(l) for l in range(q.n_vertices)]
        edges = q.edge_indices()
        return [U[in_i] @ r @ U[out_i].conj().T for (out_i, in_i), r in zip(edges, mats)]

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
    s-th eigenspace at vertex l."""

    lambdas: tuple[float, ...]


def classify_critical(
    q: Quiver,
    A: Representation,
    a: StabilityParam,
    cluster_tol: float = 1e-4,
    grad_tol: float = 1e-8,
) -> CriticalType:
    """Classify a numerically critical representation by eigendecomposing the
    shifted moment blocks, clustering the eigenvalues across all vertices, and
    matching each cluster eigenvalue against minus the slope of its dimension
    vector."""
    if grad_norm(q, A, a) >= 10 * grad_tol:
        raise ClassificationError("input is not numerically critical")
    H = shifted_moment(q, A, a).blocks
    eigs, vecs = [], []
    for b in H:
        if b.size:
            w, u = np.linalg.eigh(b)
        else:
            w, u = np.zeros(0), np.zeros((0, 0), dtype=complex)
        eigs.append(w)
        vecs.append(u)
    all_eigs = np.sort(np.concatenate([w for w in eigs if w.size]))
    if all_eigs.size == 0:
        raise ClassificationError("empty representation space")

    # chain-cluster with threshold cluster_tol, then demand a 2*cluster_tol
    # separation between clusters so no silent misclustering is possible
    clusters: list[list[float]] = [[all_eigs[0]]]
    for x in all_eigs[1:]:
        if x - clusters[-1][-1] < cluster_tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    for c1, c2 in zip(clusters, clusters[1:]):
        gap = c2[0] - c1[-1]
        if gap < 2 * cluster_tol:
            raise ClusterAmbiguityError(
                f"eigenvalue gap {gap:.3g} in [{cluster_tol:.3g}, {2*cluster_tol:.3g}); "
                "change cluster_tol"
            )
    centers = [float(np.mean(c)) for c in clusters]

    bases, parts = [], []
    for cluster, center in zip(clusters, centers):
        sel = [np.abs(w - center) < cluster_tol * len(cluster) for w in eigs]
        bases.append(tuple(u[:, m] for u, m in zip(vecs, sel)))
        parts.append(tuple(int(np.count_nonzero(m)) for m in sel))
    hn_type = tuple(parts)

    for center, part in zip(centers, hn_type):
        mu = float(slope(q, part, a))
        if abs(center + mu) >= 100 * cluster_tol:
            raise SlopeMismatchError(
                f"cluster eigenvalue {center:.6g} != -slope {-mu:.6g}: "
                "not a critical point of this functional"
            )

    crit = CriticalType(hn_type, tuple(bases), tuple(centers))
    # off-diagonal blocks of every edge matrix in the eigenbasis must vanish:
    # the squared norm of block (s, t) is summed at label s * L + t
    L = len(hn_type)
    lab = _part_labels(hn_type)
    off_diag = ~np.eye(L, dtype=bool).ravel()
    for (out_i, in_i), r in zip(q.edge_indices(), crit.coordinates(q, A.mats)):
        block = (lab[in_i][:, None] * L + lab[out_i][None, :]).ravel()
        sq = np.bincount(block, weights=np.abs(r.ravel()) ** 2, minlength=L * L)
        if np.any(np.sqrt(sq[off_diag]) >= cluster_tol):
            raise ClassificationError("edge matrix has a non-vanishing off-diagonal block")
    return crit


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
    out = filt.from_coordinates(q, _assemble_blocks(q, filt.hn_type, diag))
    return Representation(q, A.dims, out)


def critical_of_flow(
    q: Quiver,
    res: FlowResult,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    cluster_tol: float = 1e-4,
) -> tuple[Representation, CriticalType]:
    """The critical point a finished flow identifies (see flow_to_critical).

    The state classified, "dip" or "endpoint", is recorded in
    res.critical_path; when the dip state is set aside for the endpoint, the
    reason is recorded in res.fallback_reason."""
    if res.dip_state is not None:
        try:
            crit = classify_critical(
                q, res.dip_state, a, cluster_tol, grad_tol=cfg.saddle_tol
            )
            A_ref = refine_critical(q, res.dip_state, a, crit, cfg)
            crit2 = classify_critical(q, A_ref, a, cluster_tol, cfg.grad_tol)
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
    return res.final, classify_critical(q, res.final, a, cluster_tol, cfg.grad_tol)


def flow_to_critical(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    cluster_tol: float = 1e-4,
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
    A, crit = critical_of_flow(q, res, a, cfg, cluster_tol)
    return A, crit, res


def hn_type_by_flow(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    cluster_tol: float = 1e-4,
) -> HNType:
    """Flow to a critical point and classify it: the analytic computation of
    the Harder-Narasimhan type."""
    return flow_to_critical(q, A0, a, cfg, cluster_tol)[1].hn_type


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
# and f, quartic in B, four times that: a witness is trusted up to
# cond(g) = _WITNESS_COND, and f(g . B) is tested against the gap less the
# relative margin _GAP_MARGIN, which covers that rounding.
_WITNESS_COND = 1e4
_GAP_MARGIN = 1e-6


@dataclass
class GapCertificate:
    """Outcome of flowing a representation B towards the critical-value gap
    of its dimension vector (see certify_semistable). level is the gap less
    the rounding margin; t and f are the time and value where the gradient
    flow stopped. witness_f is f(g . B) and witness_cond the largest
    condition number of a block of g, for the gauge element g co-integrated
    up to t; both are None when the flow ended at or above the level."""

    gap: float
    level: float
    t: float
    f: float
    witness_f: float | None = None
    witness_cond: float | None = None

    @property
    def outcome(self) -> str:
        """"certified"; "above gap", when the flow ended at or above the
        level; or "no witness", when f(g . B) is not below the level or g is
        too ill-conditioned to trust."""
        if self.witness_f is None:
            return "above gap"
        if self.witness_f < self.level and self.witness_cond <= _WITNESS_COND:
            return "certified"
        return "no witness"

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"


def certify_semistable(
    q: Quiver,
    B: Representation,
    a: StabilityParam,
    gap: Fraction | float,
    cfg: FlowConfig = FlowConfig(),
) -> GapCertificate:
    """Certify B semistable at the critical-value gap (see semistable_gap).

    The stratum of an HN type is invariant under the complex gauge group G_C,
    and f decreases along the flow to the critical value of the type, so
    f >= that value on the whole stratum. Hence f(g . B) < gap for some g in
    G_C proves B semistable. The gradient flow runs until f drops below the
    level (the gap less a rounding margin), ||grad f|| < grad_tol or
    max_time; if it dropped below, the gauge curve dg/dt g^{-1} = 2 H(A(t))
    is co-integrated up to the same time, and its end point g is the
    witness. The flow alone is no witness: roundoff ejects a trajectory that
    starts on an unstable stratum, and it then drains below the gap, while
    g . B stays in the orbit of B. Raises FlowError when a flow does."""
    gap = float(gap)
    level = gap * (1 - _GAP_MARGIN)
    res = integrate_flow(q, B, a, cfg, stop_below=level)
    cert = GapCertificate(gap, level, res.elapsed, res.final_f)
    if res.final_f < level:
        _, g = integrate_gauge(q, B, a, replace(cfg, max_time=res.elapsed), stop_below=level)
        inv = [np.linalg.inv(b) for b in g]
        gB = [g[in_i] @ m @ inv[out_i] for (out_i, in_i), m in zip(q.edge_indices(), B.mats)]
        cert.witness_f = f_value(q, B.with_mats(gB), a)
        cert.witness_cond = max(float(np.linalg.cond(b)) for b in g if b.size)
    return cert


def sample_semistable(
    q: Quiver,
    v: Sequence[int],
    a: StabilityParam,
    rng: np.random.Generator,
    cfg: FlowConfig = FlowConfig(),
    max_attempts: int = 30,
    *,
    _known_nonempty: bool = False,
) -> Representation:
    """Rejection-sample a semistable representation of v, certified at the
    critical-value gap. When v has no non-trivial HN type the first draw is
    returned and nothing flows; when the exact series says the semistable
    locus is empty, ConstructionError is raised at once (make_hn_example
    has checked its parts already and passes _known_nonempty). Otherwise
    each draw flows only until f falls below the gap (certify_semistable),
    and the first certified draw is returned."""
    v = q.check_dims(v)
    gap = semistable_gap(q, v, a)
    if gap is None:
        return Representation.random(q, v, rng)
    if not _known_nonempty:
        _require_nonempty(q, v, a)
    ended = Counter()
    for _ in range(max_attempts):
        B = Representation.random(q, v, rng)
        try:
            cert = certify_semistable(q, B, a, gap, cfg)
        except FlowError:
            ended["raised FlowError"] += 1
            continue
        if cert.certified:
            return B
        ended[cert.outcome] += 1
    how = ", ".join(f"{n} {outcome}" for outcome, n in sorted(ended.items()))
    raise ConstructionError(
        f"no draw of v={tuple(v)} certified semistable in {max_attempts} attempts "
        f"at the critical-value gap {float(gap):.6g} ({how})"
    )


def _assemble_blocks(
    q: Quiver,
    hn_type: HNType,
    diag: Sequence[Sequence[np.ndarray]],
    eta: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Per-edge block matrices in the coordinate filtration of `hn_type`:
    diag[s][e] is the diagonal block of part s at edge e, laid over `eta`
    (per-edge full matrices, copied) or over zeros."""
    off = _part_offsets(hn_type)
    mats = []
    for e_i, (out_i, in_i) in enumerate(q.edge_indices()):
        m = (
            eta[e_i].copy()
            if eta is not None
            else np.zeros((off[-1, in_i], off[-1, out_i]), dtype=complex)
        )
        for s, blocks in enumerate(diag):
            m[off[s, in_i] : off[s + 1, in_i], off[s, out_i] : off[s + 1, out_i]] = blocks[e_i]
        mats.append(m)
    return mats


def _upper_triangular_noise(
    q: Quiver,
    hn_type: HNType,
    rng: np.random.Generator,
    scale: float,
) -> list[np.ndarray]:
    """Per-edge matrices supported on the strictly upper blocks (maps from
    lower-slope summands into higher-slope ones, preserving the filtration)."""
    L = len(hn_type)
    off = _part_offsets(hn_type)
    out = []
    for out_i, in_i in q.edge_indices():
        m = np.zeros((off[-1, in_i], off[-1, out_i]), dtype=complex)
        for j in range(L):
            for k in range(j + 1, L):
                shape = (hn_type[j][in_i], hn_type[k][out_i])
                if shape[0] and shape[1]:
                    m[off[j, in_i] : off[j + 1, in_i], off[k, out_i] : off[k + 1, out_i]] = (
                        scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                    )
        out.append(m)
    return out


def make_hn_example(
    q: Quiver,
    hn_type: HNType,
    a: StabilityParam,
    seed: int = 0,
    eta_scale: float = 0.5,
    require_stable: bool = False,
    cfg: FlowConfig = FlowConfig(),
    max_attempts: int = 30,
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
        sample_semistable(q, part, a_s, rng, cfg, max_attempts, _known_nonempty=True)
        for part, a_s in zip(hn_type, shifted)
    ]
    diag_norm = max(1.0, max(B.norm() for B in diag))
    eta = _upper_triangular_noise(q, hn_type, rng, eta_scale * diag_norm)
    A = Representation(q, dims, _assemble_blocks(q, hn_type, [B.mats for B in diag], eta))
    return A, Filtration.coordinate(dims, hn_type)


def make_critical_point(
    q: Quiver,
    hn_type: HNType,
    a: StabilityParam,
    seed: int = 0,
    cfg: FlowConfig = FlowConfig(),
    max_attempts: int = 30,
) -> tuple[Representation, Filtration]:
    """Numerically critical representation of the given type: the graded
    object of the ground-truth instance make_hn_example builds from `seed`,
    refined onto the critical set (each diagonal block flowed onto the zero
    level of its slope-shifted functional)."""
    A, filt = make_hn_example(q, hn_type, a, seed, cfg=cfg, max_attempts=max_attempts)
    return refine_critical(q, graded_object(q, A, filt), a, filt, cfg), filt


def graded_object(
    q: Quiver,
    A: Representation,
    filt: Filtration,
    invariance_tol: float = 1e-8,
) -> Representation:
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
            if resid.size and np.linalg.norm(resid) >= invariance_tol:
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


def hom_space(
    q: Quiver, B: Representation, C: Representation, rank_tol: float = 1e-10
) -> HomSpace:
    """Solve the homogeneous intertwining system by SVD nullspace. The system
    is _intertwiner_matrix(q, B, C): row-major vec per edge, and one variable
    block per vertex in vertex order."""
    M, offs = _intertwiner_matrix(q, B, C)
    n_vars = M.shape[1]
    if n_vars == 0:
        return HomSpace(basis=[])
    if M.shape[0]:
        _, s, vh = np.linalg.svd(M)
        cutoff = rank_tol * max(1.0, s[0] if s.size else 0.0)
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


def is_isomorphic(
    q: Quiver,
    B: Representation,
    C: Representation,
    trials: int = 20,
    seed: int = 0,
    cond_bound: float = 1e8,
) -> IsoResult:
    """Randomized certificate test: sample elements of Hom(B, C) and accept
    when every vertex block is invertible. A positive answer carries an
    explicit witness; a negative answer is probabilistic."""
    if B.dims != C.dims:
        raise QuiverError("is_isomorphic requires equal dimension vectors")
    hom = hom_space(q, B, C)
    if hom.dimension == 0:
        return IsoResult(False, None, 0, 0)
    rng = np.random.default_rng(seed)
    for k in range(trials):
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
            if s[-1] <= 0 or s[0] / s[-1] > cond_bound:
                ok = False
                break
        if ok:
            return IsoResult(True, psi, k + 1, hom.dimension)
    return IsoResult(False, None, trials, hom.dimension)


@dataclass
class GradedLimitReport:
    type_match: bool
    isomorphic: bool
    hom_dimension: int
    limit_f: float


def verify_graded_limit(
    q: Quiver,
    A0: Representation,
    a: StabilityParam,
    filt: Filtration,
    cfg: FlowConfig = FlowConfig(),
    cluster_tol: float = 1e-4,
    seed: int = 0,
) -> GradedLimitReport:
    """Flow A0 to its limit, build the graded object of the construction
    filtration, and compare: the limit must have the construction type and be
    isomorphic (as a quiver representation) to the graded object."""
    A_inf, crit, _ = flow_to_critical(q, A0, a, cfg, cluster_tol)
    graded = graded_object(q, A0, filt)
    iso = is_isomorphic(q, A_inf, graded, seed=seed)
    return GradedLimitReport(
        type_match=crit.hn_type == filt.hn_type,
        isomorphic=iso.isomorphic,
        hom_dimension=iso.hom_dimension,
        limit_f=f_value(q, A_inf, a),
    )


class RankAmbiguityError(RuntimeError):
    pass


def tangent_decomposition(
    q: Quiver,
    A: Representation,
    a: StabilityParam,
    filt: Filtration,
    rank_tol: float = 1e-8,
    grad_tol: float = 1e-8,
) -> int:
    """Complex dimension of ker(rho_A^C)* intersected with the
    lower-triangular block subspace, at a critical A with critical filtration
    `filt`. Equals the combinatorial stratum codimension."""
    if grad_norm(q, A, a) >= 10 * grad_tol:
        raise ClassificationError("input is not numerically critical")
    # work in the filtration's orthonormal coordinates
    Af = A.with_mats(filt.coordinates(q, A.mats))
    # complex matrix of rho^C: one column per gauge basis element
    M, _ = _intertwiner_matrix(q, Af, Af)
    Ufull, s, _ = np.linalg.svd(M, full_matrices=True)
    cutoff = rank_tol * max(1.0, s[0] if s.size else 0.0)
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
