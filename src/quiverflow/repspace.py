"""Complex-matrix representations of a quiver, the unitary/complexified gauge
actions, the moment map, the norm-square functional f and its gradient.

Conventions: the real inner product on the representation space is
Re tr(X* Y) summed over edges. Moment values are stored as the per-vertex
Hermitian matrices H_l = i*Phi_l(A) - a_l*id, whose eigenvalues at critical
points are minus the slopes of the splitting pieces. The negative gradient
carries an overall factor 2 so that it is the exact Euclidean gradient of f
(validated by finite differences in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quiver import Quiver, QuiverError, StabilityParam

# a gauge block is singular above condition number _COND_BOUND, and a block
# claimed unitary must satisfy ||b* b - id|| <= _UNITARY_TOL
_COND_BOUND = 1e12
_UNITARY_TOL = 1e-8
# the central-difference step of finite_difference_check
_FD_STEP = 1e-5


def _noise(rng: np.random.Generator, shape: tuple[int, ...], scale: float) -> np.ndarray:
    """A complex Gaussian array of the given shape and scale: the real part
    drawn first, then the imaginary part."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class Representation:
    """One complex matrix per edge, of shape v_in(a) x v_out(a)."""

    quiver: Quiver
    dims: tuple[int, ...]
    mats: tuple[np.ndarray, ...]

    def __init__(self, quiver: Quiver, dims: Sequence[int], mats: Sequence[np.ndarray]):
        dims = quiver.check_dims(dims)
        if len(mats) != len(quiver.edges):
            raise QuiverError("one matrix per edge required")
        clean = []
        for (out_i, in_i), m in zip(quiver.edge_indices(), mats):
            m = np.asarray(m, dtype=complex)
            if m.shape != (dims[in_i], dims[out_i]):
                raise QuiverError(
                    f"matrix shape {m.shape} does not match ({dims[in_i]}, {dims[out_i]})"
                )
            if not np.all(np.isfinite(m)):
                raise QuiverError("matrix entries must be finite")
            clean.append(m)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", tuple(clean))

    @classmethod
    def zero(cls, quiver: Quiver, dims: Sequence[int]) -> "Representation":
        dims = quiver.check_dims(dims)
        mats = [
            np.zeros((dims[in_i], dims[out_i]), dtype=complex)
            for out_i, in_i in quiver.edge_indices()
        ]
        return cls(quiver, dims, mats)

    @classmethod
    def random(
        cls, quiver: Quiver, dims: Sequence[int], rng: np.random.Generator
    ) -> "Representation":
        dims = quiver.check_dims(dims)
        mats = [
            _noise(rng, (dims[in_i], dims[out_i]), 1.0) for out_i, in_i in quiver.edge_indices()
        ]
        return cls(quiver, dims, mats)

    def norm(self) -> float:
        return rep_norm(self.mats)

    def with_mats(self, mats: Sequence[np.ndarray]) -> "Representation":
        return Representation(self.quiver, self.dims, mats)


def rep_inner(x: Sequence[np.ndarray], y: Sequence[np.ndarray]) -> float:
    """Real inner product Re tr(X* Y), summed over edges."""
    return float(sum(np.real(np.vdot(a, b)) for a, b in zip(x, y)))


def rep_norm(mats: Sequence[np.ndarray]) -> float:
    """Frobenius norm, summed over the matrices."""
    return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in mats)))


@dataclass(frozen=True)
class GaugeElement:
    """Per-vertex invertible complex matrix; set unitary=True for elements of
    the compact group."""

    blocks: tuple[np.ndarray, ...]
    unitary: bool = False

    def __init__(self, blocks: Sequence[np.ndarray], unitary: bool = False):
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        for b in blocks:
            if b.shape[0] != b.shape[1]:
                raise QuiverError("gauge blocks must be square")
            if not np.all(np.isfinite(b)):
                raise QuiverError("gauge block entries must be finite")
            if b.size and np.linalg.cond(b) > _COND_BOUND:
                raise QuiverError("gauge block is numerically singular")
            if unitary and b.size:
                if np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0])) > _UNITARY_TOL:
                    raise QuiverError("block fails the unitarity tolerance")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "unitary", unitary)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "GaugeElement":
        return cls([np.eye(d, dtype=complex) for d in dims], unitary=True)


class BlockEmbedding:
    """Block layout of a representation space inside N x N matrices,
    N = sum(dims).

    Vertex l owns rows and columns offsets[l]:offsets[l+1], and the matrix of
    an edge s -> t sits at block (t, s), so every matrix built from edge
    matrices by products and sums is block-structured and the moment blocks
    sit on the diagonal. The E embedded edge matrices X_e are stored together
    as one array T of shape (N, E, N), T[:, e, :] = X_e. Both the column
    stack V = [X_1 ... X_E] and a row stack W of all edge rows are then
    reshapes of T that need no copy."""

    def __init__(self, q: Quiver, dims: Sequence[int]):
        offsets = np.concatenate([[0], np.cumsum(dims, dtype=int)])
        self.dims = tuple(dims)
        self.vertex_slices = [slice(int(lo), int(hi)) for lo, hi in zip(offsets, offsets[1:])]
        self.edge_slices = [
            (self.vertex_slices[in_i], self.vertex_slices[out_i])
            for out_i, in_i in q.edge_indices()
        ]
        n = int(offsets[-1])
        self.shape = (n, len(self.edge_slices), n)

    def embed(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        T = np.zeros(self.shape, dtype=complex)
        for e, ((rows, cols), m) in enumerate(zip(self.edge_slices, mats)):
            T[rows, e, cols] = m
        return T

    def edge_blocks(self, T: np.ndarray) -> list[np.ndarray]:
        """Per-edge matrices of an embedded array, given in any shape that
        reshapes to (N, E, N)."""
        T = np.reshape(T, self.shape)
        return [T[rows, e, cols].copy() for e, (rows, cols) in enumerate(self.edge_slices)]

    def vertex_blocks(self, M: np.ndarray) -> list[np.ndarray]:
        """Diagonal blocks of an N x N matrix, one per vertex."""
        return [M[s, s].copy() for s in self.vertex_slices]

    def shift(self, a: StabilityParam) -> np.ndarray:
        """diag(a_l id_{v_l}) as an N x N matrix."""
        return np.diag(np.repeat([float(x) for x in a], self.dims))


def moment_kernel(
    T: np.ndarray, two_shift, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """2H and -grad f for the embedded edges T (see BlockEmbedding), of shape
    (N, E, N) or a stack (..., N, E, N) of members sharing one layout:

        2H = W* W - V V* - 2 shift,  -grad f = 2H X - X 2H.

    The caller passes 2 shift. Doubling is exact in floating point, so these
    are bit for bit 2 * ((W* W - V V*) / 2 - shift) and 2 (H X - X H), and
    f = ||H||^2 is f_of(2H). The work is one conjugate copy of T and four
    matrix products, each stacked over the members.

    Off-block entries of X and H are products of exact zeros, so they stay
    exactly zero: H is block-diagonal with the H_l on its diagonal, and
    -grad f carries the per-edge gradient at each edge's block. Returns 2H,
    of shape (..., N, N), and -grad f in the shape of T. Given `out`, a view
    that reshapes to T's shape without a copy, -grad f is written into it."""
    *lead, n, e, _ = T.shape
    V = T.reshape(*lead, n, e * n)
    W = T.reshape(*lead, n * e, n)
    Tc = T.conj()
    H2 = Tc.reshape(*lead, n * e, n).swapaxes(-1, -2) @ W
    H2 -= V @ Tc.reshape(*lead, n, e * n).swapaxes(-1, -2)
    H2 -= two_shift
    K = np.matmul(H2, V, out=None if out is None else out.reshape(V.shape))
    K -= (W @ H2).reshape(V.shape)
    return H2, K.reshape(T.shape)


def f_of(two_h: np.ndarray) -> float:
    """f = ||H||^2 from 2H of one member; the factor 1/4 is exact."""
    return 0.25 * float(np.vdot(two_h, two_h).real)


def _evaluate(q: Quiver, dims: Sequence[int], mats, shift_by: StabilityParam | None):
    emb = BlockEmbedding(q, dims)
    two_shift = 0.0 if shift_by is None else 2.0 * emb.shift(shift_by)
    return emb, moment_kernel(emb.embed(mats), two_shift)


def moment(q: Quiver, A: Representation) -> tuple[np.ndarray, ...]:
    """Per-vertex skew-Hermitian moment map blocks

        Phi_l = (i/2) ( sum_{in(a)=l} A_a A_a* - sum_{out(a)=l} A_a* A_a ).
    """
    emb, (H2, _) = _evaluate(q, A.dims, A.mats, None)
    return tuple(-1j * (0.5 * b) for b in emb.vertex_blocks(H2))


def shifted_moment(q: Quiver, A: Representation, a: StabilityParam) -> tuple[np.ndarray, ...]:
    """Per-vertex Hermitian blocks H_l = i*Phi_l(A) - a_l*id."""
    emb, (H2, _) = _evaluate(q, A.dims, A.mats, a)
    return tuple(0.5 * b for b in emb.vertex_blocks(H2))


def f_value(q: Quiver, A: Representation, a: StabilityParam) -> float:
    """f(A) = sum_l ||H_l||_F^2; zero exactly on the shifted level set."""
    return f_of(_evaluate(q, A.dims, A.mats, a)[1][0])


def neg_gradient(q: Quiver, A: Representation, a: StabilityParam) -> list[np.ndarray]:
    """Negative gradient of f at A, per edge:

        (-grad f)_a = 2 (H_{in(a)} A_a - A_a H_{out(a)}),

    which vanishes exactly at critical points."""
    emb, (_, K) = _evaluate(q, A.dims, A.mats, a)
    return emb.edge_blocks(K)


def grad_norm(q: Quiver, A: Representation, a: StabilityParam) -> float:
    return float(np.linalg.norm(_evaluate(q, A.dims, A.mats, a)[1][1]))


def _conjugate(
    q: Quiver, left: Sequence[np.ndarray], mats: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """left_in(a) m_a right_out(a) per edge, from per-vertex blocks."""
    return [left[in_i] @ m @ right[out_i] for (out_i, in_i), m in zip(q.edge_indices(), mats)]


def _bracket(
    q: Quiver, dims: Sequence[int], xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Per-vertex blocks sum_{in(a)=l} x_a y_a - sum_{out(a)=l} y_a x_a."""
    blocks = [np.zeros((d, d), dtype=complex) for d in dims]
    for (out_i, in_i), x, y in zip(q.edge_indices(), xs, ys):
        blocks[in_i] += x @ y
        blocks[out_i] -= y @ x
    return tuple(blocks)


def act(g: GaugeElement, A: Representation) -> Representation:
    """Gauge action A_a -> g_in(a) A_a g_out(a)^{-1} (for unitary g the
    inverse equals the adjoint, recovering conjugation)."""
    inv = [np.linalg.inv(b) for b in g.blocks]
    return A.with_mats(_conjugate(A.quiver, g.blocks, A.mats, inv))


def rho(A: Representation, u: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Infinitesimal action of the per-vertex blocks u_l of a gauge Lie
    algebra element: rho(A, u)_a = u_in(a) A_a - A_a u_out(a)."""
    out = []
    for (out_i, in_i), m in zip(A.quiver.edge_indices(), A.mats):
        out.append(u[in_i] @ m - m @ u[out_i])
    return out


def finite_difference_check(
    q: Quiver,
    dims: Sequence[int],
    a: StabilityParam,
    rng: np.random.Generator,
    trials: int,
) -> float:
    """Max relative error between the analytic gradient pairing and a central
    finite difference of f, over `trials` random points and `trials` random
    unit directions at each; the error is relative to max(1, ||grad f||)."""
    worst = 0.0
    for _ in range(trials):
        A = Representation.random(q, dims, rng)
        g = neg_gradient(q, A, a)
        gn = rep_norm(g)
        for _ in range(trials):
            d = Representation.random(q, dims, rng).mats
            dn = rep_norm(d)
            d = [m / dn for m in d]
            plus = A.with_mats([m + _FD_STEP * x for m, x in zip(A.mats, d)])
            minus = A.with_mats([m - _FD_STEP * x for m, x in zip(A.mats, d)])
            fd = (f_value(q, plus, a) - f_value(q, minus, a)) / (2 * _FD_STEP)
            analytic = -rep_inner(g, d)
            err = abs(fd - analytic) / max(1.0, gn)
            worst = max(worst, err)
    return worst


def rho_adjoint(A: Representation, tangent: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Metric adjoint of rho(A, .), as per-vertex blocks:
    Re<rho(A,u), X> = Re<u, rho_adjoint(A,X)>."""
    return _bracket(A.quiver, A.dims, tangent, [m.conj().T for m in A.mats])
