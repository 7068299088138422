"""Doubled quivers, the complex moment map, flow on its zero level, and the
level-set linearization residual at length-2 critical points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flow import FlowConfig, FlowResult, integrate_flow
from .quiver import Quiver, QuiverError, StabilityParam
from .repspace import Representation, rep_norm
from .strata import CriticalType, classify_critical


class LevelError(RuntimeError):
    pass


class FiltrationLengthError(RuntimeError):
    pass


def double(q: Quiver) -> Quiver:
    """The doubled quiver: one reversed edge per edge, appended after the
    originals in original edge order."""
    return Quiver(q.vertices, q.edges + tuple((t, s) for s, t in q.edges))


@dataclass(frozen=True)
class DoubledRep:
    """A representation of the doubled quiver with the (A, B) split recorded:
    A on the original edges, B on the reversed ones."""

    base: Quiver
    rep: Representation

    def __post_init__(self):
        if self.rep.quiver != double(self.base):
            raise QuiverError("representation must live on the doubled quiver")

    @classmethod
    def from_parts(
        cls,
        base: Quiver,
        dims: Sequence[int],
        a_mats: Sequence[np.ndarray],
        b_mats: Sequence[np.ndarray],
    ) -> "DoubledRep":
        qd = double(base)
        return cls(base, Representation(qd, dims, list(a_mats) + list(b_mats)))

    @property
    def a_mats(self) -> tuple[np.ndarray, ...]:
        return self.rep.mats[: len(self.base.edges)]

    @property
    def b_mats(self) -> tuple[np.ndarray, ...]:
        return self.rep.mats[len(self.base.edges) :]


def _phi_c_bilinear(
    q: Quiver,
    dims: Sequence[int],
    a_mats: Sequence[np.ndarray],
    b_mats: Sequence[np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Per-vertex bilinear form whose diagonal is the complex moment map:
    sum_{in(a)=l} A_a B_a - sum_{out(a)=l} B_a A_a."""
    blocks = [np.zeros((d, d), dtype=complex) for d in dims]
    for (out_i, in_i), ma, mb in zip(q.edge_indices(), a_mats, b_mats):
        blocks[in_i] += ma @ mb
        blocks[out_i] -= mb @ ma
    return tuple(blocks)


def moment_complex(dr: DoubledRep) -> tuple[np.ndarray, ...]:
    """Complex moment map Phi_C(A, B) = [A, B], expanded per vertex. The
    traces sum to zero."""
    return _phi_c_bilinear(dr.base, dr.rep.dims, dr.a_mats, dr.b_mats)


def phi_c_norm(dr: DoubledRep) -> float:
    return rep_norm(moment_complex(dr))


def flow_on_level(
    dr: DoubledRep,
    a: StabilityParam,
    cfg: FlowConfig = FlowConfig(),
    level_tol: float = 1e-9,
) -> FlowResult:
    """Gradient flow of the doubled quiver's real moment functional, started
    on the zero level of Phi_C. The flow preserves the level; ||Phi_C|| is
    recorded at every trajectory sample and checked against 10*level_tol."""
    if phi_c_norm(dr) >= level_tol:
        raise LevelError(
            f"initial ||Phi_C|| = {phi_c_norm(dr):.3g} is off the zero level (tol {level_tol:.3g})"
        )
    qd = double(dr.base)

    def extra(rep: Representation) -> float:
        return phi_c_norm(DoubledRep(dr.base, rep))

    res = integrate_flow(qd, dr.rep, a, cfg, extra=extra)
    worst = max(s.phi_c_norm for s in res.trajectory)
    if worst > 10 * level_tol:
        raise LevelError(
            f"||Phi_C|| reached {worst:.3g} along the trajectory, above 10*level_tol"
        )
    return res


def lt_perturbation(
    dr: DoubledRep,
    crit: CriticalType,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> list[np.ndarray]:
    """Random perturbation of the doubled representation supported on the
    strictly lower-triangular blocks of the critical filtration (maps from
    higher-slope summands to lower-slope ones), expressed in the original
    coordinates."""
    qd = double(dr.base)
    L = len(crit.hn_type)
    out = []
    for (out_i, in_i), m in zip(qd.edge_indices(), dr.rep.mats):
        d = np.zeros_like(m)
        for s in range(L):
            for t in range(s):
                # row cluster s strictly below column cluster t
                u_in = crit.bases[s][in_i]
                u_out = crit.bases[t][out_i]
                shape = (u_in.shape[1], u_out.shape[1])
                if shape[0] and shape[1]:
                    blk = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                    d += u_in @ blk @ u_out.conj().T
        out.append(d)
    return out


def level_linearization_residual(
    dr: DoubledRep,
    a: StabilityParam,
    delta: Sequence[np.ndarray],
    cluster_tol: float = 1e-4,
    grad_tol: float = 1e-8,
) -> float:
    """Norm of the quadratic remainder of Phi_C at a critical (A, B) with
    filtration length <= 2:

        || Phi_C(A+dA, B+dB) - Phi_C(A,B) - dPhi_C(dA,dB) ||.

    Since Phi_C is quadratic, the remainder equals the bilinear form on the
    perturbation alone, which is what is evaluated (exact, no cancellation).
    It vanishes for strictly lower-triangular perturbations when the length
    is 2."""
    qd = double(dr.base)
    crit = classify_critical(qd, dr.rep, a, cluster_tol, grad_tol)
    if len(crit.hn_type) > 2:
        raise FiltrationLengthError(
            f"critical filtration has length {len(crit.hn_type)} > 2"
        )
    n_a = len(dr.base.edges)
    da, db = list(delta[:n_a]), list(delta[n_a:])
    blocks = _phi_c_bilinear(dr.base, dr.rep.dims, da, db)
    return rep_norm(blocks)
