"""Independent computations the benchmark checks quiverflow's outputs against.

Nothing here calls quiverflow: slopes, critical values, the moment-map
functional and its gradient, intertwiner residuals and the equivariant
Poincare series are recomputed from the quiver's edge list, the dimension
vector and the parameter values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def slope(a, v) -> Fraction:
    return Fraction(sum(Fraction(x) * d for x, d in zip(a, v))) / sum(v)


def hn_critical_values(a, v) -> list[float]:
    """f at the critical points of every slope-feasible HN type of v:
    sum over the parts of rank(part) * slope(part)^2. Types are ordered
    compositions of v into nonzero parts with strictly decreasing slopes."""
    out = set()

    def extend(rest, last, acc):
        if sum(rest) == 0:
            out.add(acc)
            return
        for w in itertools.product(*(range(x + 1) for x in rest)):
            if sum(w) == 0:
                continue
            mu = slope(a, w)
            if last is not None and mu >= last:
                continue
            extend(tuple(r - x for r, x in zip(rest, w)), mu, acc + sum(w) * mu * mu)

    extend(tuple(v), None, Fraction(0))
    return sorted(float(x) for x in out)


def type_critical_value(a, hn_type) -> float:
    return float(sum(sum(p) * slope(a, p) ** 2 for p in hn_type))


def moment_and_gradient(edges, dims, a, mats) -> tuple[float, float]:
    """f = sum_l ||H_l||^2 with H_l = i*Phi_l - a_l*id, and ||grad f||, where
    (grad f)_e = -2 (H_in A_e - A_e H_out)."""
    H = [-float(x) * np.eye(d, dtype=complex) for x, d in zip(a, dims)]
    for (s, t), m in zip(edges, mats):
        H[t] = H[t] - 0.5 * (m @ m.conj().T)
        H[s] = H[s] + 0.5 * (m.conj().T @ m)
    f = float(sum(np.vdot(h, h).real for h in H))
    g2 = 0.0
    for (s, t), m in zip(edges, mats):
        g = 2.0 * (H[t] @ m - m @ H[s])
        g2 += float(np.vdot(g, g).real)
    return f, float(np.sqrt(g2))


def witness_residual(edges, psi, mats_b, mats_c, cond_bound: float = 1e8) -> float | None:
    """Relative residual of psi_in B_e = C_e psi_out over every edge, or None
    when some vertex block of psi is not invertible."""
    for m in psi:
        if m.size:
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= 0 or s[0] / s[-1] > cond_bound:
                return None
    scale = max(1.0, max(float(np.linalg.norm(p)) for p in psi))
    worst = 0.0
    for (s, t), b, c in zip(edges, mats_b, mats_c):
        r = psi[t] @ b - c @ psi[s]
        size = scale * max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(c)))
        worst = max(worst, float(np.linalg.norm(r)) / size)
    return worst


def sigma(gbar_blocks, total_rank) -> float:
    """sigma(h) = tr h + tr h^-1 - 2 rank for h = gbar^-1 (gbar*)^-1, from the
    singular values s of gbar: the eigenvalues of h are 1/s^2."""
    acc = 0.0
    for b in gbar_blocks:
        s = np.linalg.svd(b, compute_uv=False)
        acc += float(np.sum(s**2) + np.sum(s**-2.0))
    return acc - 2.0 * total_rank


def euler_form(edges, x, y) -> int:
    return sum(p * q for p, q in zip(x, y)) - sum(x[s] * y[t] for s, t in edges)


def _bg_series(w, n: int) -> list[int]:
    """prod_l prod_{k=1..w_l} 1/(1 - s^k) up to s^n (s = t^2)."""
    c = [1] + [0] * n
    for d in w:
        for k in range(1, d + 1):
            for i in range(k, n + 1):
                c[i] += c[i - k]
    return c


def reineke_series(edges, v, a, max_degree: int) -> tuple[int, ...]:
    """Equivariant Poincare series of the semistable locus by Reineke's
    resolution of the HN recursion (Invent. Math. 152 (2003)):

        P_ss(v) = sum (-1)^(s-1) t^(-2 sum_{k<l} <d^k, d^l>) prod_k P(BG_{d^k})

    over ordered decompositions v = d^1 + ... + d^s into nonzero parts whose
    proper partial sums all have slope > slope(v). Intermediate terms may carry
    negative powers of t; they cancel in the sum. The sum is evaluated by
    dynamic programming over the partial sums, in powers of s = t^2, each
    term carrying the degree up to which it is exact."""
    v = tuple(v)
    mu = slope(a, v)
    nh = max_degree // 2
    # a chain's exponent is bounded below by -sum_l v_l^2 / 2 (in s), so this
    # working length keeps every term exact up to s^nh
    work = nh + sum(x * x for x in v)
    subs = [w for w in itertools.product(*(range(x + 1) for x in v)) if 0 < sum(w) < sum(v)]
    nodes = [w for w in subs if slope(a, w) > mu]
    nodes.sort(key=sum)
    zero = tuple(0 for _ in v)
    # R[e] = (lowest degree, coefficients, exact-up-to degree)
    R = {zero: (0, [1], None)}
    for e in nodes + [v]:
        acc: dict[int, int] = {}
        prec = None
        for e0, (lo, c, p) in R.items():
            if e0 == e or any(x > y for x, y in zip(e0, e)):
                continue
            w = tuple(y - x for x, y in zip(e0, e))
            shift = -euler_form(edges, e0, w)
            bg = _bg_series(w, work)
            # product exact up to min(p, lo + work), then shifted
            pe = (lo + work if p is None else min(p, lo + work)) + shift
            prec = pe if prec is None else min(prec, pe)
            for i, x in enumerate(c):
                if x == 0:
                    continue
                base = lo + i + shift
                for j, y in enumerate(bg):
                    if base + j > pe:
                        break
                    if y:
                        acc[base + j] = acc.get(base + j, 0) - x * y
        lo = min((k for k, x in acc.items() if x), default=0)
        hi = min(prec, max(acc, default=0))
        R[e] = (lo, [acc.get(k, 0) for k in range(lo, hi + 1)], prec)
    lo, c, prec = R[v]
    if prec < nh:
        raise ArithmeticError("working length too short for the requested degree")
    coeffs = [0] * (max_degree + 1)
    for i, x in enumerate(c):
        k = lo + i
        if k < 0:
            if x:
                raise ArithmeticError("negative powers of t did not cancel")
            continue
        if 2 * k <= max_degree:
            coeffs[2 * k] = -x
    return tuple(coeffs)
