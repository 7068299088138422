"""Reineke's resolution of the Harder-Narasimhan recursion (Invent. Math. 152
(2003)): an independent formula for the equivariant Poincare series of the
semistable locus, used as the oracle for `poincare_semistable`. It reads only
the edge list, the dimension vector and the parameter values; nothing here
calls quiverflow."""

import itertools
from fractions import Fraction


def _slope(a, v) -> Fraction:
    return Fraction(sum(Fraction(x) * d for x, d in zip(a, v))) / sum(v)


def _euler_form(edges, x, y) -> int:
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
    """Coefficients of P_ss(v) in t up to t^max_degree:

        P_ss(v) = sum (-1)^(s-1) t^(-2 sum_{k<l} <d^k, d^l>) prod_k P(BG_{d^k})

    over ordered decompositions v = d^1 + ... + d^s into nonzero parts whose
    proper partial sums all have slope > slope(v). Intermediate terms may carry
    negative powers of t; they cancel in the sum. The sum is evaluated by
    dynamic programming over the partial sums, in powers of s = t^2, each
    term carrying the degree up to which it is exact."""
    v = tuple(v)
    mu = _slope(a, v)
    nh = max_degree // 2
    # a chain's exponent is bounded below by -sum_l v_l^2 / 2 (in s), so this
    # working length keeps every term exact up to s^nh
    work = nh + sum(x * x for x in v)
    subs = [w for w in itertools.product(*(range(x + 1) for x in v)) if 0 < sum(w) < sum(v)]
    nodes = [w for w in subs if _slope(a, w) > mu]
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
            shift = -_euler_form(edges, e0, w)
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
