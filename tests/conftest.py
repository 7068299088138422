from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from quiverflow import BUILTINS, GaugeElement, Quiver

# every run draws the same examples, and none is replayed from a local
# example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(params=list(BUILTINS))
def builtin(request):
    return BUILTINS[request.param]()


TRIANGLE = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3")))


def kronecker(m) -> Quiver:
    """The m-Kronecker quiver: m parallel edges 1 -> 2."""
    return Quiver(("1", "2"), (("1", "2"),) * m)


def trace_free(v, base) -> tuple[Fraction, ...]:
    """The parameter base shifted by its slope on v, so that it is
    trace-free on v."""
    mu = Fraction(sum(Fraction(x) * d for x, d in zip(base, v)), sum(v))
    return tuple(Fraction(x) - mu for x in base)


def random_unitary_gauge(dims, rng) -> GaugeElement:
    blocks = []
    for d in dims:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        qm, _ = np.linalg.qr(m) if d else (np.zeros((0, 0), dtype=complex), None)
        blocks.append(qm)
    return GaugeElement(blocks, unitary=True)


def random_quiver_with_infty(rng, max_vertices=3, max_edges=4, max_dim=3):
    """A random quiver with a designated rank-1 vertex 'inf' connected to the
    rest; loops and parallel edges allowed."""
    n = int(rng.integers(1, max_vertices + 1))
    names = [str(i) for i in range(1, n + 1)] + ["inf"]
    edges = []
    # keep inf connected both ways so the two-block types are nontrivial
    k = str(rng.integers(1, n + 1))
    edges.append((k, "inf"))
    edges.append(("inf", str(rng.integers(1, n + 1))))
    for _ in range(int(rng.integers(0, max_edges + 1))):
        s = names[int(rng.integers(0, len(names)))]
        t = names[int(rng.integers(0, len(names)))]
        edges.append((s, t))
    q = Quiver(tuple(names), tuple(edges))
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(n)) + (1,)
    return q, dims
