import numpy as np
import pytest

from helmfosls.problems import ExactBundle, WaveProblem, robin_data_from_exact


def polynomial_problem(dim, k=3.0):
    """Manufactured problem whose exact solution is a degree-2 polynomial.

    Any degree >= 2 discretization must reproduce it to roundoff, which
    makes it a sharp consistency probe for assembly and error norms.
    """
    def jet(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 0]
        if dim == 1:
            u, grad_u = x**2 + 2 * x + 3, (2 * x + 2)[:, None]
        else:
            y = pts[:, 1]
            u, grad_u = 1 + x + x**2 + x * y, np.column_stack([1 + 2 * x + y, x])
        lap = np.full(len(pts), 2.0)
        return u.astype(complex), grad_u.astype(complex), lap.astype(complex)

    def f(pts):
        u, _, lap = jet(pts)
        return -lap - k**2 * u

    return WaveProblem(
        name=f"poly-{dim}d", dim=dim, k=k, f=f, g=robin_data_from_exact(jet, k),
        exact=ExactBundle(jet, k),
    )


def zero_problem(dim, k=2.0):
    """Homogeneous data: f = 0, g = 0."""
    def f(pts):
        return np.zeros(len(np.atleast_2d(pts)), dtype=complex)

    def g(pts, normals):
        return np.zeros(len(np.atleast_2d(pts)), dtype=complex)

    return WaveProblem(name=f"zero-{dim}d", dim=dim, k=k, f=f, g=g)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
