"""Manufactured Helmholtz impedance problems.

Each problem bundles the wavenumber k, the volume source f, the
impedance datum g (with g = du/dn - i k u on the boundary) and, when the
exact solution is known in closed form, an ``ExactBundle`` carrying
u, its gradient, the scaled flux phi = i grad(u) / k and div(phi).

All data callables are vectorized: points arrive as (n, d) arrays,
normals as (n, d), and values return as complex (n,) or (n, d) arrays.
Problem definitions are pure and reusable from any thread.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ExactBundle:
    """Closed-form exact solution with derived fields."""

    u: Callable
    grad_u: Callable
    phi: Callable
    div_phi: Callable
    laplacian_u: Optional[Callable] = None


@dataclass(frozen=True)
class WaveProblem:
    """Helmholtz problem -laplace(u) - k^2 u = f with du/dn - i k u = g."""

    name: str
    dim: int
    k: float
    f: Callable
    g: Callable
    exact: Optional[ExactBundle] = None
    # interior 1D coordinates where data or solution lose smoothness;
    # quadrature panels are split there
    breakpoints: tuple = ()
    domain: str = ""

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("wavenumber k must be positive")


def robin_data_from_exact(u, grad_u, k):
    """Impedance datum g(x, n) = grad u(x) . n(x) - i k u(x)."""

    def g(points, normals):
        gu = np.asarray(grad_u(points))
        return np.einsum("nd,nd->n", gu, np.asarray(normals)) - 1j * k * np.asarray(
            u(points)
        )

    return g


def _bundle_from_u(u, grad_u, laplacian_u, k):
    def phi(points):
        return 1j / k * np.asarray(grad_u(points))

    def div_phi(points):
        return 1j / k * np.asarray(laplacian_u(points))

    return ExactBundle(u=u, grad_u=grad_u, phi=phi, div_phi=div_phi,
                       laplacian_u=laplacian_u)


def plane_wave_problem(k, domain="unit-square"):
    """Plane wave e^{i(k1 x + k2 y)} with k1 = -k2 = k/sqrt(2).

    Satisfies the homogeneous Helmholtz equation (f = 0); the impedance
    datum is manufactured from the closed form, so any 2D domain works.
    """
    k = float(k)
    if k <= 0:
        raise ValueError("wavenumber k must be positive")
    k1 = k / np.sqrt(2.0)
    k2 = -k1
    kv = np.array([k1, k2])

    def u(points):
        pts = np.atleast_2d(points)
        return np.exp(1j * (pts @ kv))

    def grad_u(points):
        return 1j * np.outer(u(points), kv)

    def laplacian_u(points):
        return -(k1**2 + k2**2) * u(points)

    def f(points):
        return np.zeros(len(np.atleast_2d(points)), dtype=complex)

    g = robin_data_from_exact(u, grad_u, k)
    return WaveProblem(
        name="plane-wave-2d", dim=2, k=k, f=f, g=g,
        exact=_bundle_from_u(u, grad_u, laplacian_u, k), domain=domain,
    )


def piecewise_1d_problem(k):
    """Piecewise-smooth 1D problem on (-1, 1) driven by a sign-flip source.

    f = -1 on (-1, 0] and +1 on (0, 1); the solution

        u(x) = cos(kx) + 1/k^2          for x <= 0,
        u(x) = (1 + 2/k^2) cos(kx) - 1/k^2   for x > 0,

    is C^1 at zero while u'' jumps by the jump of f.  Meshes whose nodes
    avoid x = 0 keep the kink inside an element.
    """
    k = float(k)
    if k <= 0:
        raise ValueError("wavenumber k must be positive")
    amp = 1.0 + 2.0 / k**2

    def u(points):
        x = np.atleast_2d(points)[:, 0]
        return np.where(x <= 0, np.cos(k * x) + 1 / k**2,
                        amp * np.cos(k * x) - 1 / k**2).astype(complex)

    def grad_u(points):
        x = np.atleast_2d(points)[:, 0]
        du = np.where(x <= 0, -k * np.sin(k * x), -k * amp * np.sin(k * x))
        return du.astype(complex)[:, None]

    def laplacian_u(points):
        x = np.atleast_2d(points)[:, 0]
        return np.where(x <= 0, -k**2 * np.cos(k * x),
                        -k**2 * amp * np.cos(k * x)).astype(complex)

    def f(points):
        x = np.atleast_2d(points)[:, 0]
        return np.where(x <= 0, -1.0, 1.0).astype(complex)

    g = robin_data_from_exact(u, grad_u, k)
    return WaveProblem(
        name="piecewise-1d", dim=1, k=k, f=f, g=g,
        exact=_bundle_from_u(u, grad_u, laplacian_u, k),
        breakpoints=(0.0,), domain="(-1,1)",
    )


# registry addressable by name from the CLI
PROBLEMS = {
    "plane-wave-2d": plane_wave_problem,
    "piecewise-1d": piecewise_1d_problem,
}


def make_problem(name, k):
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}"
        ) from None
    return factory(k)


def list_problems():
    return sorted(PROBLEMS)
