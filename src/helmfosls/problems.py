"""Manufactured Helmholtz impedance problems.

Each problem bundles the wavenumber k, the volume source f, the
impedance datum g (with g = du/dn - i k u on the boundary) and, when the
exact solution is known in closed form, an ``ExactBundle``.  A problem
writes its closed form once, as a jet ``(points, order=2) -> (u, grad u,
laplacian u)[:order + 1]`` that costs one ``exp`` or one ``cos``/``sin``
pair per point set and forms only the parts up to ``order``: order 0 is
(u,), order 1 is (u, grad u).  ``ExactBundle`` reads u and the scaled
flux phi = i grad(u) / k, the targets of interpolation and projection,
off that jet at the lowest order that holds them, and
``ExactBundle.fields`` returns the four fields that the error pass
samples, (phi, div phi = i laplacian(u) / k, u, grad u), from one jet
call.

All data callables are vectorized: points arrive as (n, d) arrays,
normals as (n, d), and values return as (n,) or (n, d) arrays: complex
for f and g, real or complex for a jet (the piecewise-1d solution is
real), which its consumers cast.
Problem definitions are pure and reusable from any thread.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _wavenumber(k):
    """``k`` as a float, rejected unless 0 < k < inf."""
    k = float(k)
    if not 0 < k < np.inf:
        raise ValueError(f"wavenumber k must be positive and finite; got {k}")
    return k


@dataclass(frozen=True)
class ExactBundle:
    """Closed-form exact solution: the jet ``(points, order=2) -> (u (n,),
    grad u (n, d), laplacian u (n,))[:order + 1]`` and the wavenumber k of
    phi = i grad u / k.  Each field asks the jet for the lowest order
    that holds it."""

    jet: Callable
    k: float

    def u(self, points):
        return self.jet(points, 0)[0]

    def phi(self, points):
        return 1j / self.k * self.jet(points, 1)[1]

    def fields(self, points):
        """(phi, div phi, u, grad u) at the points from one jet call."""
        u, gu, lap = self.jet(points, 2)
        return 1j / self.k * gu, 1j / self.k * lap, u, gu


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

    def __post_init__(self):
        _wavenumber(self.k)


def robin_data_from_exact(jet, k):
    """Impedance datum g(x, n) = grad u(x) . n(x) - i k u(x) of the jet
    ``(points, order) -> (u, grad u, ...)``, from one jet call of order 1."""

    def g(points, normals):
        u, gu = jet(points, 1)[:2]
        return np.einsum("nd,nd->n", gu, np.asarray(normals)) - 1j * k * u

    return g


def plane_wave_problem(k):
    """Plane wave e^{i(k1 x + k2 y)} with k1 = -k2 = k/sqrt(2).

    Satisfies the homogeneous Helmholtz equation (f = 0); the impedance
    datum is manufactured from the closed form, so any 2D domain works.
    """
    k = _wavenumber(k)
    k1 = k / np.sqrt(2.0)
    k2 = -k1
    kv = np.array([k1, k2])

    def jet(points, order=2):
        # e^{i k.x} written as cos and sin into the views of one array
        t = np.atleast_2d(points) @ kv
        u = np.empty(len(t), dtype=complex)
        np.cos(t, out=u.real)
        np.sin(t, out=u.imag)
        if order == 0:
            return (u,)
        gu = u[:, None] * (1j * kv)
        return (u, gu) if order == 1 else (u, gu, -(k1**2 + k2**2) * u)

    def f(points):
        return np.zeros(len(np.atleast_2d(points)), dtype=complex)

    return WaveProblem(
        name="plane-wave-2d", dim=2, k=k, f=f, g=robin_data_from_exact(jet, k),
        exact=ExactBundle(jet, k),
    )


def piecewise_1d_problem(k):
    """Piecewise-smooth 1D problem on (-1, 1) driven by a sign-flip source.

    f = -1 on (-1, 0] and +1 on (0, 1); the solution

        u(x) = cos(kx) + 1/k^2          for x <= 0,
        u(x) = (1 + 2/k^2) cos(kx) - 1/k^2   for x > 0,

    is C^1 at zero while u'' jumps by the jump of f.  Meshes whose nodes
    avoid x = 0 keep the kink inside an element.
    """
    k = _wavenumber(k)
    amp = 1.0 + 2.0 / k**2

    def jet(points, order=2):
        x = np.atleast_2d(points)[:, 0]
        c = np.cos(k * x)
        # the branches' amplitude and offset: u = a c + offset
        a, offset = np.where(x <= 0, [[1.0], [1 / k**2]], [[amp], [-1 / k**2]])
        u = a * c + offset
        if order == 0:
            return (u,)
        gu = (-k * a * np.sin(k * x))[:, None]
        return (u, gu) if order == 1 else (u, gu, -k**2 * a * c)

    def f(points):
        x = np.atleast_2d(points)[:, 0]
        return np.where(x <= 0, -1.0, 1.0).astype(complex)

    return WaveProblem(
        name="piecewise-1d", dim=1, k=k, f=f, g=robin_data_from_exact(jet, k),
        exact=ExactBundle(jet, k), breakpoints=(0.0,),
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
