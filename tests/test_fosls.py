import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
import sympy

import helmfosls.fosls as fosls
from conftest import polynomial_problem, zero_problem
from helmfosls.analysis import compute_errors
from helmfosls.cli import solve_case
from helmfosls.fosls import (
    _data,
    _scatter,
    assemble_classical_fem,
    assemble_fosls,
    galerkin_residual,
    split_solution,
)
from helmfosls.mesh import (
    LOCAL_FACETS,
    REFERENCE_VERTICES,
    Mesh,
    barycentric,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
)
from helmfosls.problems import piecewise_1d_problem, plane_wave_problem
from helmfosls.solver import solve_hpd
from helmfosls.polyquad import simplex_quadrature
from helmfosls.spaces import (
    KIND_H1,
    build_h1_space,
    build_hdiv_space,
    scalar_eval,
    vector_eval,
)
from oracles import difference, evaluate_b


def random_complex(rng, n):
    """n complex numbers with standard normal real and imaginary parts."""
    re, im = rng.standard_normal((2, n))
    return re + 1j * im


def fosls_spaces(mesh, p):
    w = build_h1_space(mesh, p)
    return build_hdiv_space(mesh, p), w


def small_systems():
    out = []
    mesh1 = build_interval_mesh(-1, 1, 5)
    v, w = fosls_spaces(mesh1, 2)
    out.append(assemble_fosls(v, w, piecewise_1d_problem(10.0)))
    mesh2 = build_square_mesh(2)
    v, w = fosls_spaces(mesh2, 1)
    out.append(assemble_fosls(v, w, plane_wave_problem(5.0)))
    v, w = fosls_spaces(mesh2, 2)
    out.append(assemble_fosls(v, w, plane_wave_problem(8.0)))
    return out


class TestFoslsMatrixStructure:
    @pytest.mark.parametrize("system", small_systems(),
                             ids=["1d-p2", "2d-p1", "2d-p2"])
    def test_hermitian(self, system):
        A = system.matrix.toarray()
        dev = np.max(np.abs(A - A.conj().T))
        assert dev <= 1e-12 * np.max(np.abs(A))

    @pytest.mark.parametrize("system", small_systems(),
                             ids=["1d-p2", "2d-p1", "2d-p2"])
    def test_positive_definite_small_instances(self, system):
        assert system.n_total <= 400
        eigs = np.linalg.eigvalsh(system.matrix.toarray())
        assert eigs.min() > 0

    def test_energy_nonnegative_on_random_pairs(self, rng):
        system = small_systems()[1]
        A = system.matrix
        for _ in range(100):
            x = random_complex(rng, system.n_total)
            e = np.vdot(x, A @ x)
            assert abs(e.imag) <= 1e-12 * abs(e)
            assert e.real >= 0

    def test_zero_data_gives_zero_rhs(self):
        mesh = build_interval_mesh(-1, 1, 4)
        v, w = fosls_spaces(mesh, 2)
        system = assemble_fosls(v, w, zero_problem(1))
        assert np.all(system.rhs == 0)
        mesh2 = build_square_mesh(2)
        v2, w2 = fosls_spaces(mesh2, 1)
        assert np.all(assemble_fosls(v2, w2, zero_problem(2)).rhs == 0)

    def test_mesh_mismatch_rejected(self):
        w = build_h1_space(build_interval_mesh(0, 1, 2), 1)
        v = build_h1_space(build_interval_mesh(0, 1, 3), 1)
        with pytest.raises(ValueError, match="mesh"):
            assemble_fosls(v, w, piecewise_1d_problem(1.0))

    def test_flux_space_kind_rejected(self):
        # the flux space is BDM_p in 2D; a scalar space there is an error,
        # not a (q, 1) "flux"
        w = build_h1_space(build_square_mesh(2), 1)
        coeffs = np.zeros(w.n_dofs)
        ref = simplex_quadrature(2, 2).points
        with pytest.raises(ValueError, match="flux space"):
            assemble_fosls(w, w, plane_wave_problem(2.0))
        for with_derivative in (False, True):
            with pytest.raises(ValueError, match="flux space"):
                vector_eval(w, coeffs, 0, ref, with_derivative=with_derivative)

    def test_element_order_does_not_matter(self, rng):
        # vertex and facet dofs are numbered canonically, so at p = 1 the
        # assembled entries must agree up to rounding
        mesh = build_square_mesh(2)
        perm = rng.permutation(len(mesh.elements))
        mesh_perm = Mesh(2, mesh.vertices.copy(), mesh.elements[perm].copy(), 1.0)
        prob = plane_wave_problem(5.0)
        s1 = assemble_fosls(*fosls_spaces(mesh, 1), prob)
        s2 = assemble_fosls(*fosls_spaces(mesh_perm, 1), prob)
        scale = np.max(np.abs(s1.matrix.toarray()))
        assert np.max(np.abs((s1.matrix - s2.matrix).toarray())) <= 1e-12 * scale
        assert np.max(np.abs(s1.rhs - s2.rhs)) <= 1e-12 * np.max(
            np.abs(s1.rhs)
        )


class TestLocalMatrixOracle:
    """Single element [0, 1], p = 1, k = 1 against symbolic integration."""

    def oracle(self, k_val=1):
        x, k = sympy.symbols("x k", positive=True)
        hats = [1 - x, x]
        n_at = {0: -1, 1: 1}

        def vol(expr):
            return sympy.integrate(expr, (x, 0, 1))

        def bnd(expr):
            return expr.subs(x, 0) + expr.subs(x, 1)

        A = sympy.zeros(4, 4)
        for i, psi in enumerate(hats):        # test flux
            dpsi = sympy.diff(psi, x)
            for j, phi in enumerate(hats):    # trial flux
                dphi = sympy.diff(phi, x)
                A[i, j] = (
                    k**2 * vol(phi * psi) + vol(dphi * dpsi) + k * bnd(phi * psi)
                )
            for j, u in enumerate(hats):      # trial potential
                du = sympy.diff(u, x)
                term = -sympy.I * k * vol(du * psi) + sympy.I * k * vol(u * dpsi)
                term += k * (
                    u.subs(x, 1) * psi.subs(x, 1) * n_at[1]
                    + u.subs(x, 0) * psi.subs(x, 0) * n_at[0]
                )
                A[i, 2 + j] = term
        for i, v in enumerate(hats):          # test potential
            dv = sympy.diff(v, x)
            for j, phi in enumerate(hats):
                dphi = sympy.diff(phi, x)
                term = sympy.I * k * vol(phi * dv) - sympy.I * k * vol(dphi * v)
                term += k * (
                    phi.subs(x, 1) * v.subs(x, 1) * n_at[1]
                    + phi.subs(x, 0) * v.subs(x, 0) * n_at[0]
                )
                A[2 + i, j] = term
            for j, u in enumerate(hats):
                A[2 + i, 2 + j] = (
                    vol(sympy.diff(u, x) * dv) + k**2 * vol(u * v)
                    + k * bnd(u * v)
                )
        return np.array(
            [[complex(A[i, j].subs(k, k_val)) for j in range(4)] for i in range(4)]
        )

    def test_full_matrix_matches(self):
        mesh = build_interval_mesh(0, 1, 1)
        v, w = fosls_spaces(mesh, 1)
        system = assemble_fosls(v, w, zero_problem(1, k=1.0))
        got = system.matrix.toarray()
        expected = self.oracle(1)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_potential_diagonal_entry(self):
        # int (N0')^2 + k^2 int N0^2 + k N0(0)^2 = 1 + 1/3 + 1 at k = 1
        mesh = build_interval_mesh(0, 1, 1)
        v, w = fosls_spaces(mesh, 1)
        system = assemble_fosls(v, w, zero_problem(1, k=1.0))
        entry = system.matrix.toarray()[2, 2]
        assert entry == pytest.approx(7 / 3, abs=1e-13)

    def test_classical_fem_diagonal(self):
        # stiffness 1 - mass k^2/3 - ik boundary at the endpoint dof
        mesh = build_interval_mesh(0, 1, 1)
        w = build_h1_space(mesh, 1)
        system = assemble_classical_fem(w, zero_problem(1, k=1.0))
        entry = system.matrix.toarray()[0, 0]
        assert entry == pytest.approx(1 - 1 / 3 - 1j, abs=1e-13)


class TestClassicalFem:
    def test_zero_data_gives_zero_rhs(self):
        mesh = build_square_mesh(2)
        w = build_h1_space(mesh, 2)
        system = assemble_classical_fem(w, zero_problem(2))
        assert np.all(system.rhs == 0)

    def test_complex_symmetric_not_hermitian(self):
        mesh = build_square_mesh(2)
        w = build_h1_space(mesh, 1)
        system = assemble_classical_fem(w, plane_wave_problem(4.0))
        A = system.matrix.toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        assert np.max(np.abs(A - A.conj().T)) > 1e-6 * np.max(np.abs(A))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("method", ["fosls", "fem"])
@pytest.mark.parametrize("dim", [1, 2])
def test_polynomial_reproduction(dim, method, p):
    """A degree-2 exact solution is reproduced to rounding by both methods,
    through both load paths (volume f and boundary g) in 1D and 2D."""
    problem = polynomial_problem(dim)
    mesh = build_interval_mesh(-1, 1, 5) if dim == 1 else build_square_mesh(3)
    system, report, _ = solve_case(problem, method, mesh, p)
    err = dataclasses.asdict(compute_errors(split_solution(system, report.solution), problem))
    checked = {name: value for name, value in err.items()
               if name not in ("u_l2", "quad_drift") and np.isfinite(value)}
    assert len(checked) == (7 if method == "fosls" else 3)
    assert max(checked.values()) <= 1e-12, checked
    assert err["l2_rel"] * err["u_l2"] <= 1e-12


class TestGalerkinOrthogonality:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_fosls_residual_small(self, p):
        mesh = build_interval_mesh(-1, 1, 15)
        v, w = fosls_spaces(mesh, p)
        system = assemble_fosls(v, w, piecewise_1d_problem(10.0))
        x = solve_hpd(system).solution
        assert galerkin_residual(system, x) <= 1e-8

    def test_2d_residual_small(self):
        mesh = build_square_mesh(4)
        v, w = fosls_spaces(mesh, 2)
        system = assemble_fosls(v, w, plane_wave_problem(8.0))
        x = solve_hpd(system).solution
        assert galerkin_residual(system, x) <= 1e-8


class TestEvaluateB:
    def test_exact_pair_satisfies_variational_identity(self, rng):
        """b(exact, y) equals the assembled functional applied to y."""
        prob = piecewise_1d_problem(4.0)
        mesh = build_interval_mesh(-1, 1, 7)
        v, w = fosls_spaces(mesh, 3)
        system = assemble_fosls(v, w, prob)
        for _ in range(5):
            y = random_complex(rng, system.n_total)
            pair = split_solution(system, y)
            got = evaluate_b(prob.exact, pair, w, prob.k,
                             breakpoints=prob.breakpoints)
            expected = np.vdot(y, system.rhs)
            scale = np.linalg.norm(system.rhs) * np.linalg.norm(y)
            assert abs(got - expected) <= 1e-13 * scale

    @pytest.mark.parametrize("make_mesh", [lambda: build_square_mesh(4),
                                           lambda: build_polygonal_disk_mesh(8, 1)],
                             ids=["square", "disk"])
    def test_exact_pair_identity_in_2d(self, rng, make_mesh):
        """b(exact, y) equals y^H F to rounding on a plane wave at k = 20,
        p = 2: assembly's loads and b integrate the volume and the
        boundary facets on the same rules, and b builds no plan of its own."""
        prob, mesh = plane_wave_problem(20.0), make_mesh()
        v, w = fosls_spaces(mesh, 2)
        system = assemble_fosls(v, w, prob)
        plans = len(fosls._PLANS[mesh])
        for _ in range(5):
            y = random_complex(rng, system.n_total)
            got = evaluate_b(prob.exact, split_solution(system, y), w, prob.k)
            scale = np.linalg.norm(system.rhs) * np.linalg.norm(y)
            assert abs(got - np.vdot(y, system.rhs)) <= 1e-13 * scale
        assert len(fosls._PLANS[mesh]) == plans == 1

    def test_zero_argument(self):
        prob = piecewise_1d_problem(2.0)
        mesh = build_interval_mesh(-1, 1, 4)
        v, w = fosls_spaces(mesh, 1)
        system = assemble_fosls(v, w, prob)
        zero = split_solution(system, np.zeros(system.n_total, dtype=complex))
        assert evaluate_b(zero, prob.exact, w, prob.k) == 0

    def test_hermitian_symmetry(self, rng):
        prob = plane_wave_problem(3.0)
        mesh = build_square_mesh(2)
        v, w = fosls_spaces(mesh, 1)
        system = assemble_fosls(v, w, prob)
        for _ in range(5):
            a = split_solution(system, random_complex(rng, system.n_total))
            b_ = split_solution(system, random_complex(rng, system.n_total))
            ab = evaluate_b(a, b_, w, prob.k)
            ba = evaluate_b(b_, a, w, prob.k)
            assert ab == pytest.approx(np.conj(ba), rel=1e-10)

    def test_matches_quadratic_form_of_matrix(self, rng):
        prob = plane_wave_problem(3.0)
        mesh = build_square_mesh(2)
        v, w = fosls_spaces(mesh, 2)
        system = assemble_fosls(v, w, prob)
        x = random_complex(rng, system.n_total)
        pair = split_solution(system, x)
        direct = evaluate_b(pair, pair, w, prob.k)
        quad = np.vdot(x, system.matrix @ x)
        assert direct == pytest.approx(quad, rel=1e-9)

    def test_difference_sampler(self, rng):
        prob = piecewise_1d_problem(3.0)
        mesh = build_interval_mesh(-1, 1, 9)
        v, w = fosls_spaces(mesh, 2)
        system = assemble_fosls(v, w, prob)
        sol = split_solution(system, solve_hpd(system).solution)
        err = difference(prob.exact, sol)
        energy = evaluate_b(err, err, w, prob.k, breakpoints=prob.breakpoints)
        assert energy.real > 0
        assert abs(energy.imag) <= 1e-10 * energy.real


def test_scatter_matches_per_block_coo_arrays(rng):
    """Signs are applied and duplicates summed exactly as from concatenated
    per-block arrays."""
    n, n_elems, m = 7, 30, 3
    dofs = rng.integers(0, n, (n_elems, m))
    signs = rng.choice([-1.0, 1.0], (n_elems, m))
    blocks = rng.standard_normal((n_elems, m, m)) + 0j
    blocks[1::2] += 1j * rng.standard_normal((n_elems // 2, m, m))
    loads = rng.standard_normal((n_elems, m)) + 1j * rng.standard_normal((n_elems, m))
    signed = [np.outer(s, s) * b for s, b in zip(signs, blocks)]
    want = sp.coo_matrix(
        (np.concatenate([b.ravel() for b in signed]),
         (np.concatenate([np.repeat(d, m) for d in dofs]),
          np.concatenate([np.tile(d, m) for d in dofs]))),
        shape=(n, n),
    ).tocsr()
    want_rhs = np.zeros(n, dtype=complex)
    for d, s, load in zip(dofs, signs, loads):
        for i, v in zip(d, s * load):
            want_rhs[i] += v
    got, got_rhs = _scatter(dofs, signs, blocks, loads, n)
    assert got.indices.dtype == np.int32
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(got_rhs, want_rhs)


# the four fields the two evaluators return, by name: (evaluator, whether
# the field is the derivative half of a with_derivative=True call)
FIELDS = {
    "scalar_eval": (scalar_eval, False),
    "scalar_grad_eval": (scalar_eval, True),
    "vector_eval": (vector_eval, False),
    "vector_div_eval": (vector_eval, True),
}


def _evaluate(field, space, coeffs, elem, ref):
    evaluate, derivative = FIELDS[field]
    if derivative:
        return evaluate(space, coeffs, elem, ref, with_derivative=True)[1]
    return evaluate(space, coeffs, elem, ref)


def _eval_cases():
    h1_1d = lambda: build_h1_space(build_interval_mesh(-1, 1, 5), 3)  # noqa: E731
    h1_2d = lambda: build_h1_space(build_square_mesh(2), 3)  # noqa: E731
    bdm = lambda: build_hdiv_space(build_square_mesh(2), 2)  # noqa: E731
    fields = list(FIELDS)
    cases = [("1d-" + f, h1_1d, f) for f in fields]
    cases += [("2d-h1-" + f, h1_2d, f) for f in fields[:2]]
    cases += [("2d-bdm-" + f, bdm, f) for f in fields[2:]]
    return [pytest.param(make, f, id=name) for name, make, f in cases]


@pytest.mark.parametrize("make_space,field", _eval_cases())
def test_evaluators_batch_over_element_arrays(make_space, field, rng):
    """An element array gives the per-element results, stacked."""
    space = make_space()
    coeffs = random_complex(rng, space.n_dofs)
    ref = simplex_quadrature(space.mesh.dim, 5).points
    elems = np.array([3, 0, 4, 1])
    got = _evaluate(field, space, coeffs, elems, ref)
    want = np.stack([_evaluate(field, space, coeffs, int(e), ref) for e in elems])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def _assembled(method, mesh, p, problem):
    w = build_h1_space(mesh, p)
    if method == "fem":
        return assemble_classical_fem(w, problem)
    return assemble_fosls(build_hdiv_space(mesh, p), w, problem)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("method", ["fosls", "fem"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_element_chunks_match_default_chunking(dim, p, method, monkeypatch):
    """Chunk seams and the 1D breakpoint panels leave the system unchanged."""
    if dim == 1:  # 7 elements: the kink x = 0 cuts the middle one
        problem, mesh = piecewise_1d_problem(10.0), build_interval_mesh(-1, 1, 7)
    else:
        problem, mesh = plane_wave_problem(8.0), build_square_mesh(3)
    default = _assembled(method, mesh, p, problem)
    monkeypatch.setattr(fosls, "CHUNK_POINTS", 1)
    single = _assembled(method, mesh, p, problem)
    assert _rel(single.matrix.toarray(), default.matrix.toarray()) <= 1e-13
    assert _rel(single.rhs, default.rhs) <= 1e-13


# -- oracle: quadrature on basis tables pushed to every element ------------


def _pushed_tables(space, elems, ref):
    """Physical values and first derivatives of the basis on every element,
    (E, components, q, n): H1 (u, grad u), H(div) (phi, div phi)."""
    mesh = space.mesh
    vals, ders = space.basis.eval_with_grad(ref)
    det = mesh.det_A[elems][:, None, None, None]
    if space.kind == KIND_H1:
        u = np.broadcast_to(vals, (len(elems), 1) + vals.shape)
        return u, np.einsum("eba,qnb->eaqn", mesh.inv_A[elems], ders)
    return np.einsum("eab,qnb->eaqn", mesh.maps_A[elems], vals) / det, ders[None, None] / det


CONTRACT_SPACES = {
    "1d-S3": (lambda: build_h1_space(build_interval_mesh(-1, 1, 5), 3), list(FIELDS)),
    "2d-S3": (lambda: build_h1_space(build_square_mesh(2), 3), list(FIELDS)[:2]),
    "2d-BDM2": (lambda: build_hdiv_space(build_square_mesh(2), 2), list(FIELDS)[2:]),
}


@pytest.mark.parametrize("elem", [2, np.array([3, 0, 4, 1])], ids=["int", "array"])
@pytest.mark.parametrize("make_space,field", [
    pytest.param(make, f, id=f"{name}-{f}")
    for name, (make, fields) in CONTRACT_SPACES.items() for f in fields
])
def test_evaluator_contract(make_space, field, elem, rng):
    """Shapes (E,) q, (E,) q x d, (E,) q x d and (E,) q of the values and
    gradients of scalar_eval and the values and divergences of
    vector_eval (S_p is the flux space in 1D), and the values of the
    pushed basis tables."""
    space = make_space()
    d = space.mesh.dim
    coeffs = random_complex(rng, space.n_dofs)
    ref = simplex_quadrature(d, 5).points
    got = _evaluate(field, space, coeffs, elem, ref)
    vector_valued = field in ("scalar_grad_eval", "vector_eval")
    assert got.shape == np.shape(elem) + (len(ref),) + ((d,) if vector_valued else ())

    elems = np.atleast_1d(elem)
    table = _pushed_tables(space, elems, ref)[FIELDS[field][1]]
    lc = space.elem_signs[elems] * coeffs[space.elem_dofs[elems]]
    want = np.einsum("ecqn,en->eqc", table, lc)
    want = (want if vector_valued else want[..., 0]).reshape(got.shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def _gram(wts, x, y):
    """Element blocks sum_q wts x^T y of real (E, c, q, n) tables."""
    return np.einsum("eq,ecqi,ecqj->eij", wts, x, y)


def _pushed_load(wts, values, x):
    return np.einsum("eq,eqi->ei", wts * values, x)


def _oracle_fosls(v_space, w_space, problem):
    """The least-squares system by quadrature on pushed tables: element
    blocks sum_j conj(Dj) Rj^T W Rj Dj of R1 = [k phi | grad u] and
    R2 = [div phi | k u]."""
    mesh, k = v_space.mesh, problem.k
    p = max(v_space.p, w_space.p)
    nv, mv = v_space.n_dofs, v_space.local_dim()
    dofs = np.hstack([v_space.elem_dofs, w_space.elem_dofs + nv])
    m = dofs.shape[1]
    d1 = np.where(np.arange(m) < mv, 1j, 1.0)
    d2 = np.where(np.arange(m) < mv, 1.0, 1j)
    blocks = np.zeros((len(dofs), m, m), dtype=complex)
    loads = np.zeros((len(dofs), m), dtype=complex)
    for elems, ref, _, wdet in _direct_element_groups(
            mesh, simplex_quadrature(mesh.dim, 2 * p + 2), ()):
        (phi, dphi), (u, gu) = (_pushed_tables(s, elems, ref) for s in (v_space, w_space))
        r1 = np.concatenate([k * phi, gu], axis=3)
        r2 = np.concatenate([dphi, k * u], axis=3)
        blocks[elems] += (_gram(wdet, r1, r1) * np.outer(d1.conj(), d1)
                          + _gram(wdet, r2, r2) * np.outer(d2.conj(), d2))
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)
    for elems, ref, phys, wdet in _direct_element_groups(mesh, rhs_rule, problem.breakpoints):
        (_, dphi), (u, _) = (_pushed_tables(s, elems, ref) for s in (v_space, w_space))
        r2 = np.concatenate([dphi, k * u], axis=3)[:, 0]
        loads[elems] += _pushed_load(wdet, (-1j / k) * _data(problem.f, phys), r2) * d2.conj()
    for elems, ref, wts, phys, measures, normals in _direct_boundary_groups(
            mesh, rhs_rule.exactness):
        wj = measures[:, None] * wts
        (phi, _), (u, _) = (_pushed_tables(s, elems, ref) for s in (v_space, w_space))
        trace = np.concatenate([np.einsum("eaqn,ea->eqn", phi, normals), u[:, 0]], axis=2)
        blocks[elems] += k * _gram(wj, trace[:, None], trace[:, None])
        loads[elems] += _pushed_load(wj, 1j * _data(problem.g, phys, normals), trace)
    signs = np.hstack([v_space.elem_signs, w_space.elem_signs])
    return _scatter(dofs, signs, blocks, loads, nv + w_space.n_dofs)


def _oracle_fem(w_space, problem):
    """(grad u, grad v) - k^2 (u, v) - ik (u, v)_boundary by quadrature on
    pushed tables."""
    mesh, k, p = w_space.mesh, problem.k, w_space.p
    m = w_space.local_dim()
    blocks = np.zeros((len(mesh.elements), m, m), dtype=complex)
    loads = np.zeros((len(mesh.elements), m), dtype=complex)
    for elems, ref, _, wdet in _direct_element_groups(
            mesh, simplex_quadrature(mesh.dim, 2 * p + 2), ()):
        u, gu = _pushed_tables(w_space, elems, ref)
        blocks[elems] += _gram(wdet, gu, gu) - k**2 * _gram(wdet, u, u)
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)
    for elems, ref, phys, wdet in _direct_element_groups(mesh, rhs_rule, problem.breakpoints):
        u, _ = _pushed_tables(w_space, elems, ref)
        loads[elems] += _pushed_load(wdet, _data(problem.f, phys), u[:, 0])
    for elems, ref, wts, phys, measures, normals in _direct_boundary_groups(
            mesh, rhs_rule.exactness):
        wj = measures[:, None] * wts
        u, _ = _pushed_tables(w_space, elems, ref)
        blocks[elems] += -1j * k * _gram(wj, u, u)
        loads[elems] += _pushed_load(wj, _data(problem.g, phys, normals), u[:, 0])
    return _scatter(w_space.elem_dofs, w_space.elem_signs, blocks, loads, w_space.n_dofs)


ORACLE_MESHES = {
    # 7 elements: the kink x = 0 of f cuts the middle one
    "interval-kink": lambda: (build_interval_mesh(-1, 1, 7), piecewise_1d_problem(10.0)),
    "square": lambda: (build_square_mesh(3), plane_wave_problem(8.0)),
    # non-uniform affine maps: projected boundary midpoints
    "disk": lambda: (build_polygonal_disk_mesh(8, 1), plane_wave_problem(5.0)),
}


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("mesh_name", sorted(ORACLE_MESHES))
class TestReferenceTensorAssembly:
    """Reference tensors times per-element factors reproduce quadrature on
    basis tables pushed to every element."""

    def test_fosls_matches_pushed_tables(self, mesh_name, p):
        mesh, problem = ORACLE_MESHES[mesh_name]()
        system = assemble_fosls(*fosls_spaces(mesh, p), problem)
        matrix, rhs = _oracle_fosls(*fosls_spaces(mesh, p), problem)
        A = system.matrix.toarray()
        assert _rel(A, matrix.toarray()) <= 1e-13
        assert _rel(system.rhs, rhs) <= 1e-13
        assert np.max(np.abs(A - A.conj().T)) <= 1e-14 * np.max(np.abs(A))

    def test_fem_matches_pushed_tables(self, mesh_name, p):
        mesh, problem = ORACLE_MESHES[mesh_name]()
        w = build_h1_space(mesh, p)
        system = assemble_classical_fem(w, problem)
        matrix, rhs = _oracle_fem(w, problem)
        assert _rel(system.matrix.toarray(), matrix.toarray()) <= 1e-13
        assert _rel(system.rhs, rhs) <= 1e-13


# -- sampling plans --------------------------------------------------------

PLAN_MESHES = {
    # 7 elements: the kink x = 0 cuts the middle one
    "interval-kink": (lambda: build_interval_mesh(-1, 1, 7), (0.0,)),
    "square": (lambda: build_square_mesh(4), ()),
    "disk": (lambda: build_polygonal_disk_mesh(8, 1), ()),
}


def _direct_element_groups(mesh, rule, breakpoints):
    """The element groups built directly, every point set mapped by
    ``element_map_apply`` with its insideness check."""
    cut = {}
    if mesh.dim == 1:
        for b in breakpoints:
            t = (b - mesh.maps_b[:, 0]) / mesh.maps_A[:, 0, 0]
            for e in np.flatnonzero((0.0 < t) & (t < 1.0)):
                cut.setdefault(e, []).append(t[e])
    plain = np.array([e for e in range(len(mesh.elements)) if e not in cut])
    groups = [(plain[s], rule.points, rule.weights)
              for s in fosls.chunks(len(plain), len(rule.weights))]
    for e, ts in sorted(cut.items()):
        edges = np.array([0.0, *sorted(ts), 1.0])
        lo, hi = edges[:-1, None], edges[1:, None]
        groups.append((np.array([e]), (lo + (hi - lo) * rule.points[:, 0]).reshape(-1, 1),
                       ((hi - lo) * rule.weights).ravel()))
    return [(elems, pts, element_map_apply(mesh, elems, pts), wts * mesh.det_A[elems][:, None])
            for elems, pts, wts in groups]


def _direct_boundary_groups(mesh, exactness):
    """The boundary groups built directly: each boundary facet's
    local index searched in ``elem_facets``, its points mapped by
    ``element_map_apply``."""
    fids = mesh.boundary_facets
    elems = mesh.facet_elems[fids, 0]
    local = np.argmax(mesh.elem_facets[elems] == fids[:, None], axis=1)
    rule = simplex_quadrature(mesh.dim - 1, exactness)
    out = []
    for li, facet in enumerate(LOCAL_FACETS[mesh.dim]):
        sel = local == li
        if sel.any():
            ref = barycentric(rule.points) @ REFERENCE_VERTICES[mesh.dim][list(facet)]
            out.append((elems[sel], ref, rule.weights, element_map_apply(mesh, elems[sel], ref),
                        mesh.facet_measures[fids[sel]], mesh.facet_normals[fids[sel]]))
    return out


def _plan_groups(mesh, breakpoints, exactness=12):
    """The volume and the boundary groups of a one-rule sweep, checking
    that the volume groups come first."""
    groups = list(fosls.sweep(mesh, (exactness,), breakpoints))
    n_volume = sum(g[5] is None for g in groups)
    assert all(g[5] is not None for g in groups[n_volume:])
    return groups[:n_volume], groups[n_volume:]


@pytest.mark.parametrize("mesh_name", sorted(PLAN_MESHES))
class TestSamplingPlans:
    def test_groups_match_direct_construction(self, mesh_name):
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        for repeat in range(2):  # the first call builds the plans, the second reuses them
            volume, boundary = _plan_groups(mesh, breakpoints)
            assert all(g[4].shape == (1, len(g[1])) for g in volume + boundary)
            # the sweep's groups in the layouts of the direct builders
            got_volume = [(elems, ref, phys, wts[0] * scales[:, None])
                          for elems, ref, phys, scales, wts, _ in volume]
            got_boundary = [(elems, ref, wts[0], phys, scales, normals)
                            for elems, ref, phys, scales, wts, normals in boundary]
            want_volume = _direct_element_groups(mesh, simplex_quadrature(mesh.dim, 12),
                                                 breakpoints)
            for got, want in [(got_volume, want_volume),
                              (got_boundary, _direct_boundary_groups(mesh, 12))]:
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert len(g) == len(w)
                    assert all(a.shape == b.shape and np.array_equal(a, b)
                               for a, b in zip(g, w))
        if mesh.dim == 1:  # the cut element forms its own panel group
            assert [len(g[0]) for g in volume] == [6, 1]

    def test_second_call_reuses_the_plan(self, mesh_name):
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        first, second = _plan_groups(mesh, breakpoints), _plan_groups(mesh, breakpoints)
        # all but the physical points are the plan's arrays (the volume's
        # normals are None)
        kept = (0, 1, 3, 4, 5)
        for groups_a, groups_b in zip(first, second):
            assert len(groups_a) == len(groups_b)
            for a, b in zip(groups_a, groups_b):
                assert all(a[i] is b[i] for i in kept)
                fresh = [i for i in range(len(a)) if i not in kept]
                assert all(a[i] is not b[i] and np.array_equal(a[i], b[i]) for i in fresh)

    def test_plan_arrays_are_read_only(self, mesh_name):
        make, breakpoints = PLAN_MESHES[mesh_name]
        volume, boundary = _plan_groups(make(), breakpoints)
        for elems, ref, _, scales, wts, _ in volume:
            assert not any(a.flags.writeable for a in (elems, ref, scales, wts))
        for elems, ref, _, measures, wts, normals in boundary:
            assert not any(a.flags.writeable for a in (elems, ref, wts, measures, normals))

    def test_keys_never_share_a_plan(self, mesh_name):
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh, twin = make(), make()
        rule, rule14 = simplex_quadrature(mesh.dim, 12), simplex_quadrature(mesh.dim, 14)
        plan = fosls._plan(mesh, (rule,), breakpoints)
        others = [
            fosls._plan(twin, (rule,), breakpoints),
            fosls._plan(mesh, (rule14,), breakpoints),
            fosls._plan(mesh, (rule, rule14), breakpoints),
            fosls._plan(mesh, (rule,), (*breakpoints, 0.5)),
        ]
        assert all(other is not plan for other in others)
        assert fosls._plan(mesh, (rule,), breakpoints) is plan
        assert len(fosls._PLANS[mesh]) == 4

    def test_plan_holds_no_element_by_point_array(self, mesh_name):
        """Every plan array a sweep yields has an element axis or a point
        axis, not both, so a plan's memory is O(E) per key: the weight
        table of R rules has R rows.  Only the physical points, formed
        per pass, have both."""
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        for n_rules, exactnesses in [(1, (12,)), (2, (12, 24))]:
            for group in fosls.sweep(mesh, exactnesses, breakpoints):
                n_elems, n_points = len(group[0]), len(group[1])
                for i, a in enumerate(group):
                    if i == 2 or a is None:  # the physical points; the volume's normals
                        continue
                    assert a.ndim <= 2
                    assert a.size <= max(n_elems, n_points) * max(mesh.dim, n_rules)

    def test_two_rule_plan_holds_both_rules(self, mesh_name):
        """A plan of two rules holds, per group, the points of each rule
        in turn and one row of weights per rule, zero off its own points
        (a 1D facet holds its one point once per rule, with weight 1 in
        its own row); its elements are those of the one-rule groups, in
        order, and a chunk holds at most CHUNK_POINTS points of the union.
        The boundary groups follow the volume groups and take the facet
        rules of the volume exactnesses."""
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        rules = tuple(simplex_quadrature(mesh.dim, e) for e in (12, 24))
        direct = [_direct_element_groups(mesh, rule, breakpoints) for rule in rules]
        plan = fosls._plan(mesh, rules, breakpoints)
        n_volume = sum(g[4] is None for g in plan)
        volume, boundary = plan[:n_volume], plan[n_volume:]
        assert all(g[4] is not None for g in boundary)
        assert np.array_equal(np.concatenate([g[0] for g in volume]),
                              np.concatenate([g[0] for g in direct[0]]))
        for elems, pts, wts, scales, normals in volume:
            assert normals is None and np.array_equal(scales, mesh.det_A[elems])
            assert len(elems) == 1 or len(elems) * len(pts) <= fosls.CHUNK_POINTS
            assert wts.shape == (2, len(pts))
            lo = 0
            for r in range(2):
                want = next(g for g in direct[r] if elems[0] in g[0])
                row, hi = list(want[0]).index(elems[0]), lo + len(want[1])
                assert np.array_equal(pts[lo:hi], want[1])
                assert np.array_equal(wts[r, lo:hi] * mesh.det_A[elems[0]], want[3][row])
                assert not np.any(np.delete(wts[r], np.s_[lo:hi]))
                lo = hi
            assert lo == len(pts)
        direct = [_direct_boundary_groups(mesh, e) for e in (12, 24)]
        assert len(boundary) == len(direct[0])
        for (elems, ref, wts, measures, normals), *want in zip(boundary, *direct):
            for got, i in [(elems, 0), (measures, 4), (normals, 5)]:
                assert all(np.array_equal(got, w[i]) for w in want)
            if mesh.dim == 1:  # each rule is the facet's one point
                assert all(np.array_equal(ref, np.concatenate([w[1]] * 2)) for w in want)
                assert np.array_equal(wts, np.eye(2))
                continue
            assert np.array_equal(ref, np.concatenate([w[1] for w in want]))
            assert np.array_equal(wts, block_diag(*(w[2][None] for w in want)))

    def test_sweep_integrates_one_exactly(self, mesh_name):
        """Each rule of a two-rule sweep integrates 1 to the domain measure
        over the volume groups and to the boundary measure over the
        boundary groups (16 chords of the unit circle on the disk)."""
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        boundary_measure = {"interval-kink": 2.0, "square": 4.0,
                            "disk": 16 * 2 * np.sin(np.pi / 16)}[mesh_name]
        volume, boundary = np.zeros(2), np.zeros(2)
        for _, _, _, scales, wts, normals in fosls.sweep(mesh, (12, 24), breakpoints):
            sums = volume if normals is None else boundary
            sums += [np.sum(scales[:, None] * row) for row in wts]
        np.testing.assert_allclose(volume, mesh.domain_measure, rtol=1e-13, atol=0)
        np.testing.assert_allclose(boundary, boundary_measure, rtol=1e-13, atol=0)

    def test_plan_follows_chunk_points(self, mesh_name, monkeypatch):
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        default, _ = _plan_groups(mesh, breakpoints)
        monkeypatch.setattr(fosls, "CHUNK_POINTS", 1)
        single, _ = _plan_groups(mesh, breakpoints)
        assert len(default) < len(single) == len(mesh.elements)

    def test_plans_are_freed_with_their_mesh(self, mesh_name):
        make, breakpoints = PLAN_MESHES[mesh_name]
        mesh = make()
        _plan_groups(mesh, breakpoints)
        alive = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert alive() is None


@pytest.mark.parametrize("make", [
    lambda: (build_interval_mesh(-1, 1, 45), piecewise_1d_problem(10.0)),
    lambda: (build_square_mesh(8), plane_wave_problem(8.0)),
], ids=["piecewise-1d", "plane-wave-2d"])
def test_runs_share_the_sampling_plans(make):
    """A FOSLS run with its error norms builds two plans on a fresh mesh:
    the plan of assembly's data rule and the two-rule plan of the error
    norms, each with its volume and boundary groups.  The FEM at the same
    degree builds none, a second degree two more.  b(e, e) then adds
    none: its plan is that of assembly."""
    mesh, problem = make()
    counts = []
    for p in (2, 3):
        for method in ("fosls", "fem"):
            system, report, _ = solve_case(problem, method, mesh, p)
            sol = split_solution(system, report.solution)
            compute_errors(sol, problem)
            counts.append(len(fosls._PLANS[mesh]))
    err = difference(problem.exact, sol)
    evaluate_b(err, err, sol.w_space, problem.k, problem.breakpoints)
    counts.append(len(fosls._PLANS[mesh]))
    assert counts == [2, 2, 4, 4, 4]


@pytest.mark.parametrize("method", ["fosls", "fem"])
@pytest.mark.parametrize("mesh_name", ["interval-kink", "square"])
def test_threads_build_plans_on_a_shared_mesh(mesh_name, method):
    """Four threads run compute_errors on one mesh whose plans are not
    built yet; every report is bit-identical to a serial run on an equal
    mesh."""
    make, _ = PLAN_MESHES[mesh_name]
    problem = (piecewise_1d_problem(10.0) if mesh_name == "interval-kink"
               else plane_wave_problem(8.0))
    serial_mesh, shared = make(), make()
    system, report, _ = solve_case(problem, method, serial_mesh, 2)
    serial = split_solution(system, report.solution)
    want = dataclasses.astuple(compute_errors(serial, problem))
    # the same coefficients on spaces of the fresh mesh
    sol = dataclasses.replace(
        serial, w_space=build_h1_space(shared, 2),
        v_space=build_hdiv_space(shared, 2) if method == "fosls" else None)
    got, errors = [], []

    def run():
        try:
            got.append(dataclasses.astuple(compute_errors(sol, problem)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(got) == 4
    for report_fields in got:
        assert np.array_equal(report_fields, want, equal_nan=True)
