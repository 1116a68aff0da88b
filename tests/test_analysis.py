import dataclasses
import math

import numpy as np
import pytest

import helmfosls.analysis as analysis
import helmfosls.fosls as fosls
from conftest import polynomial_problem
from helmfosls.analysis import (
    ConvergenceTable,
    RunRecord,
    compute_errors,
    dofs_per_wavelength,
    eoc_pairs,
)
from helmfosls.cli import solve_case
from helmfosls.fosls import (
    assemble_classical_fem,
    assemble_fosls,
    error_exactness,
    split_solution,
)
from helmfosls.mesh import (
    LOCAL_FACETS,
    REFERENCE_VERTICES,
    build_interval_mesh,
    build_square_mesh,
)
from helmfosls.polyquad import simplex_quadrature
from helmfosls.problems import piecewise_1d_problem, plane_wave_problem
from helmfosls.solver import solve_general
from helmfosls.spaces import (
    KIND_H1,
    build_h1_space,
    build_hdiv_space,
    reference_tables,
)
from oracles import (
    difference,
    empirical_order,
    evaluate_b,
    interpolate_h1_polynomial,
    interpolate_hdiv_polynomial,
    tail_slope,
)


def solve_method(method, mesh, p, problem):
    system, report, _ = solve_case(problem, method, mesh, p)
    return split_solution(system, report.solution)


class TestDofsPerWavelength:
    def test_1d_example(self):
        assert dofs_per_wavelength(100, 2 * math.pi, 2.0, 1) == pytest.approx(50.0)

    def test_2d_example(self):
        assert dofs_per_wavelength(1, 2 * math.pi, 1.0, 2) == pytest.approx(1.0)

    def test_doubling_dof_scales_sqrt2_in_2d(self):
        a = dofs_per_wavelength(800, 5.0, 3.0, 2)
        b = dofs_per_wavelength(1600, 5.0, 3.0, 2)
        assert b / a == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dofs_per_wavelength(0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            dofs_per_wavelength(10, -1.0, 1.0, 2)


class TestEmpiricalOrder:
    def test_exact_power_law(self):
        assert eoc_pairs([1.0, 0.5], [1.0, 0.25]) == [pytest.approx(2.0)]

    def test_fractional_power_law(self):
        assert eoc_pairs([1.0, 0.5], [1.0, 2**-2.5]) == [pytest.approx(2.5)]

    def test_tail_slope_matches_pure_power(self):
        h = np.array([1.0, 0.5, 0.25, 0.125])
        e = h**1.7
        assert tail_slope(h, e) == pytest.approx(1.7, abs=1e-12)

    def test_requires_two_rows(self):
        table = ConvergenceTable()
        table.add(_record(0.5, 0.1))
        with pytest.raises(ValueError, match="fewer than 2"):
            empirical_order(table)

    def test_table_rates(self):
        table = ConvergenceTable()
        for h in (1.0, 0.5, 0.25):
            table.add(_record(h, h**3))
        rates = empirical_order(table)
        assert rates[("fosls", 1)]["pairwise"] == [
            pytest.approx(3.0), pytest.approx(3.0)
        ]
        assert rates[("fosls", 1)]["tail"] == pytest.approx(3.0)


def _record(h, l2):
    from helmfosls.analysis import ErrorReport
    err = ErrorReport(l2_rel=l2, h1_err=0, bnd_l2=0, e1=0, e2=0, flux_l2=0,
                      e_bnd=0, u_l2=1, quad_drift=0)
    return RunRecord(problem="x", method="fosls", d=1, k=1.0, p=1, n_elems=1,
                     h=h, dof=1, n_lambda=1.0, errors=err)


class TestComputeErrors:
    def test_zero_solution_has_unit_relative_error(self):
        prob = piecewise_1d_problem(5.0)
        mesh = build_interval_mesh(-1, 1, 5)
        w = build_h1_space(mesh, 1)
        v = build_h1_space(mesh, 1)
        system = assemble_fosls(v, w, prob)
        zero = split_solution(system, np.zeros(system.n_total, dtype=complex))
        err = compute_errors(zero, prob)
        assert err.l2_rel == pytest.approx(1.0, rel=1e-12)

    def test_interpolated_polynomial_exact_solution(self):
        """Exact dof data on a polynomial solution leaves no error."""
        prob = polynomial_problem(2)
        mesh = build_square_mesh(2)
        w = build_h1_space(mesh, 3)
        v = build_hdiv_space(mesh, 3)
        from helmfosls.fosls import DiscreteSolution
        sol = DiscreteSolution(
            phi_coeffs=interpolate_hdiv_polynomial(v, prob.exact.phi),
            u_coeffs=interpolate_h1_polynomial(w, prob.exact.u),
            v_space=v,
            w_space=w,
        )
        err = compute_errors(sol, prob)
        for name in ("h1_err", "bnd_l2", "e1", "e2", "flux_l2", "e_bnd"):
            assert getattr(err, name) <= 1e-11
        assert err.l2_rel <= 1e-11

    def test_fem_solution_has_nan_flux_entries(self):
        prob = plane_wave_problem(4.0)
        mesh = build_square_mesh(2)
        w = build_h1_space(mesh, 1)
        system = assemble_classical_fem(w, prob)
        sol = split_solution(system, solve_general(system).solution)
        err = compute_errors(sol, prob)
        assert math.isnan(err.e1) and math.isnan(err.e2)
        assert math.isnan(err.flux_l2)
        assert err.l2_rel > 0 and math.isfinite(err.l2_rel)

    def test_requires_exact_solution(self):
        from conftest import zero_problem
        prob = zero_problem(1)
        mesh = build_interval_mesh(-1, 1, 3)
        w = build_h1_space(mesh, 1)
        v = build_h1_space(mesh, 1)
        system = assemble_fosls(v, w, prob)
        sol = split_solution(system, np.zeros(system.n_total, dtype=complex))
        with pytest.raises(ValueError, match="exact"):
            compute_errors(sol, prob)

    def test_quadrature_drift_small_on_solved_instance(self):
        prob = piecewise_1d_problem(10.0)
        mesh = build_interval_mesh(-1, 1, 15)
        sol = solve_method("fosls", mesh, 2, prob)
        err = compute_errors(sol, prob)
        assert err.quad_drift < 1e-3

    def test_boundary_rule_follows_exactness(self):
        """bnd_l2 and e_bnd use a facet rule that grows with each
        exactness of the sweep, so the doubled rules behind quad_drift
        cover them too."""
        prob = plane_wave_problem(8.0)
        sol = solve_method("fosls", build_square_mesh(4), 2, prob)
        coarse, default = analysis._accumulate(sol, prob, (2, error_exactness(2)))
        assert coarse["bnd_l2"] != default["bnd_l2"]
        assert coarse["e_bnd"] != default["e_bnd"]

    def test_one_jet_call_per_group(self, monkeypatch):
        """The error rules and the doubled rules of the drift are sampled
        in one sweep: on 7 elements with the kink x = 0 cutting the middle
        one, the exact jet is called once per group -- one chunk, one
        panel group and two boundary groups -- and each space's
        evaluator once per group."""
        prob = piecewise_1d_problem(10.0)
        sol = solve_method("fosls", build_interval_mesh(-1, 1, 7), 2, prob)
        calls = []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        exact = type(prob.exact)
        monkeypatch.setattr(exact, "fields", counted("jet", exact.fields))
        for name in ("scalar_eval", "vector_eval"):
            monkeypatch.setattr(fosls, name, counted(name, getattr(fosls, name)))
        compute_errors(sol, prob)
        assert sorted(calls) == ["jet"] * 4 + ["scalar_eval"] * 4 + ["vector_eval"] * 4

    @pytest.mark.parametrize("method,order", [("fem", 1), ("fosls", 2)])
    def test_jet_order_follows_the_method(self, method, order):
        """The FEM pass samples u and grad u only, so it asks the jet for
        order 1 at most; the FOSLS pass reads the flux, order 2."""
        prob = plane_wave_problem(4.0)
        sol = solve_method(method, build_square_mesh(2), 2, prob)
        orders = []

        def recording(points, order=2):
            orders.append(order)
            return prob.exact.jet(points, order)

        exact = dataclasses.replace(prob.exact, jet=recording)
        report = compute_errors(sol, dataclasses.replace(prob, exact=exact))
        assert orders and max(orders) == order
        # the same report, bit for bit (NaN flux entries of FEM included)
        np.testing.assert_equal(dataclasses.astuple(report),
                                dataclasses.astuple(compute_errors(sol, prob)))

    def test_all_entries_nonnegative_finite_for_fosls(self):
        prob = piecewise_1d_problem(10.0)
        mesh = build_interval_mesh(-1, 1, 15)
        sol = solve_method("fosls", mesh, 2, prob)
        err = compute_errors(sol, prob)
        for name in ("l2_rel", "h1_err", "bnd_l2", "e1", "e2", "flux_l2",
                     "e_bnd", "u_l2"):
            value = getattr(err, name)
            assert math.isfinite(value) and value >= 0


class TestEnergyIdentity:
    @pytest.mark.parametrize("n,p", [(5, 1), (9, 2)])
    def test_b_energy_splits_into_components(self, n, p):
        """b(e, e) = e1^2 + e2^2 + k * (impedance trace)^2."""
        prob = piecewise_1d_problem(10.0)
        mesh = build_interval_mesh(-1, 1, n)
        sol = solve_method("fosls", mesh, p, prob)
        err = compute_errors(sol, prob)
        diff = difference(prob.exact, sol)
        energy = evaluate_b(diff, diff, sol.w_space, prob.k,
                            breakpoints=prob.breakpoints).real
        recombined = err.e1**2 + err.e2**2 + prob.k * err.e_bnd**2
        assert energy == pytest.approx(recombined, rel=1e-14, abs=0)

    def test_2d_energy_identity(self):
        prob = plane_wave_problem(5.0)
        mesh = build_square_mesh(3)
        sol = solve_method("fosls", mesh, 2, prob)
        err = compute_errors(sol, prob)
        diff = difference(prob.exact, sol)
        energy = evaluate_b(diff, diff, sol.w_space, prob.k).real
        recombined = err.e1**2 + err.e2**2 + prob.k * err.e_bnd**2
        assert energy == pytest.approx(recombined, rel=1e-14, abs=0)


@pytest.mark.parametrize("method", ["fosls", "fem"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_element_chunks_match_default_chunking(dim, p, method, monkeypatch):
    """Every ErrorReport field and b(e, e) are unchanged when each chunk of
    the batched kernels holds one element (1D: the kink x = 0 cuts the
    middle of 7 elements, so its panel group is exercised too)."""
    if dim == 1:
        prob, mesh = piecewise_1d_problem(10.0), build_interval_mesh(-1, 1, 7)
    else:
        prob, mesh = plane_wave_problem(8.0), build_square_mesh(3)
    sol = solve_method(method, mesh, p, prob)
    err = difference(prob.exact, sol)

    def observe():
        report = dataclasses.asdict(compute_errors(sol, prob))
        b = evaluate_b(err, err, sol.w_space, prob.k, breakpoints=prob.breakpoints)
        return report, b

    report, b = observe()
    monkeypatch.setattr(fosls, "CHUNK_POINTS", 1)
    report1, b1 = observe()
    drift = report.pop("quad_drift")
    # the drift is itself a relative difference of fields that may each
    # move by 1e-13 relative, so it is compared absolutely
    assert abs(report1.pop("quad_drift") - drift) <= 2e-13
    for name, value in report.items():
        assert report1[name] == pytest.approx(value, rel=1e-13, abs=0,
                                              nan_ok=True), name
    assert abs(b1 - b) <= 1e-13 * abs(b)


# -- oracle: compute_errors by a loop over elements and facets -------------

FLUX_ENTRIES = ("e1", "e2", "flux_l2", "e_bnd")


def _element_field(space, coeffs, e, ref):
    """Physical (values (q, c), first derivatives (q, c')) of a discrete
    field on element ``e``: the reference tables times the signed local
    coefficients, mapped by the element's A, A^{-1} and det A (H1: u,
    grad u = A^{-T} grad_hat; H(div): phi = A phi_hat / det A,
    div phi = div_hat / det A)."""
    mesh = space.mesh
    vals, ders = reference_tables(space.basis, ref)
    lc = space.elem_signs[e] * coeffs[space.elem_dofs[e]]
    v, dv = np.einsum("qma,m->qa", vals, lc), np.einsum("qma,m->qa", ders, lc)
    if space.kind == KIND_H1:
        return v, dv @ mesh.inv_A[e]
    return v @ mesh.maps_A[e].T / mesh.det_A[e], dv / mesh.det_A[e]


def _oracle_errors(sol, problem, exactness=None):
    """The ErrorReport entries but quad_drift, summed element by element
    and facet by facet on the rules of ``exactness``, volume and facets
    alike (by default the error rules; 1D elements cut by a breakpoint
    split into panels),
    sharing no kernel with ``compute_errors``."""
    mesh, k, d = sol.w_space.mesh, problem.k, sol.w_space.mesh.dim
    if exactness is None:
        exactness = error_exactness(sol.w_space.p)
    has_flux = sol.phi_coeffs is not None
    total = dict.fromkeys(["u2", "eu2", "geu2", "e1", "e2", "ephi", "bnd_eu2", "imp"], 0.0)

    def add(key, w, field):
        total[key] += float(np.sum(w * np.abs(field.reshape(len(w), -1)).T ** 2))

    def errors(e, ref):
        phi, dphi, u, gu = problem.exact.fields(ref @ mesh.maps_A[e].T + mesh.maps_b[e])
        uh, guh = _element_field(sol.w_space, sol.u_coeffs, e, ref)
        if not has_flux:
            return u, u - uh[:, 0], gu - guh, None, None
        phih, dphih = _element_field(sol.v_space, sol.phi_coeffs, e, ref)
        return u, u - uh[:, 0], gu - guh, phi - phih, dphi - dphih[:, 0]

    rule = simplex_quadrature(d, exactness)
    for e in range(len(mesh.elements)):
        edges = [0.0, 1.0]
        if d == 1:
            x0, length = mesh.maps_b[e, 0], mesh.maps_A[e, 0, 0]
            edges[1:1] = sorted((b - x0) / length for b in problem.breakpoints
                                if x0 < b < x0 + length)
        for lo, hi in zip(edges[:-1], edges[1:]):
            ref = lo + (hi - lo) * rule.points if d == 1 else rule.points
            w = (hi - lo) * rule.weights * mesh.det_A[e]
            u, eu, egu, ephi, ediv = errors(e, ref)
            add("u2", w, u), add("eu2", w, eu), add("geu2", w, egu)
            if has_flux:
                add("e1", w, 1j * k * ephi + egu)
                add("e2", w, 1j * k * eu + ediv)
                add("ephi", w, ephi)

    facet_rule = simplex_quadrature(d - 1, exactness)
    lam = np.column_stack([1.0 - facet_rule.points.sum(axis=1), facet_rule.points])
    for f in mesh.boundary_facets:
        e = mesh.facet_elems[f, 0]
        local = list(mesh.elem_facets[e]).index(f)
        ref = lam @ REFERENCE_VERTICES[d][list(LOCAL_FACETS[d][local])]
        w = mesh.facet_measures[f] * facet_rule.weights
        _, eu, _, ephi, _ = errors(e, ref)
        add("bnd_eu2", w, eu)
        if has_flux:
            add("imp", w, ephi @ mesh.facet_normals[f] + eu)

    flux = {key: math.sqrt(total[key]) if has_flux else float("nan")
            for key in ("e1", "e2", "ephi", "imp")}
    return {"l2_rel": math.sqrt(total["eu2"] / total["u2"]),
            "h1_err": math.sqrt(total["geu2"]), "bnd_l2": math.sqrt(total["bnd_eu2"]),
            "e1": flux["e1"], "e2": flux["e2"], "flux_l2": flux["ephi"],
            "e_bnd": flux["imp"], "u_l2": math.sqrt(total["u2"])}


@pytest.mark.parametrize("method", ["fosls", "fem"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_compute_errors_matches_element_loop_oracle(dim, p, method):
    """Every ErrorReport entry but quad_drift equals the element-by-element
    oracle to 1e-12 relative (1D: the kink x = 0 cuts the middle of 7
    elements); the FEM flux entries are NaN.  quad_drift equals the
    largest relative change of an entry between the oracle at the error
    exactness e and at 2e to 2e-13 absolute (the drift is itself a
    difference of entries that may each move by rounding)."""
    if dim == 1:
        prob, mesh = piecewise_1d_problem(10.0), build_interval_mesh(-1, 1, 7)
    else:
        prob, mesh = plane_wave_problem(8.0), build_square_mesh(3)
    sol = solve_method(method, mesh, p, prob)
    got = dataclasses.asdict(compute_errors(sol, prob))
    want = _oracle_errors(sol, prob)
    fine = _oracle_errors(sol, prob, 2 * error_exactness(p))
    drift = max(abs(value - fine[name]) / abs(fine[name]) for name, value in want.items()
                if not math.isnan(value))
    assert abs(got.pop("quad_drift") - drift) <= 2e-13
    assert got.keys() == want.keys()
    for name, value in want.items():
        if method == "fem" and name in FLUX_ENTRIES:
            assert math.isnan(got[name]) and math.isnan(value), name
        else:
            assert got[name] == pytest.approx(value, rel=1e-12, abs=0), name


class TestResolvedRegimeRates:
    """Rate checks in a wavelength-resolved regime (k = 1), where the
    kink-limited asymptotics are visible on desk-scale meshes.  They are
    two-sided: together with the one-sided k = 10 / k = 8 checks of
    acceptance criteria 1-4 they show that the orders are sharp."""

    NS = (5, 15, 45, 135)

    def run_series(self, method, p, k=1.0):
        prob = piecewise_1d_problem(k)
        hs, l2s, e1s, e2s = [], [], [], []
        for n in self.NS:
            mesh = build_interval_mesh(-1, 1, n)
            err = compute_errors(solve_method(method, mesh, p, prob), prob)
            hs.append(mesh.h)
            l2s.append(err.l2_rel)
            e1s.append(err.e1)
            e2s.append(err.e2)
        return hs, l2s, e1s, e2s

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_fosls_l2_rate(self, p):
        hs, l2s, _, _ = self.run_series("fosls", p)
        expected = min(2.5, p + 1)
        assert tail_slope(hs, l2s) == pytest.approx(expected, abs=0.3)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_fem_l2_rate(self, p):
        hs, l2s, _, _ = self.run_series("fem", p)
        expected = min(2.5, p + 1)
        assert tail_slope(hs, l2s) == pytest.approx(expected, abs=0.3)

    @pytest.mark.parametrize("method", ["fosls", "fem"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_plane_wave_l2_rate(self, method, p):
        # the meshes of acceptance criterion 3, with the wavelength resolved
        prob = plane_wave_problem(1.0)
        hs, l2s = [], []
        for n in (4, 8, 16, 32):
            mesh = build_square_mesh(n)
            hs.append(mesh.h)
            l2s.append(compute_errors(solve_method(method, mesh, p, prob),
                                      prob).l2_rel)
        assert tail_slope(hs, l2s) == pytest.approx(p + 1, abs=0.3)

    def test_pairwise_eoc_on_two_coarse_levels(self):
        prob = piecewise_1d_problem(1.0)
        errs, hs = [], []
        for n in (5, 15):
            mesh = build_interval_mesh(-1, 1, n)
            sol = solve_method("fosls", mesh, 1, prob)
            errs.append(compute_errors(sol, prob).l2_rel)
            hs.append(mesh.h)
        eoc = eoc_pairs(hs, errs)[0]
        assert 1.6 <= eoc <= 2.4

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_divergence_residual_rate_half(self, p):
        # the jump of f inside an element caps this component at h^(1/2)
        hs, _, _, e2s = self.run_series("fosls", p)
        assert 0.3 <= tail_slope(hs, e2s) <= 0.7

    @pytest.mark.parametrize("p", [2, 3])
    def test_gradient_residual_rate_three_halves(self, p):
        hs, _, e1s, _ = self.run_series("fosls", p)
        assert 1.2 <= tail_slope(hs, e1s) <= 1.8

    def test_gradient_residual_rate_one_at_p1(self):
        hs, _, e1s, _ = self.run_series("fosls", 1)
        assert tail_slope(hs, e1s) == pytest.approx(1.0, abs=0.2)


def test_pollution_delays_asymptotic_onset_at_k10():
    """At k = 10 the lowest-order least-squares solution reaches its
    second-order regime only once kh is well below one; on coarser meshes
    the observed order is depressed by pollution.  This is why the k = 10
    acceptance tails start at n = 135 (kh <= 0.15): from n = 45 to 135
    the observed order is still below 1.7."""
    prob = piecewise_1d_problem(10.0)
    hs, errs = [], []
    for n in (45, 135, 405, 1215):
        mesh = build_interval_mesh(-1, 1, n)
        sol = solve_method("fosls", mesh, 1, prob)
        hs.append(mesh.h)
        errs.append(compute_errors(sol, prob).l2_rel)
    pairs = eoc_pairs(hs, errs)
    assert pairs[0] < 1.7          # kh ~ 1.3 .. 0.44: depressed order
    assert pairs[-1] > 1.85        # kh ~ 0.05: second order emerges
