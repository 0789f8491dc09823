import numpy as np
import pytest

from dissipgeo import contact
from dissipgeo import purestate as ps
from dissipgeo.algebra import matvec, vecdot
from dissipgeo.checks import exactness_residual, relative
from dissipgeo.contact import (ContactChart, DegenerateContactError,
                               ScalarField, central_gradient,
                               contact_hamiltonian_field, darboux_chart,
                               generalized_contact_field,
                               homomorphism_residual, jacobi_bracket,
                               nondegeneracy_determinant, reeb_field)


def quadratic_field(rng, dim):
    c0 = rng.normal()
    lin = rng.normal(size=dim)
    quad = rng.normal(size=(dim, dim))
    quad = (quad + quad.T) / 2

    # algebra's matvec and vecdot: each row of a stack rounds as one point
    def value(p):
        return c0 + vecdot(p, lin) + 0.5 * vecdot(p, matvec(quad, p))

    return ScalarField(value=value, gradient=lambda p: lin + matvec(quad, p))


def constant_field(c):
    return ScalarField(value=lambda p: np.full(np.shape(p)[:-1], c),
                       gradient=np.zeros_like)


def coordinate_field(i):
    """The chart coordinate p[..., i]."""
    return ScalarField(value=lambda p: p[..., i], gradient=lambda p: np.eye(
        np.shape(p)[-1])[i] + np.zeros_like(p))


class TestChartBasics:
    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            ContactChart(dim=4, eta=lambda p: np.zeros(4),
                         omega=lambda p: np.zeros((4, 4)))

    def test_standard_chart_nondegenerate(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert nondegeneracy_determinant(chart, rng.normal(size=3)) \
                > 1e-12

    def test_exact_chart_omega_matches_deta(self):
        # eta is affine on the Darboux chart: central differences are exact
        # up to rounding
        for m in (1, 2):
            chart = darboux_chart(m)
            rng = np.random.default_rng(m)
            for _ in range(10):
                point = rng.normal(size=2 * m + 1)
                assert exactness_residual(chart, point) < 1e-12

    def test_sphere_chart_omega_matches_d_eta(self):
        # omega_0 = d eta_0 on the unit sphere; observed residuals stay
        # below 6e-10 at step 1e-5 for |u| <= 0.9.  eta_0 is not affine,
        # so the step is 1e-5 here, not exactness_residual's 1e-2
        for n in (2, 3):
            chart, _, _ = ps.sphere_contact_chart(n)
            rng = np.random.default_rng(n)
            for _ in range(10):
                u = rng.normal(size=2 * n - 1)
                u *= rng.uniform(0.0, 0.9) / np.linalg.norm(u)
                jac = central_gradient(chart.eta, u, 1e-5)  # d_a eta_b
                assert np.max(np.abs(chart.omega(u) - (jac.T - jac))) < 1e-8

    def test_degenerate_chart_raises(self):
        # the bordered solve's guard is the fields' and brackets' only one
        flat = ContactChart(dim=3, eta=lambda p: np.array([0.0, 0.0, 1.0]),
                            omega=lambda p: np.zeros((3, 3)))
        f = quadratic_field(np.random.default_rng(0), 3)
        p = np.zeros(3)
        for call in (lambda: reeb_field(flat, p),
                     lambda: contact_hamiltonian_field(flat, f, p),
                     lambda: generalized_contact_field(flat, f, f.grad, p),
                     lambda: jacobi_bracket(flat, f, f, p)):
            with pytest.raises(DegenerateContactError):
                call()

    def test_nearly_degenerate_chart_raises(self):
        # eta 1e-13 off the annihilator of ker omega: the bordered matrix
        # is invertible in floats, but its solve misses the right-hand side
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        omega = a - a.T
        k = np.linalg.svd(omega)[2][-1]
        eta0 = rng.normal(size=3)
        eta = eta0 - (eta0 @ k) * k + 1e-13 * k
        chart = ContactChart(dim=3, eta=lambda p: eta,
                             omega=lambda p: omega)
        with pytest.raises(DegenerateContactError, match="did not converge"):
            reeb_field(chart, np.zeros(3))

    def test_scalar_field_gradient_consistency(self):
        rng = np.random.default_rng(1)
        f = quadratic_field(rng, 3)
        for _ in range(5):
            p = rng.normal(size=3)
            assert np.max(np.abs(f.grad(p)
                                 - central_gradient(f.value, p))) < 1e-6


class TestReebField:
    def test_standard_chart_reeb_is_dS(self):
        chart = darboux_chart(1)
        xi = reeb_field(chart, np.array([0.4, -1.2, 0.3]))
        assert np.allclose(xi, [0.0, 0.0, 1.0], atol=1e-12)

    def test_multi_dof(self):
        chart = darboux_chart(2)
        xi = reeb_field(chart, np.random.default_rng(2).normal(size=5))
        assert np.allclose(xi, [0, 0, 0, 0, 1.0], atol=1e-12)

    def test_scaling_eta_scales_reeb_inversely(self):
        lam = 3.5
        base = darboux_chart(1)
        scaled = ContactChart(dim=3, eta=lambda p: lam * base.eta(p),
                              omega=base.omega)
        p = np.array([0.2, 0.7, -0.1])
        assert np.allclose(reeb_field(scaled, p), reeb_field(base, p) / lam,
                           atol=1e-12)

    def test_sphere_chart_reeb_is_phase_field(self):
        for n in (2, 3):
            chart, embed, jac = ps.sphere_contact_chart(n)
            rng = np.random.default_rng(n)
            u = 0.3 * rng.normal(size=2 * n - 1)
            u /= max(1.0, 2.0 * np.linalg.norm(u))
            xi = reeb_field(chart, u)
            assert np.max(np.abs(jac(u) @ xi - ps.phase_field(embed(u)))) \
                < 1e-10

    def test_conditioning_guard(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.normal(size=3)
            xi = reeb_field(chart, p)
            # perturbing the defining system's RHS barely moves xi
            w = np.asarray(chart.omega(p), dtype=float)
            e = np.asarray(chart.eta(p), dtype=float)
            m = np.zeros((4, 4))
            m[:3, :3] = w
            m[:3, 3] = e
            m[3, :3] = e
            b = np.array([0.0, 0.0, 0.0, 1.0])
            b_pert = b + 1e-12 * rng.normal(size=4)
            xi_pert = np.linalg.solve(m, b_pert)[:3]
            assert np.max(np.abs(xi_pert - xi)) < 1e-8


class TestContactHamiltonianField:
    def test_unit_function_gives_reeb(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(4)
        one = constant_field(1.0)
        for _ in range(5):
            p = rng.normal(size=3)
            assert np.max(np.abs(contact_hamiltonian_field(chart, one, p)
                                 - reeb_field(chart, p))) < 1e-10

    def test_zero_function_gives_zero(self):
        chart = darboux_chart(1)
        zero = constant_field(0.0)
        vec = contact_hamiltonian_field(chart, zero, np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(vec)) < 1e-12

    def test_hand_solve_on_standard_chart(self):
        # the 3x3 system solves by hand to (-F_p, F_q + p F_S, F - p F_p)
        chart = darboux_chart(1)
        rng = np.random.default_rng(5)
        f = quadratic_field(rng, 3)
        for _ in range(5):
            state = rng.normal(size=3)
            fq, fp, fs = f.grad(state)
            vec = contact_hamiltonian_field(chart, f, state)
            expected = np.array([-fp, fq + state[1] * fs,
                                 f(state) - state[1] * fp])
            assert np.max(np.abs(vec - expected)) < 1e-10

    def test_damped_particle_via_negated_energy(self):
        # dissipative systems enter the solver through -E: for the contact
        # energy E = p^2/2 + V(q) + gamma S the field of -E is the damped
        # particle (qdot, pdot, Sdot) = (p, -V' - gamma p, p^2 - E)
        gamma, v_coeff = 0.4, 1.7
        chart = darboux_chart(1)

        def energy(s):
            return 0.5 * s[1] ** 2 + 0.5 * v_coeff * s[0] ** 2 + gamma * s[2]

        minus_e = ScalarField(
            value=lambda s: -energy(s),
            gradient=lambda s: -np.array([v_coeff * s[0], s[1], gamma]))
        rng = np.random.default_rng(51)
        for _ in range(5):
            state = rng.normal(size=3)
            q, p, _ = state
            vec = contact_hamiltonian_field(chart, minus_e, state)
            expected = np.array([p, -v_coeff * q - gamma * p,
                                 p ** 2 - energy(state)])
            assert np.max(np.abs(vec - expected)) < 1e-10

    def test_eta_contraction_returns_hamiltonian(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(6)
        f = quadratic_field(rng, 3)
        for _ in range(100):
            p = rng.normal(size=3)
            vec = contact_hamiltonian_field(chart, f, p)
            assert abs(chart.eta(p) @ vec - f(p)) < 1e-10


class TestGeneralizedField:
    def test_zero_alpha_reduces_to_plain_field(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(7)
        f = quadratic_field(rng, 3)
        for _ in range(5):
            p = rng.normal(size=3)
            plain = contact_hamiltonian_field(chart, f, p)
            gen = generalized_contact_field(chart, f,
                                            lambda s: np.zeros(3), p)
            assert np.max(np.abs(plain - gen)) < 1e-12

    def test_alpha_equal_df_gives_reeb_multiple(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(8)
        f = quadratic_field(rng, 3)
        for _ in range(5):
            p = rng.normal(size=3)
            vec = generalized_contact_field(chart, f, f.grad, p)
            assert np.max(np.abs(vec - f(p) * reeb_field(chart, p))) < 1e-12

    def test_sphere_chart_recovers_pure_state_flow(self):
        # cross-module: F = f_a/r^2, alpha = alpha_b give Z = X_a + Y0_b
        rng = np.random.default_rng(9)
        for n in (2, 3):
            chart, embed, jac = ps.sphere_contact_chart(n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = (a + a.conj().T) / 2
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = (b + b.conj().T) / 2
            u = 0.2 * rng.normal(size=2 * n - 1)

            def f_tilde(uu):
                return ps.f_value(a, embed(uu)) / ps.norm_squared(embed(uu))

            field = ScalarField(
                value=f_tilde,
                gradient=lambda uu: jac(uu).T @ ps.d_f_tilde(a, embed(uu)))
            alpha = lambda uu: jac(uu).T @ ps.alpha_tilde(b, embed(uu))
            vec = generalized_contact_field(chart, field, alpha, u)
            pushed = jac(u) @ vec
            expected = ps.z_field(a, b, embed(u))
            assert np.max(np.abs(pushed - expected)) < 1e-9


class TestJacobiBracket:
    def test_bracket_with_itself_vanishes(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(10)
        f = quadratic_field(rng, 3)
        for _ in range(5):
            p = rng.normal(size=3)
            assert abs(jacobi_bracket(chart, f, f, p)) < 1e-12

    def test_antisymmetry(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = quadratic_field(rng, 3)
            g = quadratic_field(rng, 3)
            p = rng.normal(size=3)
            assert abs(jacobi_bracket(chart, f, g, p)
                       + jacobi_bracket(chart, g, f, p)) < 1e-10

    def test_bracket_with_unit_is_minus_reeb_derivative(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(12)
        one = constant_field(1.0)
        for _ in range(5):
            f = quadratic_field(rng, 3)
            p = rng.normal(size=3)
            assert abs(jacobi_bracket(chart, f, one, p)
                       + f.grad(p) @ reeb_field(chart, p)) < 1e-10

    def test_canonical_pair(self):
        # independent 3x3 bivector solve: with eta = dS - p dq and
        # omega = dq ^ dp, [q, p] = 1 at every point
        chart = darboux_chart(1)
        q_field, p_field = coordinate_field(0), coordinate_field(1)
        rng = np.random.default_rng(13)
        for _ in range(5):
            state = rng.normal(size=3)
            w = np.asarray(chart.omega(state), dtype=float)
            e = np.asarray(chart.eta(state), dtype=float)
            m = np.zeros((4, 4))
            m[:3, :3] = w.T
            m[:3, 3] = e
            m[3, :3] = e
            rhs = np.concatenate([-q_field.grad(state), [0.0]])
            v_q = np.linalg.solve(m, rhs)[:3]
            oracle = p_field.grad(state) @ v_q
            assert abs(oracle - 1.0) < 1e-12
            assert abs(jacobi_bracket(chart, q_field, p_field, state)
                       - oracle) < 1e-12

    def test_volume_form_definition_at_dim_three(self):
        # [F, G] Omega = dF ^ dG ^ eta + (F dG - G dF) ^ omega, checked on
        # the chart basis triple
        chart = darboux_chart(1)
        rng = np.random.default_rng(14)

        def wedge_1_2(beta, w, triple):
            u, v, t = triple
            return beta @ u * (v @ w @ t) - beta @ v * (u @ w @ t) \
                + beta @ t * (u @ w @ v)

        basis_triple = list(np.eye(3))
        for _ in range(10):
            f = quadratic_field(rng, 3)
            g = quadratic_field(rng, 3)
            point = rng.normal(size=3)
            w = np.asarray(chart.omega(point), dtype=float)
            e = np.asarray(chart.eta(point), dtype=float)
            omega_vol = wedge_1_2(e, w, basis_triple)
            df, dg = f.grad(point), g.grad(point)
            three_form = float(np.linalg.det(np.stack([df, dg, e])))
            beta = f(point) * dg - g(point) * df
            rhs = three_form + wedge_1_2(beta, w, basis_triple)
            lhs = jacobi_bracket(chart, f, g, point) * omega_vol
            assert abs(lhs - rhs) < 1e-8


class TestHomomorphism:
    def test_equal_arguments(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(15)
        f = quadratic_field(rng, 3)
        assert homomorphism_residual(chart, f, f, rng.normal(size=3)) < 1e-10

    def test_unit_against_generic(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(16)
        one = constant_field(1.0)
        g = quadratic_field(rng, 3)
        assert homomorphism_residual(chart, one, g, rng.normal(size=3)) < 1e-5

    def test_momentum_position_pair(self):
        chart = darboux_chart(1)
        q_field, p_field = coordinate_field(0), coordinate_field(1)
        residual = homomorphism_residual(chart, p_field, q_field,
                                         np.array([0.3, -0.8, 0.5]))
        assert residual < 1e-5

    def test_random_polynomial_pairs(self):
        chart = darboux_chart(1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = quadratic_field(rng, 3)
            g = quadratic_field(rng, 3)
            point = 0.5 * rng.normal(size=3)
            assert homomorphism_residual(chart, f, g, point) < 1e-5


def two_solves(chart, point):
    """Bordered matrix, eta and Reeb field of the two-solve route: xi
    first, then a second solve with the eta term built from it."""
    w = np.asarray(chart.omega(point), dtype=float)
    e = np.asarray(chart.eta(point), dtype=float)
    m = np.block([[w.T, e[:, None]], [e[None, :], np.zeros((1, 1))]])
    xi = np.linalg.solve(m, np.append(np.zeros(chart.dim), 1.0))[:-1]
    return m, e, xi


def two_solve_field(chart, f, alpha, point):
    m, e, xi = two_solves(chart, point)
    df, a = f.grad(point), alpha(point)
    rhs = (df @ xi - a @ xi) * e - df + a
    return np.linalg.solve(m, np.append(rhs, f(point)))[:-1]


def two_solve_bracket(chart, f, g, point):
    m, e, xi = two_solves(chart, point)
    df, dg = f.grad(point), g.grad(point)
    lf, lg = df @ xi, dg @ xi
    v_f = np.linalg.solve(m, np.append(-(df - lf * e), 0.0))[:-1]
    return f(point) * lg - g(point) * lf + dg @ v_f


CHARTS = {"darboux-1": darboux_chart(1), "darboux-2": darboux_chart(2),
          "sphere-2": ps.sphere_contact_chart(2)[0],
          "sphere-3": ps.sphere_contact_chart(3)[0]}


class TestOneSolve:
    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_matches_the_two_solve_route(self, name):
        chart = CHARTS[name]
        dim = chart.dim
        rng = np.random.default_rng(dim)
        zero = lambda p: np.zeros(dim)
        for _ in range(10):
            f = quadratic_field(rng, dim)
            g = quadratic_field(rng, dim)
            c, lin = rng.normal(size=dim), rng.normal(size=(dim, dim))
            alpha = lambda p: c + lin @ p
            point = rng.normal(size=dim)
            if name.startswith("sphere"):
                point *= rng.uniform(0.0, 0.8) / np.linalg.norm(point)
            for got, want in (
                    (generalized_contact_field(chart, f, alpha, point),
                     two_solve_field(chart, f, alpha, point)),
                    (contact_hamiltonian_field(chart, f, point),
                     two_solve_field(chart, f, zero, point)),
                    (jacobi_bracket(chart, f, g, point),
                     two_solve_bracket(chart, f, g, point))):
                assert relative(got - want, want) < 1e-12

    def test_fields_and_brackets_need_no_reeb_field(self, monkeypatch):
        def refuse(chart, point):
            raise AssertionError("reeb_field was called")

        monkeypatch.setattr(contact, "reeb_field", refuse)
        chart = darboux_chart(1)
        rng = np.random.default_rng(18)
        f = quadratic_field(rng, 3)
        g = quadratic_field(rng, 3)
        p = rng.normal(size=3)
        assert np.all(np.isfinite(contact_hamiltonian_field(chart, f, p)))
        assert np.all(np.isfinite(
            generalized_contact_field(chart, f, g.grad, p)))
        assert np.isfinite(jacobi_bracket(chart, f, g, p))
        assert homomorphism_residual(chart, f, g, 0.5 * p) < 1e-5


BATCHES = [(1,), (7,), (2, 3)]


def chart_points(name, rng, shape):
    """Points of a chart of CHARTS; on a sphere chart |u| < 0.8."""
    points = rng.normal(size=shape + (CHARTS[name].dim,))
    if name.startswith("sphere"):
        points *= rng.uniform(0.0, 0.8, size=shape + (1,)) \
            / np.linalg.norm(points, axis=-1, keepdims=True)
    return points


class TestStacks:
    """Each row of a stacked call against the call on that row alone.
    On the Darboux charts every step is elementwise, one LAPACK solve per
    row or a matmul of the same shape per row, so the rows are equal bits.
    The sphere charts pull their forms back by matmuls of the whole stack,
    which may round a row differently with its place in memory: there a
    row is held within 4 eps of its own scale max(1, max|row|)."""

    @pytest.mark.parametrize("shape", BATCHES)
    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_rows(self, name, shape):
        chart = CHARTS[name]
        rng = np.random.default_rng(chart.dim + len(shape))
        points = chart_points(name, rng, shape)
        f, g = quadratic_field(rng, chart.dim), quadratic_field(rng, chart.dim)
        calls = {
            "eta": chart.eta,
            "omega": lambda p: np.broadcast_to(chart.omega(p),
                                               p.shape + (chart.dim,)),
            "value": f, "gradient": f.grad,
            "central_gradient": lambda p: central_gradient(chart.eta, p),
            "determinant": lambda p: nondegeneracy_determinant(chart, p),
            "reeb": lambda p: reeb_field(chart, p),
            "hamiltonian": lambda p: contact_hamiltonian_field(chart, f, p),
            "generalized": lambda p: generalized_contact_field(
                chart, f, g.grad, p),
            "bracket": lambda p: jacobi_bracket(chart, f, g, p),
            "homomorphism": lambda p: homomorphism_residual(chart, f, g, p),
        }
        eps = np.finfo(float).eps
        for call in calls.values():
            out = np.asarray(call(points))
            for idx in np.ndindex(shape):
                want = np.asarray(call(points[idx]))
                assert out[idx].shape == want.shape
                if name.startswith("darboux"):
                    assert np.array_equal(out[idx], want)
                else:
                    assert np.max(np.abs(out[idx] - want)) \
                        <= 4 * eps * max(1.0, np.max(np.abs(want)))

    def test_shapes_that_do_not_fit_raise(self):
        chart = darboux_chart(1)
        f = quadratic_field(np.random.default_rng(19), 3)
        # a field that reads the first row of a stack, as p[0] does
        first_row = ScalarField(value=lambda p: p[0] @ p[0],
                                gradient=lambda p: 2.0 * p[0])
        stack = np.random.default_rng(20).normal(size=(4, 3))
        for call in (lambda: f(stack[:, :2]),
                     lambda: first_row(stack), lambda: first_row.grad(stack),
                     lambda: contact_hamiltonian_field(chart, first_row, stack),
                     lambda: generalized_contact_field(
                         chart, f, lambda p: np.zeros((2, 3)), stack),
                     lambda: reeb_field(chart, stack.reshape(3, 4))):
            with pytest.raises(ValueError):
                call()


class TestPointShape:
    @pytest.mark.parametrize("point", [[0.3, 0.2], np.arange(5.0), 0.5],
                             ids=["short", "long", "0-d"])
    def test_a_point_of_another_dimension_raises(self, point):
        chart = darboux_chart(1)
        f = constant_field(1.0)
        for call in (reeb_field, nondegeneracy_determinant,
                     lambda c, p: contact_hamiltonian_field(c, f, p),
                     lambda c, p: generalized_contact_field(c, f, f.grad, p),
                     lambda c, p: jacobi_bracket(c, f, f, p),
                     lambda c, p: homomorphism_residual(c, f, f, p)):
            with pytest.raises(ValueError, match=r"\(\.\.\., 3\)"):
                call(chart, point)
