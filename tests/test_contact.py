import numpy as np
import pytest

from dissipgeo import purestate as ps
from dissipgeo.checks import exactness_residual
from dissipgeo.contact import (ContactChart, DegenerateContactError,
                               ScalarField, central_gradient,
                               contact_hamiltonian_field, darboux_chart,
                               generalized_contact_field,
                               homomorphism_residual, jacobi_bracket,
                               lie_derivative, nondegeneracy_determinant,
                               reeb_field)


def quadratic_field(rng, dim):
    c0 = rng.normal()
    lin = rng.normal(size=dim)
    quad = rng.normal(size=(dim, dim))
    quad = (quad + quad.T) / 2

    def value(p):
        return c0 + lin @ p + 0.5 * p @ quad @ p

    return ScalarField(value=value, gradient=lambda p: lin + quad @ p)


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
                assert exactness_residual(chart, point, 1e-2) < 1e-12

    def test_sphere_chart_omega_matches_d_eta(self):
        # omega_0 = d eta_0 on the unit sphere; observed residuals stay
        # below 6e-10 at step 1e-5 for |u| <= 0.9
        for n in (2, 3):
            chart, _, _ = ps.sphere_contact_chart(n)
            rng = np.random.default_rng(n)
            for _ in range(10):
                u = rng.normal(size=2 * n - 1)
                u *= rng.uniform(0.0, 0.9) / np.linalg.norm(u)
                assert exactness_residual(chart, u, 1e-5) < 1e-8

    def test_degenerate_chart_raises(self):
        flat = ContactChart(dim=3, eta=lambda p: np.array([0.0, 0.0, 1.0]),
                            omega=lambda p: np.zeros((3, 3)))
        with pytest.raises(DegenerateContactError):
            reeb_field(flat, np.zeros(3))

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
        one = ScalarField(value=lambda p: 1.0, gradient=lambda p: np.zeros(3))
        for _ in range(5):
            p = rng.normal(size=3)
            assert np.max(np.abs(contact_hamiltonian_field(chart, one, p)
                                 - reeb_field(chart, p))) < 1e-10

    def test_zero_function_gives_zero(self):
        chart = darboux_chart(1)
        zero = ScalarField(value=lambda p: 0.0,
                           gradient=lambda p: np.zeros(3))
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
        one = ScalarField(value=lambda p: 1.0, gradient=lambda p: np.zeros(3))
        for _ in range(5):
            f = quadratic_field(rng, 3)
            p = rng.normal(size=3)
            assert abs(jacobi_bracket(chart, f, one, p)
                       + lie_derivative(chart, f, p)) < 1e-10

    def test_canonical_pair(self):
        # independent 3x3 bivector solve: with eta = dS - p dq and
        # omega = dq ^ dp, [q, p] = 1 at every point
        chart = darboux_chart(1)
        q_field = ScalarField(value=lambda s: s[0],
                              gradient=lambda s: np.array([1.0, 0, 0]))
        p_field = ScalarField(value=lambda s: s[1],
                              gradient=lambda s: np.array([0, 1.0, 0]))
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
        one = ScalarField(value=lambda p: 1.0, gradient=lambda p: np.zeros(3))
        g = quadratic_field(rng, 3)
        assert homomorphism_residual(chart, one, g, rng.normal(size=3)) < 1e-5

    def test_momentum_position_pair(self):
        chart = darboux_chart(1)
        q_field = ScalarField(value=lambda s: s[0],
                              gradient=lambda s: np.array([1.0, 0, 0]))
        p_field = ScalarField(value=lambda s: s[1],
                              gradient=lambda s: np.array([0, 1.0, 0]))
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
