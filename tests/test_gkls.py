import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dissipgeo.algebra import (build_su_basis, from_coherence_vector,
                               to_coherence_vector)
from dissipgeo.gkls import (UnsupportedModelError, apply_generator,
                            build_model, decompose_field,
                            evaluate_component_fields,
                            hamiltonian_gradient_field, integrate,
                            integrate_coherence_field, phase_damping_model,
                            pulled_back_bracket)
from dissipgeo.integrators import DivergenceError, rk4_path

SQRT2 = np.sqrt(2.0)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_model(rng, n, n_jumps=2, scale=0.7):
    basis = build_su_basis(n)
    h = random_hermitian(rng, n)
    jumps = [scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
             for _ in range(n_jumps)]
    return build_model(basis, h, jumps)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestGenerator:
    def test_free_generator_is_zero(self):
        basis = build_su_basis(2)
        m = build_model(basis, np.zeros((2, 2)))
        rho = 0.5 * (np.eye(2) + SIGMA1)
        assert np.max(np.abs(apply_generator(m, rho))) == 0.0

    def test_phase_damping_kills_off_diagonals(self):
        # L(rho) = -2 gamma (|1><1| rho |2><2| + |2><2| rho |1><1|)
        gamma = 0.8
        m = phase_damping_model(gamma)
        rho = 0.5 * (np.eye(2) + SIGMA1)
        expected = np.array([[0, -gamma * 0.5 * 2], [-gamma * 0.5 * 2, 0]])
        assert np.max(np.abs(apply_generator(m, rho) - expected)) < 1e-14

    def test_commutator_part_matches_c_contraction(self):
        basis = build_su_basis(2)
        m = build_model(basis, SIGMA3)
        rho = 0.5 * (np.eye(2) + SIGMA1)
        image = to_coherence_vector(
            apply_generator(m, rho) + rho, basis) - to_coherence_vector(
                rho, basis)
        # same through the c tensor: xdot^j = H_k c^{lk}_j x^l
        h_vec = np.einsum("jab,ba->j", basis.tau, m.H).real
        x = to_coherence_vector(rho, basis)
        via_c = np.einsum("jlk,k,l->j", basis.c, h_vec, x)
        assert np.allclose(image, via_c, atol=1e-12)
        assert np.allclose(via_c, [0.0, SQRT2 * x[0] * SQRT2, 0.0], atol=1e-12)

    def test_traceless_output(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            m = random_model(rng, n)
            for _ in range(100):
                out = apply_generator(m, random_density(rng, n))
                assert abs(np.trace(out)) < 1e-10

    def test_dimension_mismatch(self):
        m = phase_damping_model(1.0)
        with pytest.raises(ValueError):
            apply_generator(m, np.eye(3) / 3)

    def test_too_many_jumps_warns(self):
        basis = build_su_basis(2)
        jumps = [np.eye(2, dtype=complex)] * 4
        with pytest.warns(UserWarning):
            build_model(basis, np.zeros((2, 2)), jumps)

    def test_phase_damping_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            phase_damping_model(0.0)
        with pytest.raises(ValueError):
            phase_damping_model(-1.0)


class TestAffineField:
    def test_phase_damping_matrices(self):
        for gamma in (0.5, 1.0, 2.0):
            m = phase_damping_model(gamma)
            assert np.allclose(m.A, np.diag([-2 * gamma, -2 * gamma, 0.0]),
                               atol=1e-13)
            assert np.max(np.abs(m.B)) < 1e-14

    def test_reproduces_generator_through_chart(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            m = random_model(rng, n)
            for _ in range(100):
                x = rng.normal(size=n * n - 1)
                lhs = m.A @ x + m.B
                rhs = to_coherence_vector(
                    apply_generator(m, from_coherence_vector(x, m.basis))
                    + np.eye(n) / n, m.basis)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_closed_system_is_homogeneous(self):
        rng = np.random.default_rng(2)
        basis = build_su_basis(3)
        m = build_model(basis, random_hermitian(rng, 3))
        dec = decompose_field(m)
        assert np.max(np.abs(m.B)) < 1e-14
        assert np.max(np.abs(m.A - dec.Hmat)) < 1e-12
        assert np.max(np.abs(dec.Vmat)) < 1e-14
        assert np.max(np.abs(dec.Kmat)) < 1e-14

    def test_decay_jump_has_affine_part(self):
        # brute-force affine fit from generator evaluations
        rng = np.random.default_rng(3)
        basis = build_su_basis(2)
        lower = np.array([[0, 0], [1, 0]], dtype=complex)
        m = build_model(basis, np.zeros((2, 2)), [np.sqrt(0.7) * lower])
        xs = rng.normal(size=(40, 3))
        ys = np.stack([to_coherence_vector(
            apply_generator(m, from_coherence_vector(x, basis))
            + np.eye(2) / 2, basis) for x in xs])
        design = np.hstack([xs, np.ones((40, 1))])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert np.max(np.abs(coef[:3].T - m.A)) < 1e-10
        assert np.max(np.abs(coef[3] - m.B)) < 1e-10
        assert np.max(np.abs(m.B)) > 1e-3


class TestDecomposition:
    def test_phase_damping_is_pure_jump_field(self):
        m = phase_damping_model(1.0)
        dec = decompose_field(m)
        assert np.max(np.abs(dec.Hmat)) < 1e-14
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=3)
            xh, yv, zk = evaluate_component_fields(m, dec, x)
            assert np.max(np.abs(xh)) < 1e-14
            assert np.max(np.abs(yv)) < 1e-12      # gradient field vanishes
            assert np.allclose(zk, m.A @ x, atol=1e-12)   # Gamma = Z_K

    def test_qubit_hamiltonian_rotation_axis(self):
        basis = build_su_basis(2)
        m = build_model(basis, SIGMA3 / SQRT2)
        dec = decompose_field(m)
        # pushforward of i[., H] must rotate about axis 3
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=3)
            rho = from_coherence_vector(x, basis)
            direct = to_coherence_vector(
                apply_generator(m, rho) + np.eye(2) / 2, basis)
            assert np.allclose(dec.Hmat @ x, direct, atol=1e-12)
        assert abs(dec.Hmat[2, 2]) < 1e-14

    def test_sum_identity_random_models(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for _ in range(20):
                m = random_model(rng, n, n_jumps=int(rng.integers(1, 4)))
                dec = decompose_field(m)
                assert np.max(np.abs(m.A - (dec.Hmat - dec.Vmat + dec.Kmat))) \
                    < 1e-12
                assert np.max(np.abs(
                    m.B - (dec.calV_vec - dec.V_vec) / m.n)) < 1e-12
                for _ in range(5):
                    x = rng.normal(size=n * n - 1)
                    xh, yv, zk = evaluate_component_fields(m, dec, x)
                    assert np.max(np.abs(xh - yv + zk - (m.A @ x + m.B))) \
                        < 1e-12

    def test_nonlinear_terms_present_but_cancel(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 2, n_jumps=1)
        dec = decompose_field(m)
        x = rng.normal(size=3)
        _, yv, _ = evaluate_component_fields(m, dec, x)
        linear_y = dec.Vmat @ x + dec.V_vec / 2
        assert np.max(np.abs(yv - linear_y)) > 1e-6  # genuinely nonlinear

    def test_hamiltonian_part_isospectral(self):
        rng = np.random.default_rng(8)
        eps = 1e-5
        for n in (2, 3):
            m = random_model(rng, n)
            dec = decompose_field(m)
            for _ in range(5):
                x = rng.normal(size=n * n - 1)
                base = np.linalg.eigvalsh(from_coherence_vector(x, m.basis))
                moved = np.linalg.eigvalsh(from_coherence_vector(
                    x + eps * (dec.Hmat @ x), m.basis))
                assert np.max(np.abs(moved - base)) < 1e-8


class TestIntegration:
    def test_phase_damping_analytic_flow(self):
        # Phi_t scales (x1, x2) by exp(-2 gamma t) and fixes x3
        gamma = 1.0
        m = phase_damping_model(gamma)
        rho0 = 0.5 * (np.eye(2) + SIGMA1)
        traj = integrate(m, rho0, t_end=3.0, dt=1e-3)
        expected = np.exp(-2 * gamma * traj.times) / SQRT2
        assert np.max(np.abs(traj.points[:, 0] - expected)) < 1e-10
        assert np.max(np.abs(traj.points[:, 1:])) < 1e-14

    def test_diagonal_states_are_fixed_points(self):
        m = phase_damping_model(0.3)
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        assert np.max(np.abs(apply_generator(m, rho0))) < 1e-14
        traj = integrate(m, rho0, t_end=1.0, dt=1e-2)
        assert np.max(np.abs(traj.points - traj.points[0])) < 1e-14

    def test_off_diagonal_decay_rate(self):
        gamma = 0.5
        m = phase_damping_model(gamma)
        rho0 = 0.5 * (np.eye(2) + SIGMA1)
        traj = integrate(m, rho0, t_end=2.0, dt=1e-3)
        rho_t = from_coherence_vector(traj.points[-1], m.basis)
        # off-diagonal entry decays as exp(-2 gamma t) = exp(-t) here
        fitted = -np.log(rho_t[0, 1].real / 0.5) / 2.0
        assert abs(fitted - 2 * gamma) < 1e-8

    def test_constant_trajectory(self):
        basis = build_su_basis(2)
        m = build_model(basis, np.zeros((2, 2)))
        traj = integrate(m, np.eye(2) / 2 + SIGMA1 / 4, t_end=1.0, dt=1e-2)
        assert np.max(np.abs(traj.points - traj.points[0])) == 0.0

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            m = random_model(rng, n)
            rho0 = random_density(rng, n)
            x0 = to_coherence_vector(rho0, m.basis)
            traj = integrate(m, rho0, t_end=1.0, dt=1e-3)
            size = m.basis.size
            aug = np.zeros((size + 1, size + 1))
            aug[:size, :size] = m.A
            aug[:size, size] = m.B
            for idx in (250, 500, 1000):
                t = traj.times[idx]
                prop = expm(aug * t)
                exact = prop[:size, :size] @ x0 + prop[:size, size]
                assert np.max(np.abs(traj.points[idx] - exact)) < 1e-8

    def test_trace_preserved_exactly(self):
        rng = np.random.default_rng(10)
        m = random_model(rng, 2)
        traj = integrate(m, random_density(rng, 2), t_end=2.0, dt=1e-3)
        assert np.max(np.abs(traj.traces - 1.0)) < 1e-12

    def test_unitary_flow_preserves_spectrum(self):
        rng = np.random.default_rng(11)
        basis = build_su_basis(3)
        m = build_model(basis, random_hermitian(rng, 3))
        rho0 = random_density(rng, 3)
        traj = integrate(m, rho0, t_end=10.0, dt=1e-3)
        drift = np.max(np.abs(traj.spectra - traj.spectra[0]), axis=0)
        assert np.max(drift) < 1e-8

    def test_positivity_under_full_gkls(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            m = random_model(rng, n, n_jumps=2, scale=0.5)
            traj = integrate(m, random_density(rng, n), t_end=5.0, dt=1e-3)
            assert np.min(traj.min_eigenvalues) >= -1e-8

    def test_rank_constant_under_hamiltonian_gradient_flow(self):
        rng = np.random.default_rng(13)
        basis = build_su_basis(3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        h = random_hermitian(rng, 3)
        v = random_hermitian(rng, 3, scale=0.5)
        field = hamiltonian_gradient_field(basis, h, v)
        traj = integrate_coherence_field(
            field, to_coherence_vector(rho0, basis), 2.0, 1e-3, basis)
        assert np.all(traj.ranks == 1)

    def test_jump_flow_changes_rank(self):
        m = phase_damping_model(1.0)
        plus = np.array([1.0, 1.0]) / SQRT2
        traj = integrate(m, np.outer(plus, plus), t_end=1.0, dt=1e-2)
        assert traj.ranks[0] == 1
        assert traj.ranks[-1] == 2

    def test_divergence_reported(self):
        basis = build_su_basis(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak
            with pytest.raises(DivergenceError) as info:
                integrate_coherence_field(lambda x: 100.0 * x + 1e3,
                                          np.ones(3), 50.0, 0.5, basis)
        assert info.value.last_valid_time >= 0.0


class TestPulledBackBracket:
    def test_identity_pullback_at_time_zero(self):
        m = phase_damping_model(1.0)
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.normal(size=3)
            for j in range(3):
                for k in range(3):
                    expected = float(m.basis.c[:, j, k] @ x)
                    assert abs(pulled_back_bracket(m, j, k, 0.0, x)
                               - expected) < 1e-12

    def test_vanishes_without_axis_component(self):
        m = phase_damping_model(0.7)
        x = np.array([0.4, -0.9, 0.0])
        for tau in (0.0, 0.5, 2.0, 10.0):
            assert abs(pulled_back_bracket(m, 0, 1, tau, x)) < 1e-12

    def test_finite_difference_pullback_oracle(self):
        # differentiate the backward flow numerically, no expm involved
        rng = np.random.default_rng(15)
        basis = build_su_basis(2)
        models = [phase_damping_model(0.6),
                  build_model(basis, random_hermitian(rng, 2))]
        tau, dt, h = 0.3, 1e-3, 1e-6
        for m in models:
            x = rng.normal(size=3)

            def flow(y, time, sign):
                _, path = rk4_path(lambda s: sign * (m.A @ s), y, time, dt)
                return path[-1]

            y_star = flow(x, tau, +1.0)
            jac = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                jac[:, i] = (flow(y_star + e, tau, -1.0)
                             - flow(y_star - e, tau, -1.0)) / (2 * h)
            lam = np.tensordot(y_star, basis.c, axes=(0, 0))
            for j in range(3):
                for k in range(3):
                    oracle = float(jac[j] @ lam @ jac[k])
                    assert abs(pulled_back_bracket(m, j, k, tau, x)
                               - oracle) < 1e-6

    def test_phase_damping_asymptotics(self):
        # pairs touching axis 3 stay constant, the (1,2) pair grows as
        # exp(4 gamma tau): relative to it the algebra contracts
        gamma = 0.5
        m = phase_damping_model(gamma)
        x = np.array([0.3, -0.2, 0.8])
        const = pulled_back_bracket(m, 0, 2, 8.0, x)
        assert abs(const - SQRT2 * x[1]) < 1e-10
        v0 = pulled_back_bracket(m, 0, 1, 0.0, x)
        v2 = pulled_back_bracket(m, 0, 1, 2.0, x)
        assert abs(v2 / v0 - np.exp(4 * gamma * 2.0)) < 1e-8

    def test_affine_part_rejected(self):
        rng = np.random.default_rng(16)
        basis = build_su_basis(2)
        lower = np.array([[0, 0], [1, 0]], dtype=complex)
        m = build_model(basis, random_hermitian(rng, 2), [lower])
        with pytest.raises(UnsupportedModelError):
            pulled_back_bracket(m, 0, 1, 1.0, np.zeros(3))
