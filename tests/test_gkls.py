import dataclasses
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dissipgeo import checks, gkls
from dissipgeo.algebra import (build_su_basis, from_coherence_vector,
                               structure_constants, to_coherence_vector)
from dissipgeo.checks import (decomposition_identities, positivity,
                              trace_preservation)
from dissipgeo.cli import EXIT_OK, main
from dissipgeo.gkls import (apply_generator, build_model, decompose_field,
                            evaluate_component_fields, integrate,
                            integrate_coherence_field, phase_damping_model)
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


def split(model):
    return decompose_field(model.basis, model.H, model.V, model.jumps)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestGenerator:
    def test_free_generator_is_zero(self):
        basis = build_su_basis(2)
        m = build_model(basis, np.zeros((2, 2)))
        rho = 0.5 * (np.eye(2) + SIGMA1)
        assert np.max(np.abs(apply_generator(m.H, m.V, m.jumps, rho))) == 0.0

    def test_phase_damping_kills_off_diagonals(self):
        # L(rho) = -2 gamma (|1><1| rho |2><2| + |2><2| rho |1><1|)
        gamma = 0.8
        m = phase_damping_model(gamma)
        rho = 0.5 * (np.eye(2) + SIGMA1)
        expected = np.array([[0, -gamma * 0.5 * 2], [-gamma * 0.5 * 2, 0]])
        out = apply_generator(m.H, m.V, m.jumps, rho)
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_commutator_part_matches_c_contraction(self):
        basis = build_su_basis(2)
        m = build_model(basis, SIGMA3)
        rho = 0.5 * (np.eye(2) + SIGMA1)
        image = to_coherence_vector(
            apply_generator(m.H, m.V, m.jumps, rho) + rho, basis) \
            - to_coherence_vector(rho, basis)
        # same through the c tensor: xdot^j = H_k c^{lk}_j x^l
        h_vec = np.einsum("jab,ba->j", basis.tau, m.H).real
        x = to_coherence_vector(rho, basis)
        c = structure_constants(basis.tau)
        via_c = np.einsum("jlk,k,l->j", c, h_vec, x)
        assert np.allclose(image, via_c, atol=1e-12)
        assert np.allclose(via_c, [0.0, SQRT2 * x[0] * SQRT2, 0.0], atol=1e-12)

    def test_traceless_output(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            m = random_model(rng, n)
            for _ in range(100):
                out = apply_generator(m.H, m.V, m.jumps,
                                      random_density(rng, n))
                assert abs(np.trace(out)) < 1e-10

    def test_dimension_mismatch(self):
        m = phase_damping_model(1.0)
        with pytest.raises(ValueError):
            apply_generator(m.H, m.V, m.jumps, np.eye(3) / 3)

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
                rho = from_coherence_vector(x, m.basis)
                rhs = to_coherence_vector(
                    apply_generator(m.H, m.V, m.jumps, rho) + np.eye(n) / n,
                    m.basis)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_batched_columns_equal_per_element_loop(self):
        # the one-basis-element-at-a-time loop is the reference: same
        # products and sums, so the same bits, and A stays C-contiguous
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for n_jumps in (0, 1, 3):
                m = random_model(rng, n, n_jumps)
                loop = np.empty_like(m.A)
                for l in range(n * n - 1):
                    image = apply_generator(m.H, m.V, m.jumps, m.basis.tau[l])
                    loop[:, l] = np.einsum("jab,ba->j", m.basis.tau,
                                           image).real
                assert np.array_equal(m.A, loop)
                assert m.A.flags.c_contiguous

    def test_runs_never_build_structure_tensors(self, monkeypatch, tmp_path,
                                                 capsys):
        # only the algebra suite's Jacobi check reads c
        def refuse(tau):
            raise AssertionError("structure_constants was called")

        binders = [name for name, module in list(sys.modules.items())
                   if name.split(".")[0] == "dissipgeo"
                   and hasattr(module, "structure_constants")]
        assert {"dissipgeo.algebra", "dissipgeo.checks"} <= set(binders)
        for name in binders:
            monkeypatch.setattr(sys.modules[name], "structure_constants",
                                refuse)
        assert build_su_basis(8).tau.shape == (63, 8, 8)
        assert main(["run", "phase-damping",
                     "--out", str(tmp_path)]) == EXIT_OK
        h = random_hermitian(np.random.default_rng(5), 3)
        pair = np.stack([h.real, h.imag], axis=-1).tolist()
        lower = np.zeros((3, 3, 2))
        lower[1, 0, 0] = lower[2, 1, 0] = 0.5
        cfg = tmp_path / "qutrit.json"
        cfg.write_text(json.dumps({"kind": "gkls", "parameters": {
            "hamiltonian": pair, "jumps": [lower.tolist()],
            "x0": [0.0] * 8, "t_end": 0.5, "dt": 1e-2}}))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert main(["checks", "--filter", "gkls"]) == EXIT_OK

    def test_closed_system_is_homogeneous(self):
        rng = np.random.default_rng(2)
        basis = build_su_basis(3)
        m = build_model(basis, random_hermitian(rng, 3))
        dec = split(m)
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
            apply_generator(m.H, m.V, m.jumps, from_coherence_vector(x, basis))
            + np.eye(2) / 2, basis) for x in xs])
        design = np.hstack([xs, np.ones((40, 1))])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert np.max(np.abs(coef[:3].T - m.A)) < 1e-10
        assert np.max(np.abs(coef[3] - m.B)) < 1e-10
        assert np.max(np.abs(m.B)) > 1e-3


class TestDecomposition:
    def test_phase_damping_is_pure_jump_field(self):
        m = phase_damping_model(1.0)
        dec = split(m)
        assert np.max(np.abs(dec.Hmat)) < 1e-14
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=3)
            xh, yv, zk = evaluate_component_fields(dec, x)
            assert np.max(np.abs(xh)) < 1e-14
            assert np.max(np.abs(yv)) < 1e-12      # gradient field vanishes
            assert np.allclose(zk, m.A @ x, atol=1e-12)   # Gamma = Z_K

    def test_qubit_hamiltonian_rotation_axis(self):
        basis = build_su_basis(2)
        m = build_model(basis, SIGMA3 / SQRT2)
        dec = split(m)
        # pushforward of i[., H] must rotate about axis 3
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=3)
            rho = from_coherence_vector(x, basis)
            direct = to_coherence_vector(
                apply_generator(m.H, m.V, m.jumps, rho) + np.eye(2) / 2, basis)
            assert np.allclose(dec.Hmat @ x, direct, atol=1e-12)
        assert abs(dec.Hmat[2, 2]) < 1e-14

    def test_sum_identity_random_models(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for _ in range(20):
                m = random_model(rng, n, n_jumps=int(rng.integers(1, 4)))
                dec = split(m)
                assert np.max(np.abs(m.A - (dec.Hmat - dec.Vmat + dec.Kmat))) \
                    < 1e-12
                assert np.max(np.abs(
                    m.B - (dec.calV_vec - dec.V_vec) / m.n)) < 1e-12
                for _ in range(5):
                    x = rng.normal(size=n * n - 1)
                    xh, yv, zk = evaluate_component_fields(dec, x)
                    assert np.max(np.abs(xh - yv + zk - (m.A @ x + m.B))) \
                        < 1e-12

    @pytest.mark.parametrize("gamma", [1.0, 1e4])
    def test_perturbed_decomposition_fails(self, gamma, monkeypatch):
        # the residuals are relative to max(1, max|A|), so a relative
        # error of 1e-9 in Kmat fails at any rate
        def perturbed(*args):
            dec = decompose_field(*args)
            return dataclasses.replace(dec, Kmat=dec.Kmat * (1.0 + 1e-9))

        monkeypatch.setattr(checks, "decompose_field", perturbed)
        results = decomposition_identities(
            [(phase_damping_model(gamma), [np.array([0.3, -0.2, 0.4])])])
        assert [r.passed for r in results] == [False, False]

    def test_nonlinear_terms_present_but_cancel(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 2, n_jumps=1)
        dec = split(m)
        x = rng.normal(size=3)
        _, yv, _ = evaluate_component_fields(dec, x)
        linear_y = dec.Vmat @ x + dec.V_vec / 2
        assert np.max(np.abs(yv - linear_y)) > 1e-6  # genuinely nonlinear

    def test_hamiltonian_part_isospectral(self):
        rng = np.random.default_rng(8)
        eps = 1e-5
        for n in (2, 3):
            m = random_model(rng, n)
            dec = split(m)
            for _ in range(5):
                x = rng.normal(size=n * n - 1)
                base = np.linalg.eigvalsh(from_coherence_vector(x, m.basis))
                moved = np.linalg.eigvalsh(from_coherence_vector(
                    x + eps * (dec.Hmat @ x), m.basis))
                assert np.max(np.abs(moved - base)) < 1e-8


BATCHES = [(1,), (7,), (2, 3)]


def random_stack(shape, draw):
    rows = np.stack([draw() for _ in range(int(np.prod(shape)))])
    return rows.reshape(shape + rows.shape[1:])


class TestStacks:
    """Each row of a stacked call against the call on that row alone:
    equal bits where each row runs the same matmul kernel, within 4 eps
    of the row's scale for the einsums of the split, whose loops may
    differ with the stride of a stack."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", BATCHES)
    def test_generator_rows(self, n, shape):
        rng = np.random.default_rng(n)
        m = random_model(rng, n)
        rhos = random_stack(shape, lambda: random_density(rng, n))
        out = apply_generator(m.H, m.V, m.jumps, rhos)
        assert out.shape == shape + (n, n)
        for idx in np.ndindex(shape):
            assert np.array_equal(
                out[idx], apply_generator(m.H, m.V, m.jumps, rhos[idx]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", BATCHES)
    def test_split_rows(self, n, shape):
        rng = np.random.default_rng(10 + n)
        basis = build_su_basis(n)
        hs = random_stack(shape, lambda: random_hermitian(rng, n))
        vs = random_stack(shape, lambda: random_hermitian(rng, n))
        dec = decompose_field(basis, hs, vs)
        eps = np.finfo(float).eps
        for idx in np.ndindex(shape):
            ref = decompose_field(basis, hs[idx], vs[idx])
            for name in ("tr_v", "Hmat", "Vmat", "V_vec"):
                row, want = getattr(dec, name)[idx], getattr(ref, name)
                assert np.shape(row) == np.shape(want)
                assert np.max(np.abs(row - want)) \
                    <= 4 * eps * max(1.0, np.max(np.abs(want)))
            assert np.array_equal(dec.Kmat, ref.Kmat)
            assert np.array_equal(dec.calV_vec, ref.calV_vec)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", BATCHES)
    def test_component_field_rows(self, n, shape):
        # the axes of a split and of the points broadcast: a stacked split
        # at stacked points and at one point, one split at stacked points
        rng = np.random.default_rng(20 + n)
        m = random_model(rng, n)
        stacked = decompose_field(
            m.basis, random_stack(shape, lambda: random_hermitian(rng, n)),
            random_stack(shape, lambda: random_hermitian(rng, n)))
        points = rng.normal(size=shape + (m.basis.size,))
        one = points[(0,) * len(shape)]
        calls = [(stacked, points), (stacked, one), (split(m), points)]
        for dec, x in calls:
            fields = evaluate_component_fields(dec, x)
            for idx in np.ndindex(shape):
                row = dataclasses.replace(stacked, **{
                    name: getattr(stacked, name)[idx]
                    for name in ("tr_v", "Hmat", "Vmat", "V_vec")}) \
                    if dec is stacked else dec
                x_row = x[idx] if x is points else x
                for part, ref in zip(fields,
                                     evaluate_component_fields(row, x_row)):
                    assert part.shape == shape + (m.basis.size,)
                    assert np.array_equal(part[idx], ref)

    def test_shapes_that_do_not_fit_raise(self):
        basis = build_su_basis(3)
        m = random_model(np.random.default_rng(1), 3)
        h = np.zeros((3, 3), dtype=complex)
        # (3, 1) would broadcast in the einsums of the split, and matmul
        # would take a (3,) rho as a vector in apply_generator
        for bad in (np.zeros((4, 3, 4)), np.zeros((2, 2, 2)), np.zeros(3),
                    np.zeros((3, 1))):
            with pytest.raises(ValueError):
                apply_generator(m.H, m.V, m.jumps, bad)
            with pytest.raises(ValueError):
                decompose_field(basis, bad, h)
            with pytest.raises(ValueError):
                decompose_field(basis, h, bad)
        dec = decompose_field(basis, np.stack([h, h]), h)
        for bad in (np.zeros((2, 9)), np.zeros((8, 1)), np.zeros(3)):
            with pytest.raises(ValueError):
                evaluate_component_fields(dec, bad)


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
        assert np.max(np.abs(apply_generator(m.H, m.V, m.jumps, rho0))) < 1e-14
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
        dec = decompose_field(basis, h, v)
        traj = integrate_coherence_field(
            lambda x: np.subtract(*evaluate_component_fields(dec, x)[:2]),
            to_coherence_vector(rho0, basis), 2.0, 1e-3, basis)
        assert np.all(traj.ranks == 1)

    def test_qubit_spectra_hold_to_lapack(self):
        # 1/2 -+ |x|/sqrt 2 against eigvalsh of xi at x = 0, on the Bloch
        # sphere (|x| = 1/sqrt 2), on single axes, and inside and outside
        # the ball up to |x| = 1e3
        rng = np.random.default_rng(29)
        basis = build_su_basis(2)
        axes = np.vstack([np.eye(3), -np.eye(3)])
        radii = np.concatenate([np.full(10, 1 / SQRT2),
                                rng.uniform(0, 1 / SQRT2, 10),
                                np.logspace(-3, 3, 20)])
        directions = rng.normal(size=(radii.size, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        points = np.vstack([np.zeros(3), axes / SQRT2, axes * 1e-5,
                            axes * 3.0, axes * 1e3,
                            directions * radii[:, None]])
        traj = gkls._trajectory(basis, np.arange(len(points)), points)
        ref = np.linalg.eigvalsh(from_coherence_vector(points, basis))
        eps = np.finfo(float).eps
        tol = 4 * eps * np.maximum(1, np.linalg.norm(points, axis=1))
        assert np.all(np.abs(traj.spectra - ref) <= tol[:, None])
        assert np.array_equal(traj.min_eigenvalues, traj.spectra[:, 0])
        assert np.array_equal(traj.ranks,
                              (ref >= gkls.RANK_EIG_TOL).sum(axis=1))

    def test_jump_flow_changes_rank(self):
        m = phase_damping_model(1.0)
        plus = np.array([1.0, 1.0]) / SQRT2
        traj = integrate(m, np.outer(plus, plus), t_end=1.0, dt=1e-2)
        assert traj.ranks[0] == 1
        assert traj.ranks[-1] == 2

    def test_divergence_is_that_of_the_affine_field(self):
        # a declined run is stepped on A x + B, so the error is rk4_path's
        # bit for bit, with x alone in its partial path
        rng = np.random.default_rng(31)
        m = random_model(rng, 3)
        assert np.max(np.abs(m.B)) > 1e-3
        rho0 = random_density(rng, 3)
        errors = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak
            for route in (
                    lambda: integrate(m, rho0, 1e5, 50.0),
                    lambda: rk4_path(lambda x: m.A @ x + m.B,
                                     to_coherence_vector(rho0, m.basis),
                                     1e5, 50.0)):
                with pytest.raises(DivergenceError) as info:
                    route()
                errors.append(info.value)
        got, ref = errors
        assert got.last_valid_time == ref.last_valid_time
        assert got.partial[1].shape[1] == m.basis.size
        for part, ref_part in zip(got.partial, ref.partial):
            assert np.array_equal(part, ref_part)

    def test_divergence_reported(self):
        basis = build_su_basis(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak
            with pytest.raises(DivergenceError) as info:
                integrate_coherence_field(lambda x: 100.0 * x + 1e3,
                                          np.ones(3), 50.0, 0.5, basis)
        assert info.value.last_valid_time >= 0.0

    def test_fast_route_holds_one_lifted_path(self, monkeypatch):
        # the points are the x columns of the lifted path, not a copy:
        # the peak is that (steps + 1) x (d + 1) array plus the grid, where
        # a copy of x would add (steps + 1) x d floats more
        monkeypatch.setattr(gkls, "_trajectory",
                            lambda basis, times, points: points)
        m = phase_damping_model(1.0)
        steps, d = 10 ** 5, m.basis.size
        rho0 = 0.5 * (np.eye(2) + SIGMA1)
        tracemalloc.start()
        try:
            points = integrate(m, rho0, steps * 1e-3, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert points.shape == (steps + 1, d)
        assert peak < 1.5 * 8 * (steps + 1) * (d + 2)


@st.composite
def gkls_runs(draw):
    """A model with n in {2, 3, 4}, a random H and 0-3 jumps at scale 0.1,
    0.6 or 1.5, and a start: full rank (0.8 Wishart + 0.2 I/n) at dt 1e-2,
    or pure at dt 1e-3."""
    n = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(rng, n, draw(st.integers(0, 3)),
                         draw(st.sampled_from([0.1, 0.6, 1.5])))
    if draw(st.booleans()):
        return model, 0.8 * random_density(rng, n) + 0.2 * np.eye(n) / n, 1e-2
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return model, np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, 1e-3


class TestPathProperties:
    """Trace, positivity and the decomposition identities hold along every
    path to t = 1.  A pure start sits on the boundary of the state space,
    where RK4's truncation error alone can push the smallest eigenvalue
    below zero: at dt 1e-2 and jump scale 1.5 it reached -8.7e-7 (n = 4,
    one jump), beyond the 1e-8 of gkls/positivity, which is right to fail
    it.  So a pure start is stepped at dt 1e-3, where 1,500 draws went no
    lower than -2.2e-11."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(run=gkls_runs())
    def test_invariants_hold_along_the_path(self, run):
        model, rho0, dt = run
        traj = integrate(model, rho0, 1.0, dt)
        checks = [trace_preservation(traj.traces - 1.0),
                  positivity(traj.min_eigenvalues),
                  *decomposition_identities([(model, traj.points[::10])])]
        assert all(c.passed for c in checks), checks
