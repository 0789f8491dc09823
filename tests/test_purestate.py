import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dissipgeo import integrators
from dissipgeo import purestate as ps
from dissipgeo.algebra import build_su_basis
from dissipgeo.gkls import (decompose_field, evaluate_component_fields,
                            integrate_coherence_field)
from dissipgeo.integrators import DivergenceError, rk4_path

SQRT2 = np.sqrt(2.0)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_unit(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


class TestAmbientTensors:
    def test_complex_structure_squares_to_minus_one(self):
        for n in (1, 2, 3):
            _, _, j = ps.ambient_tensors(n)
            assert np.array_equal(j @ j, -np.eye(2 * n))

    def test_antisymmetry_and_metric(self):
        omega, g, _ = ps.ambient_tensors(3)
        assert np.array_equal(omega.T, -omega)
        assert np.array_equal(g, np.eye(6))

    def test_omega_pairs_x_with_y(self):
        omega, _, _ = ps.ambient_tensors(1)
        assert omega[0, 1] == 1.0

    def test_kaehler_compatibility_exact(self):
        for n in (1, 2, 4):
            omega, g, j = ps.ambient_tensors(n)
            assert np.array_equal(j.T @ omega, g)


class TestFields:
    def test_hamiltonian_field_matches_exponential_flow(self):
        # X_a integrates to psi(t) = exp(i a t) psi0
        rng = np.random.default_rng(2)
        for n in (2, 3):
            a = random_hermitian(rng, n)
            psi0 = random_unit(rng, n)
            _, zs = rk4_path(lambda z: ps.z_field(a, np.zeros_like(a), z),
                             ps.to_chart(psi0), 1.0, 1e-3)
            exact = expm(1j * a) @ psi0
            assert np.max(np.abs(ps.from_chart(zs[-1]) - exact)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_chart_field_matches_complex_form(self, n):
        rng = np.random.default_rng(20 + n)
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)

        def reference(z):
            psi = ps.from_chart(z)
            e_b = np.real(np.vdot(psi, b @ psi)) / np.vdot(psi, psi).real
            return ps.to_chart((1j * a + b) @ psi) - e_b * z

        for _ in range(5):
            z = ps.to_chart(rng.uniform(0.5, 2.0) * random_unit(rng, n))
            assert np.max(np.abs(ps.z_field(a, b, z) - reference(z))) < 1e-14
        # a stack of points is a stack of fields
        zs = np.array([ps.to_chart(random_unit(rng, n)) for _ in range(4)])
        assert np.max(np.abs(ps.z_field(a, b, zs)
                             - [reference(z) for z in zs])) < 1e-14
        psi0 = random_unit(rng, n)
        _, zs = projected_route(a, b, psi0, 0.1, 1e-2)
        _, psis, _ = ps.integrate_sphere_flow(a, b, psi0, 0.1, 1e-2)
        assert np.max(np.abs(psis - (zs[:, :n] + 1j * zs[:, n:]))) < 1e-14

    def test_gradient_of_identity_vanishes(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            z = ps.to_chart(random_unit(rng, n))
            y = ps.z_field(np.zeros((n, n)), np.eye(n), z)
            assert np.max(np.abs(y)) < 1e-14

    def test_tangency_on_sphere(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            for _ in range(10):
                z = ps.to_chart(random_unit(rng, n))
                a = random_hermitian(rng, n)
                b = random_hermitian(rng, n)
                zero = np.zeros_like(a)
                for vec in (ps.z_field(a, zero, z), ps.z_field(zero, b, z),
                            ps.phase_field(z)):
                    assert abs(z @ vec) < 1e-12

    def test_hamiltonian_flow_runs_along_parallels(self):
        basis = build_su_basis(2)
        z = ps.to_chart(np.array([1.0, 1.0]) / SQRT2)
        vec = ps.z_field(SIGMA3, np.zeros_like(SIGMA3), z)
        eps = 1e-6
        moved = ps.project_to_bloch(ps.from_chart(z + eps * vec), basis)
        still = ps.project_to_bloch(ps.from_chart(z), basis)
        rate = (moved - still) / eps
        assert abs(rate[2]) < 1e-6          # constant latitude
        assert np.linalg.norm(rate[:2]) > 0.1

    def test_gradient_vanishes_at_critical_points(self):
        z = ps.to_chart(np.array([1.0, 0.0], dtype=complex))
        assert np.max(np.abs(ps.z_field(np.zeros_like(SIGMA3), SIGMA3, z))) \
            < 1e-14


class TestContactForm:
    def test_reeb_identities(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            z = ps.to_chart(random_unit(rng, n))
            eta0, reeb = ps.contact_form(z), ps.phase_field(z)
            assert abs(eta0 @ reeb - 1.0) < 1e-12
            assert abs(eta0 @ z) < 1e-12
            assert np.max(np.abs(ps.pullback_omega0(z) @ reeb)) < 1e-12

    def test_coordinate_value_at_real_point(self):
        z = ps.to_chart(np.array([1.0 + 0.0j]))
        eta0 = ps.contact_form(z)
        assert np.allclose(eta0, [0.0, 1.0], atol=1e-15)


class TestOmega0:
    def test_degenerate_directions(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            z = rng.normal(size=2 * n)
            w = ps.pullback_omega0(z)
            assert np.max(np.abs(w @ z)) < 1e-12
            assert np.max(np.abs(w @ ps.phase_field(z))) < 1e-12

    def test_scale_invariance_as_pulled_back_form(self):
        # omega_0 at lambda psi on scaled vectors equals omega_0 at psi:
        # the matrix itself is (-2)-homogeneous
        rng = np.random.default_rng(7)
        z = rng.normal(size=6)
        u, v = rng.normal(size=6), rng.normal(size=6)
        lam = 2.7
        w1 = ps.pullback_omega0(z)
        w2 = ps.pullback_omega0(lam * z)
        assert abs((lam * u) @ w2 @ (lam * v) - u @ w1 @ v) < 1e-12

    def test_vanishes_for_one_level_system(self):
        z = ps.to_chart(np.array([0.8 + 0.6j]))
        assert np.max(np.abs(ps.pullback_omega0(z))) < 1e-14

    def test_contact_volume_rank(self):
        # [omega_0; eta_0; dr] spans all directions on the sphere chart
        rng = np.random.default_rng(8)
        for n in (2, 3):
            z = ps.to_chart(random_unit(rng, n))
            eta0 = ps.contact_form(z)
            stack = np.vstack([ps.pullback_omega0(z), eta0, z])
            assert np.linalg.matrix_rank(stack, tol=1e-10) == 2 * n


class TestContactResiduals:
    def test_pure_hamiltonian_case(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            a = random_hermitian(rng, n)
            z = ps.to_chart(random_unit(rng, n))
            res = ps.contact_residuals(a, np.zeros((n, n)), z)
            assert max(res) < 1e-9

    def test_identity_gradient_is_trivial(self):
        z = ps.to_chart(random_unit(np.random.default_rng(10), 2))
        res = ps.contact_residuals(np.zeros((2, 2)), np.eye(2), z)
        assert max(res) < 1e-14
        assert np.max(np.abs(ps.z_field(np.zeros((2, 2)), np.eye(2), z))) \
            < 1e-14

    def test_random_three_level_instance(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        z = ps.to_chart(random_unit(rng, 3))
        assert max(ps.contact_residuals(a, b, z)) < 1e-9

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            ps.contact_residuals(np.eye(2), np.eye(2),
                                 ps.to_chart(np.array([1.0, 1.0])))

    def test_non_hermitian_rejected(self):
        z = ps.to_chart(np.array([1.0, 0.0], dtype=complex))
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ps.contact_residuals(bad, np.eye(2), z)


BATCHES = [(1,), (7,), (2, 3)]


def random_stack(shape, draw):
    rows = np.stack([draw() for _ in range(int(np.prod(shape)))])
    return rows.reshape(shape + rows.shape[1:])


class TestStacks:
    """Each row of a stacked call, with k points and k generators, against
    the call on that row alone: equal bits, as every product of a row is
    the one-point matvec or dot of algebra.  One generator at k points
    is one matrix product for all rows, whose kernel may round a row
    differently from the one-point product: within 4 eps of the row's
    scale max(1, max|row|)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", BATCHES)
    def test_rows(self, n, shape):
        rng = np.random.default_rng(30 + n)
        a = random_stack(shape, lambda: random_hermitian(rng, n))
        b = random_stack(shape, lambda: random_hermitian(rng, n))
        z = random_stack(shape, lambda: ps.to_chart(random_unit(rng, n)))
        calls = [
            lambda a, b, z: ps.norm_squared(z),
            lambda a, b, z: ps.phase_field(z),
            lambda a, b, z: ps.contact_form(z),
            lambda a, b, z: ps.pullback_omega0(z),
            lambda a, b, z: ps.f_value(a, z),
            lambda a, b, z: ps.d_f_tilde(a, z),
            lambda a, b, z: ps.alpha_tilde(b, z),
            lambda a, b, z: ps.z_field(a, b, z),
            lambda a, b, z: np.stack(ps.contact_residuals(a, b, z), axis=-1),
        ]
        for call in calls:
            out = call(a, b, z)
            for idx in np.ndindex(shape):
                want = call(a[idx], b[idx], z[idx])
                assert out[idx].shape == np.shape(want)
                assert np.array_equal(out[idx], want)
        one = (0,) * len(shape)
        out = ps.z_field(a[one], b[one], z)
        for idx in np.ndindex(shape):
            want = ps.z_field(a[one], b[one], z[idx])
            assert np.max(np.abs(out[idx] - want)) \
                <= 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(want)))

    def test_sphere_chart_rows(self):
        rng = np.random.default_rng(36)
        for n in (2, 3):
            chart, embed, jacobian = ps.sphere_contact_chart(n)
            u = random_stack((5,), lambda: 0.3 * rng.normal(size=2 * n - 1))
            for call in (embed, jacobian, chart.eta, chart.omega):
                out = call(u)
                for k in range(5):
                    want = call(u[k])
                    assert np.max(np.abs(out[k] - want)) <= 4 * np.finfo(
                        float).eps * max(1.0, np.max(np.abs(want)))

    def test_shapes_that_do_not_fit_raise(self):
        rng = np.random.default_rng(37)
        a = random_stack((3,), lambda: random_hermitian(rng, 2))
        z = random_stack((4,), lambda: ps.to_chart(random_unit(rng, 2)))
        for call in (lambda: ps.z_field(a, a, z), lambda: ps.f_value(a, z),
                     lambda: ps.d_f_tilde(a, z),
                     lambda: ps.contact_residuals(a, a, z),
                     lambda: ps.z_field(a[0], a[0], z[:, :3]),
                     lambda: ps.contact_residuals(
                         np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), z[:2])):
            with pytest.raises(ValueError):
                call()

    def test_a_stack_with_a_non_hermitian_generator_raises(self):
        rng = np.random.default_rng(38)
        a = random_stack((3,), lambda: random_hermitian(rng, 2))
        z = random_stack((3,), lambda: ps.to_chart(random_unit(rng, 2)))
        bad = a.copy()
        bad[2, 0, 1] += 0.5
        assert max(map(np.max, ps.contact_residuals(a, a, z))) < 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            ps.contact_residuals(a, bad, z)


class TestSphereChartPatch:
    @pytest.mark.parametrize("u", [[1.0, 1.0, 0.0], [0.6, 0.8, 0.0],
                                   [float("nan"), 0.0, 0.0],
                                   [[0.1, 0.2, 0.3], [1.0, 1.0, 0.0]]],
                             ids=["outside", "on-the-rim", "nan",
                                  "a-row-of-a-stack"])
    def test_points_outside_the_patch_raise(self, u):
        # embed([1, 1, 0]) once read [nan, 1, 1, 0] with a RuntimeWarning
        chart, embed, jacobian = ps.sphere_contact_chart(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (embed, jacobian, chart.eta, chart.omega):
                with pytest.raises(ValueError, match=r"\|u\| < 1"):
                    call(u)

    def test_points_inside_the_patch_embed_on_the_sphere(self):
        _, embed, _ = ps.sphere_contact_chart(2)
        u = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.6, 0.0, -0.79]])
        assert np.max(np.abs(ps.norm_squared(embed(u)) - 1.0)) < 1e-15
        assert np.array_equal(embed(u)[:, 1:], u)


class TestProjectability:
    def test_phase_field_commutes_with_gradient(self):
        # finite-difference Lie bracket [Gamma, Y0_b] = 0
        rng = np.random.default_rng(12)
        step = 1e-5
        for n in (2, 3):
            b = random_hermitian(rng, n)
            z = ps.to_chart(random_unit(rng, n))

            def jac(field, point):
                out = np.zeros((2 * n, 2 * n))
                for i in range(2 * n):
                    e = np.zeros(2 * n)
                    e[i] = step
                    out[:, i] = (field(point + e) - field(point - e)) \
                        / (2 * step)
                return out

            gamma_f = ps.phase_field
            grad_f = lambda p: ps.z_field(np.zeros_like(b), b, p)
            bracket = jac(grad_f, z) @ gamma_f(z) - jac(gamma_f, z) @ grad_f(z)
            assert np.max(np.abs(bracket)) < 1e-9


class TestSphereFlow:
    def test_matches_normalized_exponential_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for _ in range(3):
                a = random_hermitian(rng, n)
                b = random_hermitian(rng, n)
                psi0 = random_unit(rng, n)
                times, psis, _ = ps.integrate_sphere_flow(a, b, psi0, 2.0,
                                                          1e-3)
                gen = ps.flow_generator(a, b)
                for idx in (500, 2000):
                    exact = expm(gen * times[idx]) @ psi0
                    exact /= np.linalg.norm(exact)
                    assert np.max(np.abs(psis[idx] - exact)) < 1e-7

    def test_generator_matches_field_at_zero(self):
        # d/dt of the normalized exponential flow equals Z at t = 0
        rng = np.random.default_rng(14)
        n = 3
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        psi0 = random_unit(rng, n)
        gen = ps.flow_generator(a, b)
        dt = 1e-6

        def flow(t):
            out = expm(gen * t) @ psi0
            return out / np.linalg.norm(out)

        derivative = (flow(dt) - flow(-dt)) / (2 * dt)
        field = ps.z_field(a, b, ps.to_chart(psi0))
        assert np.max(np.abs(ps.to_chart(derivative) - field)) < 1e-8

    def test_norm_drift_without_renormalization(self):
        rng = np.random.default_rng(15)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2, scale=0.5)
        _, psis, _ = ps.integrate_sphere_flow(a, b, random_unit(rng, 2),
                                              10.0, 1e-3)
        norms = np.linalg.norm(psis, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_every_row_is_a_unit_vector(self):
        # b = 50 sigma3: |exp(t M) z0| grows as e^(50 t), and the path of
        # z' = M z without renormalisation overflows at t = 14.1
        psi0 = np.array([0.6, 0.8])
        times, psis, _ = ps.integrate_sphere_flow(np.zeros((2, 2)),
                                                  50.0 * SIGMA3, psi0, 100.0,
                                                  1e-3)
        assert times[-1] == 100.0 and len(psis) == 100001
        assert np.max(np.abs(np.linalg.norm(psis, axis=1) - 1.0)) < 1e-15
        with pytest.raises(DivergenceError) as err:
            integrators.rk4_linear_path(ps._real_form(50.0 * SIGMA3),
                                        ps.to_chart(psi0), 100.0, 1e-3)
        assert 14.0 < err.value.partial[0][-1] < 14.2

    def test_trace_of_b_does_not_enter_the_step(self):
        # Z does not see b -> b + c I, and neither does the stepped M: a
        # step of M itself at |dt c| = 1 would mis-step the rest by 1.5%
        rng = np.random.default_rng(24)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2, 0.3)
        psi0 = random_unit(rng, 2)
        _, psis, _ = ps.integrate_sphere_flow(a, b, psi0, 1.0, 1e-2)
        _, shifted, _ = ps.integrate_sphere_flow(a, b + 100.0 * np.eye(2),
                                                 psi0, 1.0, 1e-2)
        assert np.max(np.abs(shifted - psis)) < 1e-13
        exact = expm(ps.flow_generator(a, b + 100.0 * np.eye(2))) @ psi0
        assert np.max(np.abs(shifted[-1] - exact / np.linalg.norm(exact))) \
            < 1e-7

    @pytest.mark.parametrize("shift_trace", [False, True])
    def test_divergence_reports_the_last_finite_step(self, shift_trace):
        # |a dt| = 1e79: P overflows, so the fill declines, and the RK4
        # step on M z amplifies by ~1e314: the first step stays finite
        # from a 1e-300 component, the second overflows.  A b = c I leaves
        # M, and so the report, unchanged.
        a = np.diag([0.0, 1e80])
        b = 100.0 * np.eye(2) if shift_trace else np.zeros((2, 2))
        psi0 = np.array([1.0, 1e-300]) / np.linalg.norm([1.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak
            with pytest.raises(DivergenceError) as err:
                ps.integrate_sphere_flow(a, b, psi0, 1.0, 0.1)
        assert err.value.partial[0][-1] == 0.1
        times, states = err.value.partial
        assert len(times) == len(states) == 2

    def test_unitary_flow_is_isometric(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 3)
        psi0 = random_unit(rng, 3)
        _, psis, _ = ps.integrate_sphere_flow(a, np.zeros((3, 3)), psi0,
                                              2.0, 1e-3)
        norms = np.linalg.norm(psis, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        # spectrum of rho_psi is (1, 0, ...) throughout: overlaps with a
        # fixed vector evolve, absolute values of self-overlap stay 1
        overlaps = np.abs(np.einsum("tj,tj->t", psis.conj(), psis))
        assert np.max(np.abs(overlaps - 1.0)) < 1e-10

    def test_gradient_flow_converges_to_top_eigenvector(self):
        basis = build_su_basis(2)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        _, psis, _ = ps.integrate_sphere_flow(np.zeros((2, 2)), SIGMA3, psi0,
                                              20.0, 2e-3)
        bloch = ps.project_to_bloch(psis[-1], basis)
        assert np.max(np.abs(bloch - [0, 0, 1 / SQRT2])) < 1e-6

    def test_qbit_combined_flow_oracle(self):
        psi0 = random_unit(np.random.default_rng(18), 2)
        times, psis, _ = ps.integrate_sphere_flow(SIGMA3, SIGMA3, psi0,
                                                  5.0, 1e-3)
        gen = ps.flow_generator(SIGMA3, SIGMA3)
        exact = expm(gen * times[-1]) @ psi0
        exact /= np.linalg.norm(exact)
        assert np.max(np.abs(psis[-1] - exact)) < 1e-7


def run_or_error(path, *args, **kwargs):
    try:
        return path(*args, **kwargs)
    except DivergenceError as exc:
        return exc


def norm_drift(states):
    return np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0))


@st.composite
def sphere_runs(draw):
    """A random (a, b) at one of three scales, a unit start and a
    whole-step horizon.  At scale 1e4 dt |M| is far beyond RK4's
    stability bound and the step powers overflow."""
    n = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-2, 1.0, 1e4]))
    a = random_hermitian(rng, n, scale)
    b = random_hermitian(rng, n, scale)
    dt = draw(st.floats(1e-3, 5e-2))
    return a, b, random_unit(rng, n), draw(st.integers(1, 400)) * dt, dt


def sphere_route(a, b, psi0, t_end, dt):
    """integrate_sphere_flow's (times, chart states), or its error."""
    try:
        times, psis, _ = ps.integrate_sphere_flow(a, b, psi0, t_end, dt)
    except DivergenceError as exc:
        return exc
    return times, np.concatenate([psis.real, psis.imag], axis=1)


def projected_route(a, b, psi0, t_end, dt):
    """rk4_path on z' = M z, each state divided by its norm, with M the
    real form of i a + b less the trace of b: the route's definition, and
    the route a declined run takes."""
    n = len(psi0)
    m = ps._real_form(1j * a + b - np.trace(b).real / n * np.eye(n))
    return run_or_error(rk4_path, lambda z: m @ z, ps.to_chart(psi0), t_end,
                        dt, post=lambda z: z / np.linalg.norm(z))


class TestProjectedRoute:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(run=sphere_runs())
    def test_matches_generic_route(self, run):
        got, oracle = sphere_route(*run), projected_route(*run)
        if isinstance(oracle, DivergenceError):
            assert isinstance(got, DivergenceError)
            assert got.partial[0][-1] == oracle.partial[0][-1]
            assert len(got.partial[0]) == len(oracle.partial[0])
            assert len(got.partial[1]) == len(oracle.partial[1])
            return
        assert not isinstance(got, DivergenceError)
        (times, states), (times_ref, states_ref) = got, oracle
        assert np.array_equal(times, times_ref)
        assert states.shape == states_ref.shape
        assert np.isfinite(states).all()
        assert norm_drift(states) < 1e-15
        a, b, _, _, dt = run
        if dt * np.linalg.norm(ps._real_form(ps.flow_generator(a, b)),
                               2) > 2.8:
            # an unstable step amplifies rounding differences of the two
            # routes step after step, so only the contract is compared
            return
        assert np.max(np.abs(states - states_ref)) \
            <= 1e-12 * np.max(np.abs(states_ref))

    def test_well_scaled_run_never_takes_the_generic_route(self,
                                                           monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rk4_path was called")

        monkeypatch.setattr(integrators, "rk4_path", refuse)
        rng = np.random.default_rng(23)
        _, psis, _ = ps.integrate_sphere_flow(
            random_hermitian(rng, 3), random_hermitian(rng, 3),
            random_unit(rng, 3), 1.0, 1e-2)
        assert psis.shape == (101, 3)

    def test_declined_fill_hands_the_run_to_rk4_path(self, monkeypatch):
        # |dt M| = 100: P^46 overflows, while one step of rk4_path,
        # renormalised, stays finite
        handed = []

        def spy(*args, **kwargs):
            handed.append(rk4_path(*args, **kwargs))
            return handed[-1]

        monkeypatch.setattr(integrators, "rk4_path", spy)
        run = (np.diag([0.0, 1e3]), np.zeros((2, 2)),
               np.array([0.6, 0.8]), 10.0, 0.1)
        times, states = sphere_route(*run)
        assert len(handed) == 1 and len(times) == 101
        assert np.array_equal(np.column_stack([times, states]),
                              np.column_stack(handed[0]))
        assert np.max(np.abs(states - projected_route(*run)[1])) < 1e-15

    def test_bloch_gradient_drift_matches_generic_route(self):
        # the bloch-gradient builtin over 1e4 steps
        run = (np.zeros((2, 2)), SIGMA3, np.array([0.6, 0.8]), 10.0, 1e-3)
        _, states = sphere_route(*run)
        _, states_ref = projected_route(*run)
        assert np.max(np.abs(states - states_ref)) < 1e-14
        assert norm_drift(states) < 1e-15


class TestBlochProjection:
    def test_excited_state(self):
        basis = build_su_basis(2)
        assert np.allclose(
            ps.project_to_bloch(np.array([1.0, 0.0]), basis),
            [0, 0, 1 / SQRT2], atol=1e-14)

    def test_phase_and_scale_invariance(self):
        rng = np.random.default_rng(19)
        basis = build_su_basis(2)
        psi = random_unit(rng, 2)
        ref = ps.project_to_bloch(psi, basis)
        assert np.max(np.abs(ps.project_to_bloch(
            np.exp(0.7j) * psi, basis) - ref)) < 1e-14
        assert np.max(np.abs(ps.project_to_bloch(3.2 * psi, basis) - ref)) \
            < 1e-14

    def test_plus_state(self):
        basis = build_su_basis(2)
        psi = np.array([1.0, 1.0]) / SQRT2
        assert np.allclose(ps.project_to_bloch(psi, basis),
                           [1 / SQRT2, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(1,), (10,), (2, 3)])
    def test_stacked_rows_equal_their_one_vector_calls(self, n, shape):
        rng = np.random.default_rng(n + len(shape))
        basis = build_su_basis(n)
        psi = rng.normal(size=shape + (n,)) + 1j * rng.normal(
            size=shape + (n,))
        points = ps.project_to_bloch(psi, basis)
        assert points.shape == shape + (basis.size,)
        for idx in np.ndindex(shape):
            assert np.array_equal(points[idx],
                                  ps.project_to_bloch(psi[idx], basis))

    def test_projected_flow_matches_coherence_flow(self):
        # sphere dynamics of (a, b) projects onto the Hamiltonian+Gradient
        # coherence flow with H = -a, V = -2b
        rng = np.random.default_rng(20)
        for n in (2, 3):
            basis = build_su_basis(n)
            a = random_hermitian(rng, n, scale=0.8)
            b = random_hermitian(rng, n, scale=0.4)
            psi0 = random_unit(rng, n)
            times, psis, _ = ps.integrate_sphere_flow(a, b, psi0, 5.0, 1e-3)
            dec = decompose_field(basis, -a, -2.0 * b)
            _, points = integrate_coherence_field(
                lambda x: np.subtract(*evaluate_component_fields(dec, x)[:2]),
                ps.project_to_bloch(psi0, basis), 5.0, 1e-3)
            for idx in (0, 1000, 2500, 5000):
                bloch = ps.project_to_bloch(psis[idx], basis)
                assert np.max(np.abs(bloch - points[idx])) < 1e-6
