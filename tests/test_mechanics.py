import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dissipgeo import cli, integrators, mechanics
from dissipgeo.checks import relative
from dissipgeo.contact import ScalarField, contact_hamiltonian_field, darboux_chart
from dissipgeo.integrators import DivergenceError, rk4_path
from dissipgeo.mechanics import (ContactLagrangianSystem, ImplicitSystemError,
                                 analytic_energy_rate,
                                 bivector_span_dimension, contact_el_field,
                                 coupled_damped_oscillators, friction_system,
                                 hamiltonianity_criterion, integrate_contact,
                                 representative_matrix, rlc_coupled,
                                 rlc_single)


def damped_particle(v_coeff, gamma):
    """L = qd^2/2 - v q^2/2 with Caldirola-Kanai h(S) = gamma S."""
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: 0.5 * qd[..., 0] ** 2
        - 0.5 * v_coeff * q[..., 0] ** 2,
        d_l_dq=lambda q, qd: -v_coeff * q,
        d_l_dqd=lambda q, qd: qd,
        hess_qd=lambda q, qd: np.array([[1.0]]),
        mixed_hess=lambda q, qd: np.zeros((1, 1)),
        h=lambda s: gamma * s,
        dh_ds=lambda s: gamma)


def scaled_oscillator(h):
    """L = h (qd^2 - q^2)/2: velocity Hessian h, flow qdd = -q."""
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: 0.5 * h * (qd[..., 0] ** 2 - q[..., 0] ** 2),
        d_l_dq=lambda q, qd: -h * q,
        d_l_dqd=lambda q, qd: h * qd,
        hess_qd=lambda q, qd: np.array([[h]]),
        mixed_hess=lambda q, qd: np.zeros((1, 1)))


def lu_solve_qdd(sys, q, qd, s):
    """qdd from an LU solve of the Caldirola-Kanai Euler-Lagrange system
    assembled from the system's own callbacks."""
    rhs = sys.d_l_dq(q, qd) - sys.mixed_hess(q, qd) @ qd \
        - float(sys.dh_ds(s)) * sys.d_l_dqd(q, qd)
    return np.linalg.solve(sys.hess_qd(q, qd), rhs)


def diagonal_pair(hess):
    """Two decoupled unit oscillators whose velocity Hessian is hess."""
    return ContactLagrangianSystem(
        n=2,
        lagrangian=lambda q, qd: 0.5 * (
            np.einsum("...j,jk,...k->...", qd, hess, qd) - (q * q).sum(-1)),
        d_l_dq=lambda q, qd: -q,
        d_l_dqd=lambda q, qd: np.einsum("jk,...k->...j", hess, qd),
        hess_qd=lambda q, qd: hess,
        mixed_hess=lambda q, qd: np.zeros((2, 2)))


STACKED_SYSTEMS = [
    rlc_single(0.3, 0.7, 0.45), rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2),
    friction_system(0.6), damped_particle(1.7, 0.4),
    diagonal_pair(np.diag([1.0, 2.0]))]
STACKED_IDS = ["rlc-single", "rlc-coupled", "friction", "damped-particle",
               "diagonal-pair"]


def in_domain_states(rng, sys, shape):
    """Flat states (*shape, 2n + 1) with q' > 0, inside friction's chart."""
    n = sys.n
    y = rng.normal(size=shape + (2 * n + 1,))
    y[..., n:2 * n] = rng.uniform(0.1, 2.0, size=shape + (n,))
    return y


def singular_at(sys, marker):
    """sys with a zero velocity Hessian at the states whose q_1 is marker."""
    def hess_qd(q, qd):
        keep = q[..., 0] != marker
        return np.where(keep[..., None, None], sys.hess_qd(q, qd), 0.0)

    return dataclasses.replace(sys, hess_qd=hess_qd)


def spy_on_callbacks(sys, shapes):
    """sys with a domain guard that holds everywhere, each of whose
    callbacks of (q, q') appends the shapes it receives to shapes."""
    def spied(callback):
        def record(q, qd):
            shapes.append((q.shape, qd.shape))
            return callback(q, qd)
        return record

    guarded = dataclasses.replace(
        sys, domain_guard=lambda q, qd: np.isfinite(q[..., 0]))
    return dataclasses.replace(guarded, **{
        name: spied(getattr(guarded, name)) for name in (
            "lagrangian", "d_l_dq", "d_l_dqd", "hess_qd", "mixed_hess",
            "d_f_dqd", "domain_guard")})


def five_point_rate(values, dt):
    """Interior 5-point stencil derivative."""
    v = np.asarray(values)
    return (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12.0 * dt)


class TestRepresentativeMatrix:
    def test_coupled_damped_oscillators_block(self):
        w1, w2, g1, g2, kappa, delta = 1.0, 2.0, 0.3, 0.7, 0.1, 0.2
        sys = coupled_damped_oscillators(w1, w2, g1, g2, kappa, delta)
        g = representative_matrix(*sys)
        expected = np.array([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-w1 ** 2, -kappa, -g1, -delta],
            [-kappa, -w2 ** 2, -delta, -g2]])
        assert np.max(np.abs(g - expected)) < 1e-12

    def test_harmonic_oscillator(self):
        g = representative_matrix(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert np.allclose(g, [[0, 1], [-1, 0]])

    def test_mass_scaling(self):
        g = representative_matrix(2 * np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert np.max(np.abs(g[2:, :2] + 0.5 * np.eye(2))) < 1e-12

    def test_mass_test_is_scale_free(self):
        m, gamma, omega = np.eye(3), np.diag([0.3, 0.5, 0.7]), np.eye(3)
        g = representative_matrix(m, gamma, omega)
        small = representative_matrix(1e-5 * m, 1e-5 * gamma, 1e-5 * omega)
        assert np.max(np.abs(small - g)) < 1e-12

    def test_singular_mass_rejected(self):
        with pytest.raises(ImplicitSystemError):
            representative_matrix(np.diag([1.0, 0.0]), np.zeros((2, 2)),
                                  np.eye(2))

    def test_mass_and_hessian_share_one_threshold(self):
        # l2 = 5e-11 once passed the mass test, and the coupled circuit then
        # stopped on its velocity Hessian, the same matrix; a linear config
        # with that mass, which once ran, now stops on it too
        mass = np.diag([1.0, 5e-11])
        with pytest.raises(ImplicitSystemError):
            representative_matrix(mass, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ImplicitSystemError, match="singular mass"):
            cli.linear_lagrangian(mass.tolist(), np.zeros((2, 2)).tolist(),
                                  mass.tolist(), [1.0, 0.0, 0.0, 0.0],
                                  1.0, 0.01)

    @pytest.mark.parametrize("mass", [
        [[np.nan]], [[1.0, 0.0], [0.0, np.nan]], [[1.0, np.inf], [0.0, 1.0]]])
    def test_non_finite_mass_rejected_without_a_warning(self, mass):
        # the mass test is the velocity Hessian's: det runs under errstate
        mass = np.array(mass)
        n = len(mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImplicitSystemError):
                representative_matrix(mass, np.zeros((n, n)), np.eye(n))


class TestHamiltonianityCriterion:
    def test_damped_system_rejected_by_first_trace(self):
        sys = coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2)
        result = hamiltonianity_criterion(representative_matrix(*sys))
        assert result.verdict == "not-hamiltonian"
        assert abs(result.odd_traces[0] - (-(0.3 + 0.7))) < 1e-12

    def test_undamped_uncoupled_admissible(self):
        # eigenvalues +-i w1, +-i w2: all odd power sums vanish
        sys = coupled_damped_oscillators(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        result = hamiltonianity_criterion(representative_matrix(*sys))
        assert result.verdict == "hamiltonian-admissible"
        assert np.max(np.abs(result.odd_traces)) < 1e-10

    def test_rotation_generator(self):
        result = hamiltonianity_criterion(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert result.verdict == "hamiltonian-admissible"

    def test_equal_frequencies_inconclusive(self):
        sys = coupled_damped_oscillators(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        result = hamiltonianity_criterion(representative_matrix(*sys))
        assert result.verdict == "inconclusive-non-generic"

    def test_skew_times_symmetric_always_passes(self):
        # the "only if" direction: G = Lambda H has traceless odd powers
        rng = np.random.default_rng(0)
        count = 0
        while count < 50:
            raw = rng.normal(size=(4, 4))
            lam = raw - raw.T
            if abs(np.linalg.det(lam)) < 1e-6:
                continue
            sym = rng.normal(size=(4, 4))
            sym = sym + sym.T
            g = lam @ sym
            scale = np.linalg.norm(g, 2)
            result = hamiltonianity_criterion(g)
            bounds = np.array([scale ** (2 * k + 1) for k in range(4)])
            assert np.all(np.abs(result.odd_traces) < 1e-10 * bounds)
            count += 1


class TestBivectorSpan:
    def test_generic_damped_parameters_obstruct_lagrangian(self):
        sys = coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2)
        dim, verdict = bivector_span_dimension(representative_matrix(*sys))
        assert dim == 6
        assert verdict == "no-lagrangian"

    def test_undamped_decoupled_leaves_room(self):
        sys = coupled_damped_oscillators(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        dim, verdict = bivector_span_dimension(representative_matrix(*sys))
        assert dim < 6
        assert verdict == "lagrangian-possible"

    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_each_stack_is_ranked_once(self, damping, monkeypatch):
        sys = coupled_damped_oscillators(1.0, 2.0, damping, 0.7 * damping,
                                         0.1, 0.2 * damping)
        ranked = []
        matrix_rank = np.linalg.matrix_rank

        def recording(stack, tol):
            ranked.append(len(stack))  # stacks only grow, so rows name them
            return matrix_rank(stack, tol=tol)

        monkeypatch.setattr(np.linalg, "matrix_rank", recording)
        bivector_span_dimension(representative_matrix(*sys))
        assert len(ranked) == len(set(ranked)) >= 2

    def test_one_degree_of_freedom_inapplicable(self):
        # the velocity-pair constraint set is empty for n = 1, so the
        # obstruction argument has nothing to say
        g = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dim, verdict = bivector_span_dimension(g)
        assert dim == 0
        assert verdict == "test-inapplicable"

    def test_wrong_block_structure_rejected(self):
        with pytest.raises(ValueError):
            bivector_span_dimension(np.eye(4))


class TestContactEulerLagrange:
    def test_damped_newton_equation(self):
        # L = qd^2/2 - V(q), h = gamma S: qdd = -V' - gamma qd
        v_coeff, gamma = 1.7, 0.4
        sys = damped_particle(v_coeff, gamma)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q, qd, s = rng.normal(size=3)
            _, qdd, sdot = contact_el_field(sys, np.array([q, qd, s]))
            assert abs(qdd - (-v_coeff * q - gamma * qd)) < 1e-12
            lag = 0.5 * qd ** 2 - 0.5 * v_coeff * q ** 2
            assert abs(sdot - (lag - gamma * s)) < 1e-12

    def test_matches_contact_hamiltonian_field_of_negated_energy(self):
        # Legendre check: with p = qd, the contact EL field equals the
        # core solver's field of -(E_L + h) on the Darboux chart
        v_coeff, gamma = 0.9, 0.25
        sys = damped_particle(v_coeff, gamma)
        chart = darboux_chart(1)

        def minus_energy(s):
            return -(0.5 * s[1] ** 2 + 0.5 * v_coeff * s[0] ** 2
                     + gamma * s[2])

        field = ScalarField(
            value=minus_energy,
            gradient=lambda s: -np.array([v_coeff * s[0], s[1], gamma]))
        rng = np.random.default_rng(3)
        for _ in range(5):
            q, p, s = rng.normal(size=3)
            y = np.array([q, p, s])
            vec = contact_hamiltonian_field(chart, field, y)
            assert np.max(np.abs(contact_el_field(sys, y) - vec)) < 1e-10

    def test_single_rlc_equation(self):
        r, l_ind, cap = 0.3, 2.0, 0.5
        sys = rlc_single(r, l_ind, cap)
        rng = np.random.default_rng(4)
        for _ in range(5):
            i, di, s = rng.normal(size=3)
            _, ddi, _ = contact_el_field(sys, np.array([i, di, s]))
            assert abs(l_ind * ddi + r * di + i / cap) < 1e-12

    def test_coupled_rlc_kirchhoff(self):
        l1, l2, c1, c2, r1, r2, rc = 1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2
        sys = rlc_coupled(l1, l2, c1, c2, r1, r2, rc)
        l_mat = np.diag([l1, l2])
        c_mat = np.diag([1 / c1, 1 / c2])
        r_mat = np.array([[r1, rc], [rc, r2]])
        rng = np.random.default_rng(5)
        for _ in range(5):
            i = rng.normal(size=2)
            di = rng.normal(size=2)
            ddi = contact_el_field(sys, np.hstack([i, di, 0.1]))[2:4]
            residual = l_mat @ ddi + r_mat @ di + c_mat @ i
            assert np.max(np.abs(residual)) < 1e-12

    def test_singular_hessian_reports_state(self):
        sys = ContactLagrangianSystem(
            n=1,
            lagrangian=lambda q, qd: qd[..., 0] ** 3 / 6.0,
            d_l_dq=lambda q, qd: np.zeros_like(q),
            d_l_dqd=lambda q, qd: qd ** 2 / 2.0,
            hess_qd=lambda q, qd: qd[..., None],
            mixed_hess=lambda q, qd: np.zeros((1, 1)))
        with pytest.raises(ImplicitSystemError) as info:
            contact_el_field(sys, np.zeros(3))
        assert info.value.state is not None

    @pytest.mark.parametrize("sys", [
        rlc_single(0.3, 0.7, 0.45), friction_system(0.6),
        damped_particle(1.7, 0.4)],
        ids=["rlc-single", "friction", "damped-particle"])
    def test_scalar_route_matches_lu_solve_bit_for_bit(self, sys):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q, s = rng.normal(size=2)
            qd = rng.uniform(0.1, 3.0)  # inside friction's chart q' > 0
            qdd = contact_el_field(sys, np.array([q, qd, s]))[1:2]
            assert np.array_equal(
                qdd, lu_solve_qdd(sys, np.array([q]), np.array([qd]), s))

    def test_hessian_threshold(self):
        # scale-free at n = 1: h = 0 or a non-finite h is singular, and
        # any other h runs
        for h in (0.0, np.inf, np.nan):
            with pytest.raises(ImplicitSystemError) as info:
                contact_el_field(scaled_oscillator(h),
                                 np.array([0.3, 0.2, 0.1]))
            q, qd, s = info.value.state
            assert (q[0], qd[0], s) == (0.3, 0.2, 0.1)
        for h in (1e-300, 5e-11, 2e-10):
            _, qdd, _ = contact_el_field(scaled_oscillator(h),
                                         np.array([0.3, 0.2, 0.1]))
            assert abs(qdd + 0.3) < 1e-15

    def test_hessian_threshold_in_integration(self):
        with pytest.raises(ImplicitSystemError) as info:
            integrate_contact(scaled_oscillator(0.0), ([1.0], [0.0], 0.0),
                              1.0, 1e-2)
        assert info.value.state is not None
        for h in (5e-11, 2e-10):
            traj = integrate_contact(scaled_oscillator(h),
                                     ([1.0], [0.0], 0.0), 1.0, 1e-2)
            assert abs(traj.q[-1, 0] - np.cos(1.0)) < 1e-8

    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 1e5])
    def test_hessian_test_is_scale_free_for_two_dofs(self, scale):
        # H = scale I has condition number 1 at every scale; at 1e-5 its
        # determinant is 1e-10
        y = np.array([0.3, -0.4, 0.2, 0.5, 0.1])
        dy = contact_el_field(diagonal_pair(scale * np.eye(2)), y)
        assert np.max(np.abs(scale * dy[2:4] + y[:2])) < 1e-12
        assert np.array_equal(dy[:2], y[2:4])

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_rank_one_hessian_is_singular(self, scale):
        with pytest.raises(ImplicitSystemError) as info:
            contact_el_field(diagonal_pair(scale * np.ones((2, 2))),
                             np.array([0.3, -0.4, 0.2, 0.5, 0.1]))
        q, qd, s = info.value.state
        assert q.tolist() == [0.3, -0.4] and qd.tolist() == [0.2, 0.5]
        assert s == 0.1

    def test_default_h_is_conservative(self):
        # without h the Caldirola-Kanai force term vanishes and S' = L
        sys = scaled_oscillator(2.0)
        y = np.array([0.3, 0.2, 7.0])
        dy = contact_el_field(sys, y)
        assert dy[1] == -0.3
        assert dy[2] == sys.lagrangian(y[:1], y[1:2])

    @pytest.mark.parametrize("sys", STACKED_SYSTEMS, ids=STACKED_IDS)
    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3), (1000,)])
    def test_stacked_rows_equal_their_one_row_calls(self, sys, shape):
        rng = np.random.default_rng(len(shape) + sys.n)
        y = in_domain_states(rng, sys, shape)
        stack = contact_el_field(sys, y)
        assert stack.shape == y.shape
        for idx in np.ndindex(shape):
            assert np.array_equal(stack[idx], contact_el_field(sys, y[idx]))

    @pytest.mark.parametrize("sys", STACKED_SYSTEMS, ids=STACKED_IDS)
    @pytest.mark.parametrize("shape", [(), (2, 3)])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["2n", "2n+2"])
    def test_a_state_of_the_wrong_length_raises(self, sys, shape, extra):
        y = np.ones(shape + (2 * sys.n + 1 + extra,))
        with pytest.raises(ValueError, match=r"not \(\.\.\., "):
            contact_el_field(sys, y)

    def test_callbacks_take_n_last(self):
        shapes = []
        sys = spy_on_callbacks(
            rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2), shapes)
        n, rng = sys.n, np.random.default_rng(10)

        def received():
            seen = set(shapes)
            shapes.clear()
            assert all(q == qd for q, qd in seen)
            return {q for q, _ in seen}

        contact_el_field(sys, in_domain_states(rng, sys, ()))
        assert received() == {(n,)}
        contact_el_field(sys, in_domain_states(rng, sys, (2, 3)))
        assert received() == {(2, 3, n)}
        # the closed form: the initial guard, G's 2n + 1 states, the guard
        # on rows 1 .. 50, the stage points and the energy of 51 rows
        traj = integrate_contact(sys, ([1.0, -0.5], [0.2, 0.3], 0.1), 0.5,
                                 0.01)
        assert received() == {(n,), (2 * n + 1, n), (50, n), (4, 50, n),
                              (51, n)}
        q, qd, s = traj.q[:3], traj.qd[:3], traj.s[:3]
        assert sys.energy(q, qd).shape == (3,)
        assert analytic_energy_rate(sys, q, qd, s).shape == (3,)
        assert received() == {(3, n)}

    @pytest.mark.parametrize("sys", STACKED_SYSTEMS, ids=STACKED_IDS)
    @pytest.mark.parametrize("shape, rows", [
        ((5,), [(2,)]), ((2, 3), [(1, 0), (0, 2)])])
    def test_a_singular_third_row_reports_its_state(self, sys, shape, rows):
        # rows[-1] is the third row in C order
        rng = np.random.default_rng(9)
        y = in_domain_states(rng, sys, shape)
        for row in rows:
            y[row + (0,)] = 0.25
        with pytest.raises(ImplicitSystemError) as info:
            contact_el_field(singular_at(sys, 0.25), y)
        q, qd, s = info.value.state
        n, third = sys.n, y[rows[-1]]
        assert np.array_equal(q, third[:n]) and np.array_equal(qd, third[n:-1])
        assert s == third[-1]

    @pytest.mark.parametrize("state0", [
        ([0.0, 1.0], [1.0], 0.0), ([0.0], [1.0, 0.0], 0.0),
        ([0.0], [1.0], [0.0]), (0.0, [1.0], 0.0), ([[0.0]], [1.0], 0.0)])
    def test_integrate_contact_checks_state_shapes(self, state0):
        with pytest.raises(ValueError, match="length 1"):
            integrate_contact(friction_system(0.5), state0, 1.0, 1e-2)


class TestIntegration:
    def test_friction_energy_pair(self):
        # E_L = qd + gamma q is conserved, mechanical energy decays at
        # rate -gamma qd^2
        gamma = 0.5
        sys = friction_system(gamma)
        traj = integrate_contact(sys, ([0.0], [1.0], 0.0), 10.0, 1e-3)
        e_l = traj.qd[:, 0] + gamma * traj.q[:, 0]
        assert np.max(np.abs(e_l - e_l[0])) < 1e-8
        assert np.max(np.abs(traj.energy - e_l)) < 1e-12
        rate = five_point_rate(traj.energy_mech, 1e-3)
        qd_mid = traj.qd[2:-2, 0]
        assert np.max(np.abs(rate + gamma * qd_mid ** 2)) < 1e-6

    def test_friction_flow_solves_damped_equation(self):
        gamma = 0.5
        sys = friction_system(gamma)
        traj = integrate_contact(sys, ([0.0], [1.0], 0.0), 10.0, 1e-3)
        exact = np.exp(-gamma * traj.times)
        assert np.max(np.abs(traj.qd[:, 0] - exact)) < 1e-10

    def test_friction_guard_stops_cleanly(self):
        sys = friction_system(5.0)
        traj = integrate_contact(sys, ([0.0], [1.0], 0.0), 10.0, 1e-3)
        assert traj.qd[-1, 0] > 1e-10
        assert traj.times[-1] < 10.0

    def test_single_rlc_matches_closed_form(self):
        r, l_ind, cap = 0.2, 1.0, 1.0
        sys = rlc_single(r, l_ind, cap)
        i0, di0 = 1.0, 0.0
        traj = integrate_contact(sys, ([i0], [di0], 0.0), 10.0, 1e-3)
        decay = r / (2.0 * l_ind)
        w_d = np.sqrt(1.0 / (l_ind * cap) - decay ** 2)
        t = traj.times
        exact = np.exp(-decay * t) * (i0 * np.cos(w_d * t)
                                      + (di0 + decay * i0) / w_d
                                      * np.sin(w_d * t))
        assert np.max(np.abs(traj.q[:, 0] - exact)) < 1e-6

    def test_lossless_circuit_conserves_energy(self):
        sys = rlc_single(0.0, 1.0, 1.0)
        traj = integrate_contact(sys, ([1.0], [0.0], 0.0), 10.0, 1e-3)
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-8

    def test_conservative_rayleigh_keeps_energy(self):
        sys = rlc_coupled(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        traj = integrate_contact(sys, ([1.0, -0.5], [0.0, 0.2], 0.0),
                                 5.0, 1e-3)
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-8

    def test_coupled_rlc_matches_linear_oracle(self):
        l1, l2, c1, c2, r1, r2, rc = 1.0, 1.0, 1.0, 0.5, 0.5, 0.3, 0.2
        sys = rlc_coupled(l1, l2, c1, c2, r1, r2, rc)
        i0 = np.array([1.0, 0.0])
        di0 = np.array([0.0, 0.0])
        traj = integrate_contact(sys, (i0, di0, 0.0), 10.0, 1e-3)
        l_mat = np.diag([l1, l2])
        g = np.zeros((4, 4))
        g[:2, 2:] = np.eye(2)
        g[2:, :2] = -np.linalg.inv(l_mat) @ np.diag([1 / c1, 1 / c2])
        g[2:, 2:] = -np.linalg.inv(l_mat) @ np.array([[r1, rc], [rc, r2]])
        state0 = np.concatenate([i0, di0])
        for idx in (2500, 5000, 10000):
            exact = expm(g * traj.times[idx]) @ state0
            assert np.max(np.abs(traj.q[idx] - exact[:2])) < 1e-6

    def test_normal_mode_frequencies(self):
        # undamped: eigenvalues of G come in +-i sqrt(eig(L^-1 C)) pairs
        l1, l2, c1, c2 = 1.0, 2.0, 1.0, 0.5
        g = np.zeros((4, 4))
        g[:2, 2:] = np.eye(2)
        l_inv = np.linalg.inv(np.diag([l1, l2]))
        c_mat = np.diag([1 / c1, 1 / c2])
        g[2:, :2] = -l_inv @ c_mat
        freqs = np.sort(np.abs(np.linalg.eigvals(g).imag))[2:]
        expected = np.sort(np.sqrt(np.linalg.eigvals(l_inv @ c_mat).real))
        assert np.max(np.abs(freqs - expected)) < 1e-12
        sys = rlc_coupled(l1, l2, c1, c2, 0.0, 0.0, 0.0)
        traj = integrate_contact(sys, ([1.0, 0.0], [0.0, 0.0], 0.0),
                                 8.0, 1e-3)
        state0 = np.array([1.0, 0.0, 0.0, 0.0])
        exact = expm(g * traj.times[-1]) @ state0
        assert np.max(np.abs(traj.q[-1] - exact[:2])) < 1e-8

    def test_decoupling_as_coupling_vanishes(self):
        sys = rlc_coupled(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
        traj = integrate_contact(sys, ([1.0, 0.0], [0.0, 0.0], 0.0),
                                 5.0, 1e-3)
        assert np.max(np.abs(traj.q[:, 1])) < 1e-12
        assert np.max(np.abs(traj.qd[:, 1])) < 1e-12
        single = rlc_single(0.5, 1.0, 1.0)
        ref = integrate_contact(single, ([1.0], [0.0], 0.0), 5.0, 1e-3)
        assert np.max(np.abs(traj.q[:, 0] - ref.q[:, 0])) < 1e-12

    def test_energy_rate_identity(self):
        dt = 1e-3
        cases = [
            (damped_particle(1.3, 0.6), ([0.7], [0.4], 0.1)),
            (rlc_single(0.4, 1.5, 0.8), ([1.0], [-0.2], 0.0)),
            (rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2),
             ([0.8, -0.3], [0.1, 0.5], 0.0)),
        ]
        for sys, state0 in cases:
            traj = integrate_contact(sys, state0, 4.0, dt)
            measured = five_point_rate(traj.energy, dt)
            analytic = np.array([
                analytic_energy_rate(sys, traj.q[i], traj.qd[i], traj.s[i])
                for i in range(len(traj.times))])[2:-2]
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(measured - analytic)) / scale < 1e-6

    def test_projectable_contact_flow_matches_reduced_dynamics(self):
        # for h linear in S the (q, qd) block closes on itself
        v_coeff, gamma = 1.1, 0.3
        sys = damped_particle(v_coeff, gamma)
        traj = integrate_contact(sys, ([1.0], [0.0], 0.7), 8.0, 1e-3)
        _, reduced = rk4_path(
            lambda y: np.array([y[1], -v_coeff * y[0] - gamma * y[1]]),
            np.array([1.0, 0.0]), 8.0, 1e-3)
        assert np.max(np.abs(traj.q[:, 0] - reduced[:, 0])) < 1e-8
        assert np.max(np.abs(traj.qd[:, 0] - reduced[:, 1])) < 1e-8


BUILT_SYSTEMS = [rlc_single(0.3, 0.7, 0.45),
                 rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2),
                 friction_system(0.6)]
BUILT_IDS = ["rlc-single", "rlc-coupled", "friction"]


def central(f, x, step=1e-5):
    """d f / d x_k by central differences, stacked on a last axis k."""
    return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e)))
                     / (2.0 * step) for e in step * np.eye(len(x))], axis=-1)


def assert_callbacks_differentiate(sys):
    """Each derivative callback of sys against central differences of
    what it differentiates, at 20 random points with q' > 0 (the friction
    chart), to 1e-6 relative to the differences' largest |entry|."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, qd = rng.uniform(-2.0, 2.0, sys.n), rng.uniform(0.5, 2.0, sys.n)
        s = rng.uniform(-2.0, 2.0, 1)
        for name, value, difference in [
                ("d_l_dq", sys.d_l_dq(q, qd),
                 central(lambda x: sys.lagrangian(x, qd), q)),
                ("d_l_dqd", sys.d_l_dqd(q, qd),
                 central(lambda x: sys.lagrangian(q, x), qd)),
                ("hess_qd", sys.hess_qd(q, qd),
                 central(lambda x: sys.d_l_dqd(q, x), qd)),
                ("mixed_hess", sys.mixed_hess(q, qd),
                 central(lambda x: sys.d_l_dqd(x, qd), q)),
                ("dh_ds", sys.dh_ds(s[0]),
                 central(lambda x: sys.h(x[0]), s)[0])]:
            np.testing.assert_allclose(
                value, difference, rtol=1e-6,
                atol=1e-6 * np.max(np.abs(difference)), err_msg=name)


class TestBuilders:
    def test_rlc_single_validates_parameters(self):
        with pytest.raises(ValueError):
            rlc_single(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            rlc_single(0.1, 1.0, -2.0)
        with pytest.raises(ValueError):
            rlc_single(-0.1, 1.0, 1.0)

    def test_rlc_coupled_validates_parameters(self):
        with pytest.raises(ValueError):
            rlc_coupled(1.0, -1.0, 1.0, 1.0, 0.1, 0.1, 0.0)

    @pytest.mark.parametrize("sys", BUILT_SYSTEMS, ids=BUILT_IDS)
    def test_callbacks_differentiate_the_lagrangian_and_h(self, sys):
        # the closed form, _projected_generator and the declared-projection
        # invariant read these callbacks, not the Lagrangian itself
        assert_callbacks_differentiate(sys)

    @pytest.mark.parametrize("sys", BUILT_SYSTEMS, ids=BUILT_IDS)
    def test_a_doubled_velocity_hessian_fails_the_callback_test(self, sys):
        doubled = dataclasses.replace(
            sys, hess_qd=lambda q, qd: 2.0 * np.asarray(sys.hess_qd(q, qd)))
        with pytest.raises(AssertionError, match="hess_qd"):
            assert_callbacks_differentiate(doubled)


def generic(sys):
    """The same system on the rk4_path route."""
    return dataclasses.replace(sys, linear_projection=False)


def run_both(sys, state0, t_end, dt):
    """The closed-form and the generic outcome: a trajectory or the
    error raised."""
    outcomes = []
    for route in (sys, generic(sys)):
        try:
            outcomes.append(integrate_contact(route, state0, t_end, dt))
        except (DivergenceError, ImplicitSystemError) as exc:
            outcomes.append(exc)
    return outcomes


def spy_rk4_path(monkeypatch):
    """The list of fields rk4_path is handed, filled by a spy on its
    binding in integrators and in mechanics."""
    calls = []

    def spy(f, *args, **kwargs):
        calls.append(getattr(f, "func", f))
        return rk4_path(f, *args, **kwargs)

    for module in (integrators, mechanics):
        monkeypatch.setattr(module, "rk4_path", spy, raising=False)
    return calls


def assert_same_path(closed, oracle, rtol=1e-12):
    """Same rows and stop flag, and every array within rtol of the
    oracle's largest entry."""
    assert closed.stopped_early == oracle.stopped_early
    for name in ("times", "q", "qd", "s", "energy", "energy_mech"):
        a, b = getattr(closed, name), getattr(oracle, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), name


@st.composite
def projectable_runs(draw):
    """A builder's system, a state in its domain and a whole-step horizon
    on which RK4 is stable."""
    kind = draw(st.sampled_from(["single", "coupled", "friction"]))
    positive = st.floats(0.2, 5.0)
    resistance = st.floats(0.0, 3.0)
    state = st.floats(-2.0, 2.0)
    if kind == "single":
        sys = rlc_single(draw(resistance), draw(positive), draw(positive))
    elif kind == "coupled":
        sys = rlc_coupled(*(draw(positive) for _ in range(4)),
                          draw(resistance), draw(resistance),
                          draw(st.floats(-1.0, 1.0)))
    else:
        sys = friction_system(draw(resistance))
    velocity = st.floats(0.1, 2.0) if kind == "friction" else state
    state0 = ([draw(state) for _ in range(sys.n)],
              [draw(velocity) for _ in range(sys.n)], draw(state))
    dt = draw(st.floats(1e-3, 0.05))
    return sys, state0, draw(st.integers(1, 300)) * dt, dt


def steps_of(sys, state0, steps, dt=0.01):
    return sys, state0, steps * dt, dt


class TestClosedForm:
    # S is filled in blocks of CHECK_ROWS = 64 rows: the examples end on
    # both sides of the first and second block edges, friction with r = 0
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(run=projectable_runs())
    @example(run=steps_of(rlc_single(0.4, 1.2, 0.9), ([1.0], [0.0], 0.2), 63))
    @example(run=steps_of(rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2),
                          ([1.0, -0.5], [0.0, 0.3], 0.1), 64))
    @example(run=steps_of(friction_system(0.5), ([0.0], [1.0], 0.0), 65))
    @example(run=steps_of(rlc_single(0.2, 1.0, 1.0), ([1.0], [0.5], 0.0),
                          128))
    @example(run=steps_of(friction_system(0.3), ([0.2], [0.8], 0.4), 129))
    def test_matches_generic_route(self, run):
        closed, oracle = run_both(*run)
        assert_same_path(closed, oracle)

    def test_friction_guard_stops_at_the_same_row(self):
        closed, oracle = run_both(friction_system(0.5), ([0.0], [1.0], 0.0),
                                  60.0, 1e-3)
        assert len(closed.times) == len(oracle.times) == 46052
        assert closed.stopped_early
        assert_same_path(closed, oracle)

    @pytest.mark.parametrize("sys", [
        rlc_single(0.2, 1.0, 1.0),
        rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2)],
        ids=["single", "coupled"])
    def test_unstable_step_diverges_alike(self, sys, monkeypatch):
        n = sys.n
        calls = spy_rk4_path(monkeypatch)
        closed, oracle = run_both(sys, ([1.0] * n, [0.0] * n, 0.0),
                                  2000.0, 10.0)
        assert isinstance(closed, DivergenceError)
        assert isinstance(oracle, DivergenceError)
        # the diverging z path declines the closed form, and each route
        # steps rk4_path once, on contact_el_field (never first on G z)
        assert calls == [contact_el_field, contact_el_field]
        assert closed.partial[0][-1] == oracle.partial[0][-1]
        for part, ref_part in zip(closed.partial, oracle.partial):
            assert np.array_equal(part, ref_part)

    def test_singular_stage_hessian_hands_off_to_rk4_path(self, monkeypatch):
        # friction whose velocity Hessian is 0 below q' = 0.5: the (q, q')
        # law stays linear, and q' = exp(-t / 2) crosses 0.5 at t = ln 4
        sys = dataclasses.replace(
            friction_system(0.5),
            hess_qd=lambda q, qd: np.where(qd < 0.5, 0.0, 1.0 / qd)[..., None])
        calls = spy_rk4_path(monkeypatch)
        closed, oracle = run_both(sys, ([0.0], [1.0], 0.0), 3.0, 1e-3)
        assert calls == [contact_el_field, contact_el_field]
        assert isinstance(closed, ImplicitSystemError)
        assert isinstance(oracle, ImplicitSystemError)
        (q, qd, s), (q_ref, qd_ref, s_ref) = closed.state, oracle.state
        assert np.array_equal(q, q_ref) and np.array_equal(qd, qd_ref)
        assert s == s_ref and 0.49 < qd[0] < 0.5

    def test_generator_comes_from_the_callbacks(self, monkeypatch):
        # flipping dL/dq breaks Kirchhoff's law: the closed form follows
        # the flipped callbacks, and the oracle built from L, R and 1/C
        # tells them apart
        def flipped(resistance, inductance, capacitance):
            sys = rlc_single(resistance, inductance, capacitance)
            return dataclasses.replace(
                sys, d_l_dq=lambda q, qd: -sys.d_l_dq(q, qd))

        closed, oracle = run_both(flipped(0.2, 1.0, 1.0),
                                  ([1.0], [0.0], 0.0), 3.0, 1e-3)
        assert_same_path(closed, oracle)
        monkeypatch.setattr(cli, "rlc_single", flipped)
        _, _, invariants, _ = cli.run_circuit(
            "single", [1.0], [0.0], 3.0, 1e-3, resistance=0.2,
            inductance=1.0, capacitance=1.0)
        checks = {inv.name: inv for inv in invariants}
        assert not checks["circuit/linear-oracle"].passed

    @pytest.mark.parametrize("sys", [
        rlc_single(0.3, 0.7, 0.45), friction_system(0.6),
        rlc_coupled(1.0, 2.0, 1.0, 0.5, 0.4, 0.6, 0.2),
        damped_particle(1.7, 0.4), diagonal_pair(np.diag([1.0, 2.0]))],
        ids=["rlc-single", "friction", "rlc-coupled", "damped-particle",
             "diagonal-pair"])
    def test_energy_and_rate_are_batched(self, sys):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(3, 4, sys.n))
        qd = rng.uniform(0.1, 2.0, size=(3, 4, sys.n))
        s = rng.normal(size=(3, 4))
        energy = sys.energy(q, qd)
        rate = analytic_energy_rate(sys, q, qd, s)
        assert energy.shape == rate.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            point = q[idx], qd[idx]
            assert np.isclose(energy[idx], sys.energy(*point),
                              rtol=1e-14, atol=0.0)
            assert np.isclose(rate[idx],
                              analytic_energy_rate(sys, *point, s[idx]),
                              rtol=1e-14, atol=0.0)


# E_c = E_L + h(S) obeys dE_c/dt = -h'(S) E_c for either dissipation rule,
# so with h = h(0) + r S it is E_c(0) exp(-r t): an exact oracle for the S
# column, which the (q, q') oracles never read
DISSIPATED_RUNS = {
    "rlc-single": (rlc_single(0.2, 1.0, 1.0), ([1.0], [0.0], 0.0)),
    "rlc-single-lossier": (rlc_single(0.4, 1.2, 0.9), ([1.0], [0.0], 0.0)),
    "rlc-coupled": (rlc_coupled(1.0, 1.0, 1.0, 0.5, 0.5, 0.3, 0.2),
                    ([1.0, 0.0], [0.0, 0.0], 0.0)),
}


def dissipated_energy_residual(sys, state0):
    traj = integrate_contact(sys, state0, 10.0, 1e-3)
    e_c = traj.energy + sys.h(traj.s)
    decay = e_c[0] * np.exp(-float(sys.dh_ds(0.0)) * traj.times)
    return relative(e_c - decay, e_c)


@pytest.mark.parametrize("name", sorted(DISSIPATED_RUNS))
def test_contact_energy_decays_exactly(name):
    assert dissipated_energy_residual(*DISSIPATED_RUNS[name]) < 1e-10


_S_STEP = mechanics._s_step


def s_step_ignoring_r(phi, s, r, dt):
    return _S_STEP(phi, s, 0.0, dt)


@pytest.mark.parametrize("name", sorted(DISSIPATED_RUNS))
@pytest.mark.parametrize("attr, wrong", [
    ("_s_step", s_step_ignoring_r), ("_STAGE_C", (0.5, 0.5, 0.9))],
    ids=["s-step-ignores-r", "stage-c"])
def test_contact_energy_oracle_sees_a_wrong_s_step(name, attr, wrong,
                                                   monkeypatch):
    monkeypatch.setattr(mechanics, attr, wrong)
    assert dissipated_energy_residual(*DISSIPATED_RUNS[name]) >= 1e-10
