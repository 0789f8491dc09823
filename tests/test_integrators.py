import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dissipgeo.algebra import build_su_basis
from dissipgeo.gkls import build_model, phase_damping_model
from dissipgeo.integrators import DivergenceError, rk4_linear_path, rk4_path
from dissipgeo.mechanics import (coupled_damped_oscillators,
                                 representative_matrix)


def random_jump_model(rng, n, n_jumps=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    jumps = [0.7 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
             for _ in range(n_jumps)]
    return build_model(build_su_basis(n), (a + a.conj().T) / 2, jumps)


def lift(a, b):
    """[[a, b], [0, 0]], the linear field of (y, 1) for y' = a y + b."""
    d = len(a)
    g = np.zeros((d + 1, d + 1))
    g[:d, :d], g[:d, d] = a, b
    return g


@st.composite
def stable_affine_runs(draw):
    """A random a of size 1..8 shifted to a spectral abscissa in [-2, 0],
    a random or a zero b, a dt whose one-step matrix P has rho(P) <= 1,
    and a step count on either side of the block edges."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(d, d))
    shift = draw(st.sampled_from([0.0, 0.1, 2.0]))
    a -= (np.max(np.linalg.eigvals(a).real) + shift) * np.eye(d)
    b = rng.normal(size=d) if draw(st.booleans()) else np.zeros(d)
    dt = draw(st.floats(0.01, 1.0)) \
        / max(1e-3, np.max(np.abs(np.linalg.eigvals(a))))
    m = dt * a
    p = np.eye(d) + m + m @ m / 2 + m @ m @ m / 6 + m @ m @ m @ m / 24
    assume(np.max(np.abs(np.linalg.eigvals(p))) <= 1.0)
    steps = draw(st.sampled_from([1, 63, 64, 65, 129, 300]))
    return a, b, rng.normal(size=d), steps * dt, dt


def assert_same_divergence(got, ref):
    """The same DivergenceError bit for bit: a failing linear run is
    stepped by rk4_path itself."""
    assert got.last_valid_time == ref.last_valid_time
    for part, ref_part in zip(got.partial, ref.partial):
        assert np.array_equal(part, ref_part)


def divergence(path, *args):
    """The DivergenceError of path(*args); no numpy warning may leak."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            path(*args)
    return info.value


class TestAffinePath:
    """The linear route rk4_linear_path; an affine field y' = a y + b is
    stepped as the linear field of its lift on (y, 1)."""

    def test_matches_rk4_path_with_affine_part(self):
        rng = np.random.default_rng(21)
        m = random_jump_model(rng, 3)
        assert np.max(np.abs(m.B)) > 1e-3
        x0 = 0.1 * rng.normal(size=m.basis.size)
        t_ref, x_ref = rk4_path(lambda x: m.A @ x + m.B, x0, 2.0, 1e-2)
        times, points = rk4_linear_path(lift(m.A, m.B), np.append(x0, 1.0),
                                        2.0, 1e-2)
        assert np.array_equal(times, t_ref)
        assert np.all(points[:, -1] == 1.0)
        assert np.max(np.abs(points[:, :-1] - x_ref)) <= 1e-12

    def test_matches_rk4_path_without_affine_part(self):
        g = representative_matrix(
            *coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2))
        y0 = np.array([1.0, -0.5, 0.2, 0.0])
        t_ref, y_ref = rk4_path(lambda y: g @ y, y0, 10.0, 1e-3)
        times, states = rk4_linear_path(g, y0, 10.0, 1e-3)
        assert np.array_equal(times, t_ref)
        assert np.max(np.abs(states - y_ref)) <= 1e-12

    def test_divergence_matches_rk4_path(self):
        a = phase_damping_model(1.0).A
        x0 = np.array([0.7, 0.0, 0.0])
        got = divergence(rk4_linear_path, a, x0, 1e6, 1e4)
        assert_same_divergence(
            got, divergence(rk4_path, lambda x: a @ x, x0, 1e6, 1e4))
        assert np.all(np.isfinite(got.partial[1]))

    def test_divergence_in_a_later_block_matches_rk4_path(self):
        # P^64 is finite (rho(P) = 445), so the rows overflow inside the
        # block form, in the second block (row 117), without and with an
        # affine part, and the block hands the run to rk4_path
        a = np.array([[9.0, 1.0], [0.0, 5.0]])
        for g, y0 in ((a, [1.0, 1.0]),
                      (lift(a, [1.0, -2.0]), [1.0, 1.0, 1.0])):
            got = divergence(rk4_linear_path, g, y0, 300.0, 1.0)
            assert got.last_valid_time == 116.0
            assert_same_divergence(got, divergence(
                rk4_path, lambda y: g @ y, y0, 300.0, 1.0))

    def test_overflowing_powers_keep_a_finite_path(self):
        # at gamma = 1e4, dt = 0.01 the coherence entries of P are 6.5e7,
        # so P^40 overflows and inf * 0 in P^64 y is NaN; the block hands
        # the run to rk4_path, where a start without coherences stays finite
        a = phase_damping_model(1e4).A
        x0 = np.array([0.0, 0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, states = rk4_linear_path(a, x0, 1.0, 0.01)
        t_ref, x_ref = rk4_path(lambda x: a @ x, x0, 1.0, 0.01)
        assert np.array_equal(times, t_ref) and len(states) == 101
        assert np.isfinite(states).all()
        assert np.array_equal(states, x_ref)

    def test_overflowing_powers_still_diverge(self):
        a = phase_damping_model(1e4).A
        x0 = np.array([0.7, 0.0, 0.0])
        assert_same_divergence(
            divergence(rk4_linear_path, a, x0, 1.0, 0.01),
            divergence(rk4_path, lambda x: a @ x, x0, 1.0, 0.01))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(run=stable_affine_runs())
    def test_matches_rk4_path_on_stable_fields(self, run):
        a, b, y0, t_end, dt = run
        t_ref, y_ref = rk4_path(lambda y: a @ y + b, y0, t_end, dt)
        times, states = rk4_linear_path(lift(a, b), np.append(y0, 1.0),
                                        t_end, dt)
        assert np.array_equal(times, t_ref)
        assert states.shape == (len(t_ref), len(y0) + 1)
        assert np.all(states[:, -1] == 1.0)
        assert np.max(np.abs(states[:, :-1] - y_ref)) \
            <= 1e-12 * np.max(np.abs(y_ref))

    def test_states_are_c_contiguous_float64(self):
        # the layout of the states sets the rounding downstream, as the
        # layout of A does in gkls.build_affine_field
        rng = np.random.default_rng(22)
        a = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
        for g in (a, lift(a, rng.normal(size=4))):
            times, states = rk4_linear_path(g, rng.normal(size=len(g)),
                                            2.0, 0.01)
            assert states.shape == (len(times), len(g))
            assert states.dtype == np.float64
            assert states.flags.c_contiguous

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_rejects_nonpositive_dt(self, dt):
        with pytest.raises(ValueError):
            rk4_linear_path(np.eye(2), np.ones(2), 1.0, dt)


class TestPostMap:
    def test_post_projects_states_and_ends_the_path(self):
        # y' = y, each new state halved; the path ends before a stored
        # state would fall below 0.5
        def post(y):
            half = 0.5 * y
            return None if half[0] < 0.5 else half

        times, states = rk4_path(lambda y: y, np.array([1.0]), 10.0, 0.5,
                                 post=post)
        factor = 0.5 * (1.0 + 0.5 + 0.5 ** 2 / 2 + 0.5 ** 3 / 6
                        + 0.5 ** 4 / 24)
        assert factor ** 4 < 0.5 < factor ** 3
        assert np.array_equal(times, [0.0, 0.5, 1.0, 1.5])
        assert np.allclose(states[:, 0], factor ** np.arange(4),
                           rtol=1e-14, atol=0.0)
