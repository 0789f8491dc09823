import warnings

import numpy as np
import pytest

from dissipgeo.algebra import build_su_basis
from dissipgeo.gkls import build_model, phase_damping_model
from dissipgeo.integrators import DivergenceError, rk4_affine_path, rk4_path
from dissipgeo.mechanics import (coupled_damped_oscillators,
                                 representative_matrix)


def random_jump_model(rng, n, n_jumps=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    jumps = [0.7 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
             for _ in range(n_jumps)]
    return build_model(build_su_basis(n), (a + a.conj().T) / 2, jumps)


class TestAffinePath:
    def test_matches_rk4_path_with_affine_part(self):
        rng = np.random.default_rng(21)
        m = random_jump_model(rng, 3)
        assert np.max(np.abs(m.B)) > 1e-3
        x0 = 0.1 * rng.normal(size=m.basis.size)
        t_ref, x_ref = rk4_path(lambda x: m.A @ x + m.B, x0, 2.0, 1e-2)
        times, points = rk4_affine_path(m.A, m.B, x0, 2.0, 1e-2)
        assert np.array_equal(times, t_ref)
        assert np.max(np.abs(points - x_ref)) <= 1e-12

    def test_matches_rk4_path_without_affine_part(self):
        g = representative_matrix(
            *coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2))
        y0 = np.array([1.0, -0.5, 0.2, 0.0])
        t_ref, y_ref = rk4_path(lambda y: g @ y, y0, 10.0, 1e-3)
        times, states = rk4_affine_path(g, None, y0, 10.0, 1e-3)
        assert np.array_equal(times, t_ref)
        assert np.max(np.abs(states - y_ref)) <= 1e-12

    def test_divergence_matches_rk4_path(self):
        m = phase_damping_model(1.0)
        x0 = np.array([0.7, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may leak
            with pytest.raises(DivergenceError) as ref:
                rk4_path(lambda x: m.A @ x + m.B, x0, 1e6, 1e4)
            with pytest.raises(DivergenceError) as got:
                rk4_affine_path(m.A, m.B, x0, 1e6, 1e4)
        assert got.value.last_valid_time == ref.value.last_valid_time
        for part, ref_part in zip(got.value.partial, ref.value.partial):
            assert len(part) == len(ref_part)
        assert np.all(np.isfinite(got.value.partial[1]))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_rejects_nonpositive_dt(self, dt):
        with pytest.raises(ValueError):
            rk4_affine_path(np.eye(2), None, np.ones(2), 1.0, dt)


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
