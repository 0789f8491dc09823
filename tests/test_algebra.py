import numpy as np
import pytest

from dissipgeo.algebra import (BasisCorruptionError, build_su_basis,
                               from_coherence_vector, structure_constants,
                               to_coherence_vector)

SQRT2 = np.sqrt(2.0)
PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_trace_one_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    return a + (1.0 - np.trace(a).real) * np.eye(n) / n


class TestBasisConstruction:
    def test_qubit_basis_is_pauli_over_sqrt2(self):
        basis = build_su_basis(2)
        for tau, sigma in zip(basis.tau, PAULI):
            assert np.allclose(tau, sigma / SQRT2, atol=1e-15)

    def test_traceless(self):
        for n in (2, 3, 4):
            basis = build_su_basis(n)
            assert np.max(np.abs(np.einsum("jaa->j", basis.tau))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gram_matrix_is_identity(self, n):
        basis = build_su_basis(n)
        gram = np.einsum("jab,kba->jk", basis.tau, basis.tau).real
        assert basis.tau.shape[0] == n * n - 1
        assert np.max(np.abs(gram - np.eye(n * n - 1))) < 1e-12

    def test_hermitian(self):
        basis = build_su_basis(3)
        swapped = basis.tau.conj().transpose(0, 2, 1)
        assert np.max(np.abs(basis.tau - swapped)) < 1e-15

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="need integer n >= 2, got 1"):
            build_su_basis(1)
        with pytest.raises(ValueError, match="need integer n >= 2, got 0"):
            build_su_basis(0)


class TestStructureConstants:
    def test_qubit_c_is_minus_sqrt2_epsilon(self):
        # independent oracle: raw traces over literal Pauli matrices
        basis = build_su_basis(2)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        expected = np.zeros((3, 3, 3))
        for l in range(3):
            for j in range(3):
                for k in range(3):
                    comm = (PAULI[j] @ PAULI[k] - PAULI[k] @ PAULI[j]) / 2.0
                    expected[l, j, k] = np.real(
                        1j * np.trace(comm @ PAULI[l] / SQRT2))
        assert np.max(np.abs(expected + SQRT2 * eps.transpose(1, 2, 0))) < 1e-12
        c = structure_constants(basis.tau)
        assert np.max(np.abs(c - expected)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_c_diagonal_slices_vanish(self, n):
        c = structure_constants(build_su_basis(n).tau)
        size = n * n - 1
        for j in range(size):
            assert np.max(np.abs(c[:, j, j])) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_antisymmetry(self, n):
        c = structure_constants(build_su_basis(n).tau)
        assert np.max(np.abs(c + c.transpose(0, 2, 1))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jacobi_identity(self, n):
        c = structure_constants(build_su_basis(n).tau)
        # sum_m (c^{jk}_m c^{ml}_r + cyclic in (j, k, l)) = 0
        def term(a, b):
            return np.einsum("mjk,rml->jklr", a, b)
        total = term(c, c) + term(c, c).transpose(1, 2, 0, 3) \
            + term(c, c).transpose(2, 0, 1, 3)
        assert np.max(np.abs(total)) < 1e-10

    def test_accepts_raw_stack(self):
        # a plain list of literal matrices, not the basis's own array
        c = structure_constants([sigma / SQRT2 for sigma in PAULI])
        assert np.allclose(c, structure_constants(build_su_basis(2).tau))

    def test_corrupted_basis_raises(self):
        for n in (2, 3):
            bad = build_su_basis(n).tau.copy()
            bad[0] = bad[0] + 0.5j * np.eye(n)  # not Hermitian
            # c of this stack is real to rounding: I commutes with every
            # tau_j, so only a check of the basis itself can see it
            t = np.einsum("jab,kbc,lca->jkl", bad, bad, bad)
            c_raw = 1j * (t - t.transpose(1, 0, 2))
            assert np.max(np.abs(c_raw.imag)) < 1e-15
            with pytest.raises(BasisCorruptionError):
                structure_constants(bad)
        # one off-diagonal entry, in a raw list
        bad = build_su_basis(3).tau.copy()
        bad[4, 0, 1] += 0.3
        with pytest.raises(BasisCorruptionError):
            structure_constants(list(bad))


class TestCoherenceChart:
    def test_excited_state(self):
        basis = build_su_basis(2)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(to_coherence_vector(rho, basis),
                           [0, 0, 1 / SQRT2], atol=1e-14)

    def test_maximally_mixed_is_origin(self):
        for n in (2, 3):
            basis = build_su_basis(n)
            x = to_coherence_vector(np.eye(n) / n, basis)
            assert np.max(np.abs(x)) < 1e-14

    def test_plus_state(self):
        basis = build_su_basis(2)
        rho = 0.5 * (np.eye(2) + PAULI[0])
        assert np.allclose(to_coherence_vector(rho, basis),
                           [1 / SQRT2, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip(self, n):
        rng = np.random.default_rng(11 + n)
        basis = build_su_basis(n)
        for _ in range(100):
            a = random_trace_one_hermitian(rng, n)
            back = from_coherence_vector(to_coherence_vector(a, basis), basis)
            assert np.max(np.abs(back - a)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_axis_matches_single_points(self, n):
        basis = build_su_basis(n)
        points = np.random.default_rng(n).normal(size=(2, 5, basis.size))
        batch = from_coherence_vector(points, basis)
        assert batch.shape == (2, 5, n, n)
        for i in range(2):
            for j in range(5):
                assert np.array_equal(
                    batch[i, j], from_coherence_vector(points[i, j], basis))
        with pytest.raises(ValueError):
            from_coherence_vector(points[..., 1:], basis)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 5)])
    def test_real_sums_round_as_the_complex_einsum(self, n, shape):
        # the complex einsum over tau is the oracle: the real sums in j
        # order must give its bits, so no diagnostic moves
        basis = build_su_basis(n)
        rng = np.random.default_rng(100 * n + len(shape))
        for x in (np.zeros(shape + (basis.size,)),
                  rng.normal(size=shape + (basis.size,)),
                  rng.choice([-1e300, 1e300], size=shape + (basis.size,))):
            expected = np.eye(n) / n + np.einsum("...j,jab->...ab", x,
                                                 basis.tau)
            assert np.array_equal(from_coherence_vector(x, basis), expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 5)])
    def test_stacked_rows_equal_their_one_matrix_calls(self, n, shape):
        rng = np.random.default_rng(10 * n + len(shape))
        basis = build_su_basis(n)
        stack = np.array([random_trace_one_hermitian(rng, n)
                          for _ in range(int(np.prod(shape)))]).reshape(
            shape + (n, n))
        x = to_coherence_vector(stack, basis)
        assert x.shape == shape + (basis.size,)
        for idx in np.ndindex(shape):
            assert np.array_equal(x[idx], to_coherence_vector(stack[idx],
                                                              basis))

    def test_a_stack_raises_with_the_trace_of_its_first_bad_row(self):
        basis = build_su_basis(2)
        stack = np.stack([np.eye(2) / 2, np.eye(2) / 2, np.diag([1.5, 0.0]),
                          np.eye(2)])
        with pytest.raises(ValueError,
                           match=r"^expected unit trace, got \(1\.5\+0j\)$"):
            to_coherence_vector(stack, basis)
        with pytest.raises(ValueError, match="does not match"):
            to_coherence_vector(stack[..., :1], basis)

    def test_trace_mismatch_carries_trace(self):
        basis = build_su_basis(2)
        with pytest.raises(ValueError,
                           match=r"^expected unit trace, got \(2\+0j\)$"):
            to_coherence_vector(np.eye(2), basis)
