"""GKLS dynamics on the coherence-vector chart.

The generator acts on density matrices as

    L(rho) = i[rho, H] + sum_j v_j rho v_j^dag - (1/2){V, rho},

with V = sum_j v_j^dag v_j.  The half-anticommutator prefactor is the
unique choice making Tr L(rho) = 0, which fixes the normalization of the
"2 rho (.) V" damping term once and for all.  Through xi = I/n + x^j tau_j
the generator becomes the affine field dx/dt = A x + B, which splits into
Hamiltonian, Gradient and Jump parts A = Hmat - Vmat + Kmat:

    Hmat[j, l] = Tr(i[tau_l, H] tau_j)        (isospectral rotation)
    Vmat[j, l] = Tr({V, tau_l} tau_j) / 2     (rank-preserving damping)
    Kmat[j, l] = Tr(sum_k v_k tau_l v_k^dag tau_j)
    B[j]       = (Tr(sum_k v_k v_k^dag tau_j) - Tr(V tau_j)) / n.

The Gradient and Jump *vector fields* carry an extra nonlinear term
-e_V(x) x with e_V(x) = Tr V / n + V_j x^j; the two copies cancel in the
sum X_H - Y_V + Z_K, leaving the affine field.  ``decompose_field``
takes any Hermitian V, so with no jumps its split is the jump-free,
rank-preserving field X_H - Y_V, which ``evaluate_component_fields``,
the one home of e_V, Y_V and Z_K, reads off as ``xh - yv``.

``apply_generator(H, V, jumps, rho)``, the one implementation of L, which
``build_affine_field`` pushes through the chart, takes a stack
(..., n, n) of matrices, ``decompose_field`` stacked H and V, and
``evaluate_component_fields`` a stack (..., n^2 - 1) of points, whose
leading axes broadcast against the split's; every row rounds as the
call on that row alone.

``integrate`` steps that field as the linear field of (x, 1), its lift
[[A, B], [0, 0]] (Van Loan, IEEE TAC 23, 1978), by
``integrators.linear_fill``, and keeps the x columns of that path as a
view, with no copy; a run the fill declines is stepped by ``rk4_path``
on A x + B, so a diverging run raises with x alone in its partial path.
The spectra along a path are 1/2 -+ |x|/sqrt 2 for a qubit, else ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import (SuBasis, build_su_basis, from_coherence_vector,
                      is_hermitian, matvec, to_coherence_vector)
from .integrators import fast_path, linear_fill, rk4_path

RANK_EIG_TOL = 1e-9


@dataclass(frozen=True)
class GklsModel:
    """Hamiltonian, jump operators and the derived affine field (A, B)."""

    basis: SuBasis
    H: np.ndarray
    jumps: tuple
    V: np.ndarray
    A: np.ndarray
    B: np.ndarray

    @property
    def n(self):
        return self.basis.n


@dataclass(frozen=True)
class FieldDecomposition:
    """Hamiltonian/Gradient/Jump matrices with A = Hmat - Vmat + Kmat."""

    n: int
    tr_v: np.ndarray       # Tr V, over any leading axes of V
    Hmat: np.ndarray
    Vmat: np.ndarray
    Kmat: np.ndarray
    V_vec: np.ndarray      # Tr(V tau_j)
    calV_vec: np.ndarray   # Tr(sum_k v_k v_k^dag tau_j)


@dataclass(frozen=True)
class Trajectory:
    """Coherence-vector path with per-point spectral diagnostics."""

    times: np.ndarray
    points: np.ndarray
    traces: np.ndarray
    min_eigenvalues: np.ndarray
    spectra: np.ndarray
    ranks: np.ndarray


def _check_matrices(shape, n):
    if shape[-2:] != (n, n):
        raise ValueError(f"shape {shape} does not end in ({n}, {n})")


def apply_generator(H, V, jumps, rho):
    """L(rho) for a density (or any trace-one Hermitian) matrix, or for
    each matrix of a stack (..., n, n) of them, with V = sum_k v_k^dag v_k
    of the jumps v_k."""
    rho = np.asarray(rho, dtype=complex)
    _check_matrices(rho.shape, H.shape[-1])
    out = 1j * (rho @ H - H @ rho)
    for v in jumps:
        out = out + v @ rho @ v.conj().T
    return out - 0.5 * (V @ rho + rho @ V)


def build_affine_field(basis, H, V, jumps):
    """(A, B) of the affine field by pushing L through the chart.

    L is linear in rho, so B is the image of I/n and the columns of A are
    the images of the basis elements.  This route is independent of the
    structure-constant formulas, which the decomposition tests then have
    to reproduce.
    """
    b_mat = apply_generator(H, V, jumps,
                            np.eye(basis.n, dtype=complex) / basis.n)
    B = np.einsum("jab,ba->j", basis.tau, b_mat).real
    cols = apply_generator(H, V, jumps, basis.tau)  # L(tau_l)
    # C order: the layout of A sets the rounding of A @ x
    A = np.ascontiguousarray(np.einsum("jab,lba->jl", basis.tau, cols).real)
    return A, B


def build_model(basis, H, jumps=()):
    """Assemble a GklsModel from H and any number of jump operators."""
    H = np.asarray(H, dtype=complex)
    if not is_hermitian(H):
        raise ValueError("H must be Hermitian")
    if H.shape != (basis.n, basis.n):
        raise ValueError(f"H shape {H.shape} does not match n={basis.n}")
    jumps = tuple(np.asarray(v, dtype=complex) for v in jumps)
    for v in jumps:
        if v.shape != (basis.n, basis.n):
            raise ValueError(f"jump shape {v.shape} does not match n={basis.n}")
    V = np.zeros((basis.n, basis.n), dtype=complex)
    for v in jumps:
        V = V + v.conj().T @ v
    A, B = build_affine_field(basis, H, V, jumps)
    return GklsModel(basis=basis, H=H, jumps=jumps, V=V, A=A, B=B)


def phase_damping_model(gamma):
    """Qubit phase damping: H = 0, single jump sqrt(gamma) sigma_3.

    The affine field is A = diag(-2 gamma, -2 gamma, 0), B = 0: the two
    off-diagonal coherences decay while populations stand still.
    """
    if gamma <= 0:
        raise ValueError(f"need gamma > 0, got {gamma}")
    basis = build_su_basis(2)
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    return build_model(basis, np.zeros((2, 2)), [np.sqrt(gamma) * sigma3])


def decompose_field(basis, H, V, jumps=()):
    """Hamiltonian/Gradient/Jump split of the field of (H, V, jumps).

    Hmat is the pushforward of i[., H]; Vmat is the full half-
    anticommutator matrix with V (its Tr(V)/n multiple of the identity is
    what makes A = Hmat - Vmat + Kmat hold entrywise).  V need not be
    sum_k v_k^dag v_k, nor positive: with no jumps the split is the
    jump-free field X_H - Y_V of any Hermitian H and V.  H and V may be
    stacks (..., n, n) whose leading axes broadcast; Hmat, Vmat, tr_v and
    V_vec then carry them, while the jumps, Kmat and calV_vec are shared.
    """
    tau = basis.tau
    H = np.asarray(H, dtype=complex)
    V = np.asarray(V, dtype=complex)
    _check_matrices(H.shape, basis.n)
    _check_matrices(V.shape, basis.n)
    comm = 1j * (np.einsum("lab,...bc->...lac", tau, H)
                 - np.einsum("...ab,lbc->...lac", H, tau))
    Hmat = np.einsum("...lab,jba->...jl", comm, tau).real
    anti = np.einsum("...ab,lbc->...lac", V, tau) \
        + np.einsum("lab,...bc->...lac", tau, V)
    Vmat = 0.5 * np.einsum("...lab,jba->...jl", anti, tau).real
    ktau = np.zeros_like(tau)
    cal = np.zeros((basis.n, basis.n), dtype=complex)
    for v in jumps:
        ktau = ktau + np.einsum("ab,lbc,cd->lad", v, tau, v.conj().T)
        cal = cal + v @ v.conj().T
    Kmat = np.einsum("lab,jba->jl", ktau, tau).real
    return FieldDecomposition(
        n=basis.n, tr_v=np.trace(V, axis1=-2, axis2=-1).real, Hmat=Hmat,
        Vmat=Vmat, Kmat=Kmat, V_vec=np.einsum("jab,...ba->...j", tau, V).real,
        calV_vec=np.einsum("jab,ba->j", tau, cal).real)


def evaluate_component_fields(dec, x):
    """(X_H, Y_V, Z_K) at a coherence vector x, or at each row of a stack
    (..., n^2 - 1), whose leading axes broadcast against the split's.

    X_H - Y_V + Z_K = A x + B: the -e_V(x) x terms of Y and Z cancel.
    """
    x = np.asarray(x, dtype=float)
    # e_V(x), with a last axis of length 1; V_vec @ x is a dot in any row
    e_v = (dec.tr_v / dec.n)[..., None] + matvec(dec.V_vec[..., None, :], x)
    xh = matvec(dec.Hmat, x)
    yv = matvec(dec.Vmat, x) + dec.V_vec / dec.n - e_v * x
    zk = matvec(dec.Kmat, x) + dec.calV_vec / dec.n - e_v * x
    return xh, yv, zk


def _trajectory(basis, times, points):
    """Attach per-point trace, spectrum and rank diagnostics to a path:
    for n = 2, xi = I/2 + x^j tau_j has the eigenvalues 1/2 -+ |x|/sqrt 2
    (Tr (x^j tau_j)^2 = |x|^2), else the batched ``eigvalsh`` of xi."""
    xi = from_coherence_vector(points, basis)
    if basis.n == 2:
        r = np.sqrt(np.einsum("tj,tj->t", points, points) * 0.5)
        spectra = np.column_stack([0.5 - r, 0.5 + r])
    else:
        spectra = np.linalg.eigvalsh(xi)
    return Trajectory(times=times, points=points,
                      traces=np.einsum("taa->t", xi).real,
                      min_eigenvalues=spectra[:, 0], spectra=spectra,
                      ranks=(spectra >= RANK_EIG_TOL).sum(axis=1))


def integrate_coherence_field(field, x0, t_end, dt, basis):
    """RK4 a coherence-vector field and attach spectral diagnostics."""
    times, points = rk4_path(field, np.asarray(x0, dtype=float), t_end, dt)
    return _trajectory(basis, times, points)


def _lifted_fill(lift, x0, steps, dt):
    """The x columns of ``linear_fill`` on the lift of (x, 1), a view of
    its one states array; None when it declines."""
    lifted = linear_fill(lift, np.append(x0, 1.0), steps, dt)
    return None if lifted is None else lifted[:, :-1]


def integrate(model, rho0, t_end, dt):
    """RK4 trajectory of dx/dt = A x + B from a density matrix."""
    x0 = to_coherence_vector(np.asarray(rho0, dtype=complex), model.basis)
    lift = np.block([[model.A, model.B[:, None]],
                     [np.zeros((1, len(x0) + 1))]])
    times, points = fast_path(partial(_lifted_fill, lift),
                              lambda x: model.A @ x + model.B, x0, t_end, dt,
                              None)
    return _trajectory(model.basis, times, points)
