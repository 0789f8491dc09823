"""Kähler and contact geometry of the punctured Hilbert space.

A state vector psi in C^n is charted by z = (x, y) in R^2n with
psi = x + i y.  On the chart live the constant ambient tensors (omega_H,
g_H, J), the dilation field Delta = (x, y), which is z itself, the phase
field Gamma = (-y, x), the contact form

    eta_0 = (x dy - y dx) / r^2,        r^2 = <psi|psi>,

whose Reeb field on the unit sphere is Gamma, and the projective
two-form omega_0.  For Hermitian generators a, b we use

    X_a  = chart of (i a psi)                (unitary part, psi -> e^{iat} psi)
    Y0_b = chart of (b psi) - e_b(psi) z     (gradient part, e_b = f_b / r^2)

with f_b = <psi|b|psi>.  On the chart Z = X_a + Y0_b is M z - (z^T B z /
z^T z) z, with M and B the real forms [[Re c, -Im c], [Im c, Re c]] of
c = i a + b and c = b: ``z_field``, whose zero-matrix cases are X_a =
z_field(a, 0, z) and Y0_b = z_field(0, b, z).  These fields are tangent
to the sphere, and Z satisfies the generalized contact Hamiltonian
equations

    i_Z dr = 0,   i_Z eta_0 = f_a / r^2,   i_Z omega_0 = d(f_a/r^2) - alpha_b

with alpha_b = J^T d(f_b / r^2).  omega_0 is normalized so the third
identity holds with eta_0 as above (twice the literal imaginary part of
the projective Hermitian form).

Z is homogeneous of degree 1, Z(z) = M z - e(z) z with the scalar
e(z) = z^T B z / z^T z, so its flow is the projection of the linear one:
z(t) = exp(t M) z0 / |exp(t M) z0|, the paper's projected GL(n) action.
``integrate_sphere_flow`` steps it that way, by RK4 on z' = M z with
each row divided by its norm: ``integrators.rk4_linear_path`` with that
renormalisation as its ``post``.  Every row is then on the unit sphere,
and each block of rows of the linear fill starts from a unit vector, so
|exp(t M) z0| cannot overflow.  M drops the trace of b, which Z does not
see (e moves with it) but an RK4 step of M would.  A run the fill
declines (an overflowing step power, at |dt M| of about 35 and more)
goes to ``rk4_path`` on M z with the same renormalisation, the same
method row by row.
"""

from __future__ import annotations

import numpy as np

from .algebra import is_hermitian, matvec, to_coherence_vector, vecdot
from .contact import ContactChart
from .integrators import rk4_linear_path

SPHERE_TOL = 1e-10


def to_chart(psi):
    """Real chart z = (Re psi, Im psi) of a complex vector, along the last
    axis of a stack of them."""
    psi = np.asarray(psi, dtype=complex)
    return np.concatenate([psi.real, psi.imag], axis=-1)


def from_chart(z):
    """psi = x + i y of a chart point z = (x, y), along the last axis."""
    z = np.asarray(z, dtype=float)
    n = z.shape[-1] // 2
    return z[..., :n] + 1j * z[..., n:]


def norm_squared(z):
    z = np.asarray(z, dtype=float)
    return vecdot(z, z)


def ambient_tensors(n):
    """Constant (omega_H, g_H, J) on the 2n-dimensional chart.

    omega_H(d/dx_j, d/dy_k) = delta_jk, g_H is the identity, and J sends
    d/dx_j -> -d/dy_j, d/dy_j -> d/dx_j, so that omega_H(J u, v) = g(u, v).
    """
    eye = np.eye(n)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = eye
    omega[n:, :n] = -eye
    return omega, np.eye(2 * n), omega.copy()


def phase_field(z):
    """Gamma = x d/dy - y d/dx, the generator of psi -> e^{i theta} psi."""
    return to_chart(1j * from_chart(z))


def f_value(a, z):
    """f_a = <psi| a |psi> for Hermitian a."""
    psi = from_chart(z)
    return vecdot(psi.conj(), matvec(np.asarray(a, dtype=complex), psi)).real


def _real_form(c):
    """Real 2n x 2n matrix acting on the chart as c acts on psi."""
    c = np.asarray(c, dtype=complex)
    return np.concatenate([np.concatenate([c.real, -c.imag], axis=-1),
                           np.concatenate([c.imag, c.real], axis=-1)],
                          axis=-2)


def z_field(a, b, z):
    """Z = X_a + Y0_b, the projected GL(n) action generator, at each row
    of a stack z of chart points: M z - (z^T B z / z^T z) z for the real
    forms M of i a + b and B of b, stacked or one product for all rows."""
    z = np.asarray(z, dtype=float)
    bz, mz = (z @ m.T if m.ndim == 2 else matvec(m, z) for m in (
        _real_form(b), _real_form(flow_generator(a, b))))
    return mz - (np.sum(z * bz, -1) / np.sum(z * z, -1))[..., None] * z


def contact_form(z):
    """eta_0 = (x dy - y dx)/r^2 at z; its Reeb field within the sphere
    is ``phase_field``, with eta_0(Gamma) = 1 and i_Gamma omega_0 = 0."""
    return phase_field(z) / norm_squared(z)[..., None]


def pullback_omega0(z):
    """Coordinate matrix of the projective two-form omega_0 at z.

    Degenerate exactly along Delta and Gamma.  Normalized so that
    i_{X_a} omega_0 = d(f_a / r^2).
    """
    z = np.asarray(z, dtype=float)
    r2 = norm_squared(z)[..., None, None]
    omega, _, _ = ambient_tensors(z.shape[-1] // 2)
    outer = z[..., :, None] * phase_field(z)[..., None, :]
    w = omega / r2 - (outer - np.swapaxes(outer, -1, -2)) / r2 ** 2
    return 2.0 * w


def d_f_tilde(a, z):
    """Differential of f_a / r^2."""
    z = np.asarray(z, dtype=float)
    r2 = norm_squared(z)[..., None]
    psi = from_chart(z)
    return 2.0 * to_chart(matvec(np.asarray(a, dtype=complex), psi)) / r2 \
        - 2.0 * f_value(a, z)[..., None] * z / r2 ** 2


def alpha_tilde(b, z):
    """alpha_b = J^T d(f_b / r^2), the gradient part's one-form source;
    J^T (x, y) = (-y, x) is multiplication by i, ``phase_field``."""
    return phase_field(d_f_tilde(b, z))


def _require_hermitian(a, b):
    for mat, name in ((a, "a"), (b, "b")):
        if not is_hermitian(mat):
            raise ValueError(f"generator {name} must be Hermitian")


def contact_residuals(a, b, z):
    """Residuals of the three defining identities of Z = X_a + Y0_b on the
    unit sphere: |dr(Z)|, |eta_0(Z) - f_a/r^2| and the max-norm of
    omega_0 Z - (d(f_a/r^2) - alpha_b), each of shape (...) for unit
    points z (..., 2n) and generators whose leading axes broadcast."""
    z = np.asarray(z, dtype=float)
    r2 = norm_squared(z)
    if (np.abs(r2 - 1.0) > SPHERE_TOL).any():
        raise ValueError(f"point is off the unit sphere: r^2 = {r2!r}")
    _require_hermitian(a, b)
    vec = z_field(a, b, z)
    res1 = np.abs(vecdot(z, vec)) / np.sqrt(r2)
    res2 = np.abs(vecdot(contact_form(z), vec) - f_value(a, z) / r2)
    target = d_f_tilde(a, z) - alpha_tilde(b, z)
    res3 = np.abs(matvec(pullback_omega0(z), vec) - target).max(axis=-1)
    return res1, res2, res3


def project_to_bloch(psi, basis):
    """Coherence vector of rho_psi = |psi><psi| / <psi|psi>, at psi or at
    each row of a stack (..., n); invariant under phase and scale of psi."""
    psi = np.asarray(psi, dtype=complex)
    rho = psi[..., :, None] * psi.conj()[..., None, :]
    return to_coherence_vector(
        rho / vecdot(psi.conj(), psi).real[..., None, None], basis)


def flow_generator(a, b):
    """Linear generator M = i a + b whose normalized exponential flow
    integrates Z = X_a + Y0_b."""
    return 1j * np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)


def integrate_sphere_flow(a, b, psi0, t_end, dt):
    """RK4 the flow of Z = X_a + Y0_b from a unit vector, as the projected
    flow of z' = M z.  Returns (times, psis, stopped_early) with psis
    of shape (steps + 1, n) complex, every row a unit vector, and the
    flag of ``rk4_linear_path``."""
    z0 = to_chart(psi0)
    n = z0.size // 2
    if abs(norm_squared(z0) - 1.0) > SPHERE_TOL:  # an inf norm is not 1
        raise ValueError("initial state must be normalized")
    _require_hermitian(a, b)
    m = _real_form(flow_generator(a, b) - np.trace(b).real / n * np.eye(n))
    times, states, stopped_early = rk4_linear_path(m, z0, t_end, dt,
                                                   post=_unit)
    return times, from_chart(states), stopped_early


def _unit(z):
    """z over its norm, row by row; the largest |entry| is divided out
    first, so that no square overflows."""
    z = z / np.max(np.abs(z), axis=-1, keepdims=True)
    return z / np.sqrt(np.sum(z * z, axis=-1, keepdims=True))


def sphere_contact_chart(n):
    """(2n-1)-dimensional coordinate patch of the unit sphere.

    Drops chart coordinate 0, Re psi_1 (solved as +sqrt(1 - |u|^2)), and
    pulls eta_0 and omega_0 back through the embedding.  Returns
    (chart, embed, jacobian) for points, or stacks (..., 2n - 1) of them,
    with |u| < 1; a point outside that patch raises ValueError.
    """
    dim = 2 * n - 1

    def embed(u):
        u = np.asarray(u, dtype=float)
        w2 = 1.0 - vecdot(u, u)
        if not np.all(w2 > 0.0):
            raise ValueError("the sphere chart holds the points with |u| < 1")
        return np.concatenate([np.sqrt(w2)[..., None], u], axis=-1)

    def jacobian(u):
        z = embed(u)  # rows -u / sqrt(1 - |u|^2) and the identity
        return np.eye(2 * n, dim, k=-1) \
            - np.eye(2 * n, 1) * (z[..., None, 1:] / z[..., None, :1])

    def eta(u):
        return (contact_form(embed(u))[..., None, :] @ jacobian(u))[..., 0, :]

    def omega(u):
        jac = jacobian(u)
        return np.swapaxes(jac, -1, -2) @ pullback_omega0(embed(u)) @ jac

    return ContactChart(dim=dim, eta=eta, omega=omega), embed, jacobian
