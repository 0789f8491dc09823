"""Kähler and contact geometry of the punctured Hilbert space.

A state vector psi in C^n is charted by z = (x, y) in R^2n with
psi = x + i y.  On the chart live the constant ambient tensors (omega_H,
g_H, J), the dilation and phase fields Delta = (x, y) and Gamma = (-y,
x), the contact form

    eta_0 = (x dy - y dx) / r^2,        r^2 = <psi|psi>,

whose Reeb field on the unit sphere is Gamma, and the projective
two-form omega_0.  For Hermitian generators a, b we use

    X_a  = chart of (i a psi)                (unitary part, psi -> e^{iat} psi)
    Y0_b = chart of (b psi) - e_b(psi) z     (gradient part, e_b = f_b / r^2)

with f_b = <psi|b|psi>.  On the chart Z = X_a + Y0_b is M z - (z^T B z /
z^T z) z, with M and B the real forms [[Re c, -Im c], [Im c, Re c]] of
c = i a + b and c = b.  These fields are tangent to the sphere, and Z
satisfies the generalized contact Hamiltonian equations

    i_Z dr = 0,   i_Z eta_0 = f_a / r^2,   i_Z omega_0 = d(f_a/r^2) - alpha_b

with alpha_b = J^T d(f_b / r^2).  omega_0 is normalized so the third
identity holds with eta_0 as above (twice the literal imaginary part of
the projective Hermitian form).
"""

from __future__ import annotations

import numpy as np

from .algebra import is_hermitian, to_coherence_vector
from .contact import ContactChart
from .integrators import rk4_path

SPHERE_TOL = 1e-10


def to_chart(psi):
    """Real chart z = (Re psi, Im psi) of a complex vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.concatenate([psi.real, psi.imag])


def from_chart(z):
    z = np.asarray(z, dtype=float)
    n = z.size // 2
    return z[:n] + 1j * z[n:]


def norm_squared(z):
    z = np.asarray(z, dtype=float)
    return float(z @ z)


def ambient_tensors(n):
    """Constant (omega_H, g_H, J) on the 2n-dimensional chart.

    omega_H(d/dx_j, d/dy_k) = delta_jk, g_H is the identity, and J sends
    d/dx_j -> -d/dy_j, d/dy_j -> d/dx_j, so that omega_H(J u, v) = g(u, v).
    """
    eye = np.eye(n)
    omega = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    return omega, np.eye(2 * n), omega.copy()


def dilation_field(z):
    """Delta = x d/dx + y d/dy."""
    return np.asarray(z, dtype=float).copy()

def phase_field(z):
    """Gamma = x d/dy - y d/dx, the generator of psi -> e^{i theta} psi."""
    return to_chart(1j * from_chart(z))


def f_value(a, z):
    """f_a = <psi| a |psi> for Hermitian a."""
    psi = from_chart(z)
    return float(np.real(np.vdot(psi, a @ psi)))


def hamiltonian_field(a, z):
    """X_a, the linear field with flow psi(t) = exp(i a t) psi."""
    return to_chart(1j * (np.asarray(a, dtype=complex) @ from_chart(z)))


def gradient_field(b, z):
    """Y0_b = (chart of b psi) - e_b z; tangent to every sphere r = const."""
    z = np.asarray(z, dtype=float)
    e_b = f_value(b, z) / norm_squared(z)
    return to_chart(np.asarray(b, dtype=complex) @ from_chart(z)) - e_b * z


def _real_form(c):
    """Real 2n x 2n matrix acting on the chart as c acts on psi."""
    c = np.asarray(c, dtype=complex)
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def _sphere_field(m, b_real, z):
    """Z = M z - (z^T B z / z^T z) z for the real forms M of i a + b and
    B of b."""
    return m @ z - (z @ (b_real @ z) / (z @ z)) * z


def z_field(a, b, z):
    """Z = X_a + Y0_b, the projected GL(n) action generator."""
    return _sphere_field(_real_form(flow_generator(a, b)), _real_form(b),
                         np.asarray(z, dtype=float))


def contact_form(z):
    """(eta_0 components, Reeb field) at z.

    eta_0 = (x dy - y dx)/r^2; its Reeb field within the sphere is the
    phase field Gamma, with eta_0(Gamma) = 1 and i_Gamma omega_0 = 0.
    """
    z = np.asarray(z, dtype=float)
    return phase_field(z) / norm_squared(z), phase_field(z)


def pullback_omega0(z):
    """Coordinate matrix of the projective two-form omega_0 at z.

    Degenerate exactly along Delta and Gamma.  Normalized so that
    i_{X_a} omega_0 = d(f_a / r^2).
    """
    z = np.asarray(z, dtype=float)
    n = z.size // 2
    r2 = norm_squared(z)
    omega, _, _ = ambient_tensors(n)
    gamma = phase_field(z)
    w = omega / r2 - (np.outer(z, gamma) - np.outer(gamma, z)) / r2 ** 2
    return 2.0 * w


def projected_tensors(z):
    """(Lambda0, G0), the scale-corrected projectable contravariant
    tensors r^2 Lambda_H - Gamma ^ Delta and r^2 G_H - Gamma x Gamma -
    Delta x Delta."""
    z = np.asarray(z, dtype=float)
    n = z.size // 2
    r2 = norm_squared(z)
    omega, _, _ = ambient_tensors(n)
    delta = dilation_field(z)
    gamma = phase_field(z)
    lam_h = -omega  # inverse of omega_H
    lam0 = r2 * lam_h - (np.outer(gamma, delta) - np.outer(delta, gamma))
    g0 = r2 * np.eye(2 * n) - np.outer(gamma, gamma) - np.outer(delta, delta)
    return lam0, g0


def d_f_tilde(a, z):
    """Differential of f_a / r^2."""
    z = np.asarray(z, dtype=float)
    r2 = norm_squared(z)
    psi = from_chart(z)
    return 2.0 * to_chart(np.asarray(a, dtype=complex) @ psi) / r2 \
        - 2.0 * f_value(a, z) * z / r2 ** 2


def alpha_tilde(b, z):
    """alpha_b = J^T d(f_b / r^2), the gradient part's one-form source."""
    n = np.asarray(z).size // 2
    _, _, j = ambient_tensors(n)
    return j.T @ d_f_tilde(b, z)


def _require_hermitian(a, b):
    for mat, name in ((a, "a"), (b, "b")):
        if not is_hermitian(mat):
            raise ValueError(f"generator {name} must be Hermitian")


def contact_residuals(a, b, z):
    """Residuals of the three defining identities of Z = X_a + Y0_b on the
    unit sphere: |dr(Z)|, |eta_0(Z) - f_a/r^2| and the max-norm of
    omega_0 Z - (d(f_a/r^2) - alpha_b)."""
    z = np.asarray(z, dtype=float)
    r2 = norm_squared(z)
    if abs(r2 - 1.0) > SPHERE_TOL:
        raise ValueError(f"point is off the unit sphere: r^2 = {r2!r}")
    _require_hermitian(a, b)
    vec = z_field(a, b, z)
    res1 = abs(float(z @ vec)) / np.sqrt(r2)
    eta0, _ = contact_form(z)
    res2 = abs(float(eta0 @ vec) - f_value(a, z) / r2)
    target = d_f_tilde(a, z) - alpha_tilde(b, z)
    res3 = float(np.max(np.abs(pullback_omega0(z) @ vec - target)))
    return res1, res2, res3


def project_to_bloch(psi, basis):
    """Coherence vector of rho_psi = |psi><psi| / <psi|psi>; invariant
    under phase and scale of psi."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.outer(psi, psi.conj()) / float(np.real(np.vdot(psi, psi)))
    return to_coherence_vector(rho, basis)


def flow_generator(a, b):
    """Linear generator M = i a + b whose normalized exponential flow
    integrates Z = X_a + Y0_b."""
    return 1j * np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)


def integrate_sphere_flow(a, b, psi0, t_end, dt, renormalize=False):
    """RK4 the flow of Z = X_a + Y0_b from a unit vector.

    Tangency keeps the norm to integrator order without projection;
    ``renormalize`` rescales after every step (the ``post`` map of
    ``rk4_path``) for long horizons.
    Returns (times, psis) with psis of shape (steps + 1, n) complex.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    z0 = to_chart(psi0)
    if abs(norm_squared(z0) - 1.0) > SPHERE_TOL:
        raise ValueError("initial state must be normalized")
    _require_hermitian(a, b)

    post = None
    if renormalize:
        def post(z):
            return z / np.sqrt(norm_squared(z))
    m, b_real = _real_form(flow_generator(a, b)), _real_form(b)
    times, states = rk4_path(lambda z: _sphere_field(m, b_real, z), z0,
                             t_end, dt, post=post)
    return times, states[:, :psi0.size] + 1j * states[:, psi0.size:]


def sphere_contact_chart(n):
    """(2n-1)-dimensional coordinate patch of the unit sphere.

    Drops chart coordinate 0, Re psi_1 (solved as +sqrt(1 - |u|^2)), and
    pulls eta_0 and omega_0 back through the embedding.  Returns
    (chart, embed, jacobian) for points with |u| < 1.
    """
    dim = 2 * n - 1

    def embed(u):
        u = np.asarray(u, dtype=float)
        return np.insert(u, 0, np.sqrt(1.0 - float(u @ u)))

    def jacobian(u):
        u = np.asarray(u, dtype=float)
        w = np.sqrt(1.0 - float(u @ u))
        jac = np.delete(np.eye(2 * n), 0, axis=1)
        jac[0, :] = -u / w
        return jac

    def eta(u):
        eta0, _ = contact_form(embed(u))
        return jacobian(u).T @ eta0

    def omega(u):
        jac = jacobian(u)
        return jac.T @ pullback_omega0(embed(u)) @ jac

    return ContactChart(dim=dim, eta=eta, omega=omega), embed, jacobian
