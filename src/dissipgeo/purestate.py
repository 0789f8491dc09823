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
c = i a + b and c = b.  These fields are tangent to the sphere, and Z
satisfies the generalized contact Hamiltonian equations

    i_Z dr = 0,   i_Z eta_0 = f_a / r^2,   i_Z omega_0 = d(f_a/r^2) - alpha_b

with alpha_b = J^T d(f_b / r^2).  omega_0 is normalized so the third
identity holds with eta_0 as above (twice the literal imaginary part of
the projective Hermitian form).

``integrate_sphere_flow`` steps z' = Z(z) = (M - e(z)) z, with the scalar
e(z) = z^T B z / z^T z, by ``_krylov_fill``, a fill of
``integrators.fast_path``.  With A = dt M every RK4 stage point of a step
from z is a polynomial of degree <= 3 in A applied to z, so a step needs
the Krylov terms W_j = A^j z (j <= 4) and B W_j (j <= 3), one product of
a (9d x d) stack built once per run with z.  The Gram entries W_j . W_l
and W_j . B W_l (j, l <= 3), one 4 x 8 product, give every stage's e_i
as a ratio of quadratic forms in its 4 coefficients, computed in Python
floats, and the step is z + sum_j delta_j W_j with
delta = (K1 + 2 K2 + 2 K3 + K4) / 6 in W coefficients.  In this
increment form no coefficient reads 1 + O(dt), which would round away the
low bits of the increment of z at every step; the norm drifts as on
``rk4_path``.  Z is homogeneous of degree 1, so a step commutes with
scaling and renormalisation is z / |z| after it.  It is the same method,
so paths agree with ``rk4_path`` on Z up to rounding.  A non-finite
Krylov term (the stack at |dt M| >~ 1e77, a row on a diverging path) or a
zero stage point declines, and ``rk4_path`` steps the run on Z.  Beyond
RK4's stability bound (dt |M| > 2.8), where a path is unstable on either
route, the Gram forms square the cancellation among the Krylov terms,
and a step's rounding grows to about 1e-13 relative.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .algebra import is_hermitian, to_coherence_vector
from .contact import ContactChart
from .integrators import CHECK_ROWS, fast_path

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


def _sphere_field(m, b, z):
    """M z - (z^T B z / z^T z) z, Z on the chart for the real forms M of
    i a + b and B of b."""
    return m @ z - (z @ (b @ z) / (z @ z)) * z


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
    ``renormalize`` rescales after every step for long horizons.  Stepped
    by ``_krylov_fill``, the Krylov form of RK4 on the chart field.
    Returns (times, psis) with psis of shape (steps + 1, n) complex.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    z0 = to_chart(psi0)
    if abs(norm_squared(z0) - 1.0) > SPHERE_TOL:
        raise ValueError("initial state must be normalized")
    _require_hermitian(a, b)
    m, b_real = _real_form(flow_generator(a, b)), _real_form(b)
    times, states = fast_path(
        partial(_krylov_fill, m, b_real, renormalize),
        partial(_sphere_field, m, b_real), z0, t_end, dt,
        (lambda z: z / np.sqrt(z @ z)) if renormalize else None)
    return times, states[:, :psi0.size] + 1j * states[:, psi0.size:]


def _krylov_fill(m, b, renormalize, states, h):
    """Fill states with RK4 steps in Krylov form (A = h M); 0 when the
    stack, a Gram entry or a row is not finite or a stage point zero."""
    d = len(m)
    powers = [np.eye(d)]
    for _ in range(4):
        powers.append(h * m @ powers[-1])
    # rows B W_0..B W_3, W_0..W_4: the Gram rows W_0..W_3 pair with the
    # first 8, and the step combines the last 5
    stack = np.concatenate([b @ p for p in powers[:4]] + powers)
    if not np.isfinite(stack).all():
        return 0
    w = np.empty((9, d))
    flat, left, right, terms = w.reshape(-1), w[4:8], w[:8].T, w[4:]
    try:
        for start in range(1, len(states), CHECK_ROWS):
            block = states[start - 1:start + CHECK_ROWS]
            for z, y in zip(block, block[1:]):
                np.matmul(stack, z, out=flat)
                # H_jl = W_j . B W_l and G_jl = W_j . W_l, both symmetric
                ((h00, h01, h02, h03, g00, g01, g02, g03),
                 (_, h11, h12, h13, _, g11, g12, g13),
                 (_, _, h22, h23, _, _, g22, g23),
                 (_, _, _, h33, _, _, _, g33)) = (left @ right).tolist()
                # stage i sits at sum_j x_j W_j; its k_i, times h, is
                # K_i = shift(x) - he_i x with he_i = h x^T H x / x^T G x
                he1 = h * h00 / g00
                k10, k11 = -he1, 1.0
                x0, x1 = 1.0 + 0.5 * k10, 0.5 * k11
                he2 = h * (x0 * (x0 * h00 + 2.0 * x1 * h01)
                           + x1 * x1 * h11) \
                    / (x0 * (x0 * g00 + 2.0 * x1 * g01) + x1 * x1 * g11)
                k20, k21, k22 = -he2 * x0, x0 - he2 * x1, x1
                x0, x1, x2 = 1.0 + 0.5 * k20, 0.5 * k21, 0.5 * k22
                he3 = h * (x0 * (x0 * h00 + 2.0 * (x1 * h01 + x2 * h02))
                           + x1 * (x1 * h11 + 2.0 * x2 * h12)
                           + x2 * x2 * h22) \
                    / (x0 * (x0 * g00 + 2.0 * (x1 * g01 + x2 * g02))
                       + x1 * (x1 * g11 + 2.0 * x2 * g12) + x2 * x2 * g22)
                k30, k31, k32, k33 = (-he3 * x0, x0 - he3 * x1,
                                      x1 - he3 * x2, x2)
                x0, x1, x2, x3 = 1.0 + k30, k31, k32, k33
                he4 = h * (x0 * (x0 * h00 + 2.0 * (x1 * h01 + x2 * h02
                                                   + x3 * h03))
                           + x1 * (x1 * h11 + 2.0 * (x2 * h12 + x3 * h13))
                           + x2 * (x2 * h22 + 2.0 * x3 * h23)
                           + x3 * x3 * h33) \
                    / (x0 * (x0 * g00 + 2.0 * (x1 * g01 + x2 * g02
                                               + x3 * g03))
                       + x1 * (x1 * g11 + 2.0 * (x2 * g12 + x3 * g13))
                       + x2 * (x2 * g22 + 2.0 * x3 * g23) + x3 * x3 * g33)
                k40, k41, k42, k43, k44 = (-he4 * x0, x0 - he4 * x1,
                                           x1 - he4 * x2, x2 - he4 * x3, x3)
                # increment form: W_0 = z enters only as z + delta_0 z
                delta = [(k10 + 2.0 * (k20 + k30) + k40) / 6.0,
                         (k11 + 2.0 * (k21 + k31) + k41) / 6.0,
                         (2.0 * (k22 + k32) + k42) / 6.0,
                         (2.0 * k33 + k43) / 6.0,
                         k44 / 6.0]
                np.add(z, np.dot(delta, terms), out=y)
                if renormalize:
                    y /= np.sqrt(y @ y)
            if not np.isfinite(block).all():
                return 0
    except ZeroDivisionError:  # a stage point at z = 0 (or underflowed)
        return 0
    return len(states)


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
