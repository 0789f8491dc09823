"""Generic contact-manifold machinery on coordinate charts.

A chart carries a one-form eta and a two-form omega with eta ^ omega^m
nonvanishing; whether omega = d eta is measured (by central differences
in ``checks.exactness_residual``), not declared.  Everything here is a
per-point linear solve against the bordered matrix [[omega^T, eta],
[eta^T, 0]]: Reeb field, contact Hamiltonian fields

    i_G omega = (L_xi F) eta - dF,     i_G eta = F,

their generalization with a one-form source alpha,

    i_G omega = (L_xi F - alpha(xi)) eta - dF + alpha,   i_G eta = F,

and the Jacobi bracket [F, G] = F L_xi G - G L_xi F + Lambda(dF, dG),
where Lambda inverts omega on ker eta.  The bracket's second term enters
with a minus sign; antisymmetry leaves no other choice.

Each field or bracket is one solve of omega(v, .) + lam eta = beta,
eta(v) = c.  Contracting with the Reeb field xi gives lam = beta(xi):
the multiplier is the eta term, so xi is an output (``reeb_field``),
never an input to a field or a bracket.  xi itself, i_xi omega = 0 and
eta(xi) = 1, is the solve (beta, c) = (0, 1), held to its equations by
the invariant contact/reeb-defining-equations alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np


class DegenerateContactError(RuntimeError):
    """A bordered solve is singular, not finite or inaccurate."""


def central_gradient(f, x, step=1e-5):
    """Central differences at x: the gradient of a scalar f, or the
    Jacobian (column i is df/dx_i) of a vector-valued one."""
    x = np.asarray(x, dtype=float)
    return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e)))
                     / (2.0 * step) for e in step * np.eye(x.size)], axis=-1)


@dataclass(frozen=True)
class ScalarField:
    """Function with its gradient: an analytic one, or
    ``partial(central_gradient, value)`` for central differences."""

    value: Callable
    gradient: Callable

    def __call__(self, point):
        return float(self.value(np.asarray(point, dtype=float)))

    def grad(self, point):
        return np.asarray(self.gradient(np.asarray(point, dtype=float)),
                          dtype=float)


@dataclass(frozen=True)
class ContactChart:
    """Odd-dimensional coordinate patch with point-dependent eta, omega."""

    dim: int
    eta: Callable
    omega: Callable

    def __post_init__(self):
        if self.dim % 2 != 1:
            raise ValueError(f"contact charts are odd-dimensional, got {self.dim}")


def darboux_chart(m):
    """Standard exact chart (q_1..q_m, p_1..p_m, S) with eta = dS - p dq
    and omega = d eta = dq ^ dp."""
    dim = 2 * m + 1
    w = np.zeros((dim, dim))
    for j in range(m):
        w[j, m + j] = 1.0
        w[m + j, j] = -1.0

    def eta(point):
        point = np.asarray(point, dtype=float)
        cov = np.zeros(dim)
        cov[:m] = -point[m:2 * m]
        cov[-1] = 1.0
        return cov

    return ContactChart(dim=dim, eta=eta, omega=lambda p: w)


def _bordered(chart, point):
    """[[omega^T, eta], [eta^T, 0]] at a point; omega(v, .) fills the
    first slot of omega, hence omega^T."""
    w = np.asarray(chart.omega(point), dtype=float)
    e = np.asarray(chart.eta(point), dtype=float)
    d = chart.dim
    m = np.zeros((d + 1, d + 1))
    m[:d, :d] = w.T
    m[:d, d] = e
    m[d, :d] = e
    return m


def nondegeneracy_determinant(chart, point):
    """|det| of the bordered matrix, that of the antisymmetric [[omega,
    eta], [-eta, 0]] too (its transpose with the last row negated);
    nonzero exactly where eta ^ omega^m is a volume form."""
    return abs(float(np.linalg.det(_bordered(chart, point))))


def _bordered_solve(chart, point, rhs_omega, rhs_eta):
    """Solve omega(v, .) + lam eta = rhs_omega, eta(v) = rhs_eta.

    One right-hand side, or a (dim, k) block with rhs_eta of shape (k,)
    and a column of v and an entry of lam per column; lam = rhs_omega(xi).
    """
    m = _bordered(chart, point)
    b = np.concatenate([rhs_omega, [rhs_eta]])
    try:
        sol = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateContactError(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(b))))
    if not np.all(np.isfinite(sol)) or \
            float(np.max(np.abs(m @ sol - b))) > 1e-8 * scale:
        raise DegenerateContactError("bordered solve did not converge")
    return sol[:-1], sol[-1]


def reeb_field(chart, point):
    """Unique xi with i_xi omega = 0 and eta(xi) = 1: one solve."""
    return _bordered_solve(chart, point, np.zeros(chart.dim), 1.0)[0]


def contact_hamiltonian_field(chart, field, point):
    """Vector solving i_G omega = (L_xi F) eta - dF and i_G eta = F: the
    generalized field with a zero source."""
    return generalized_contact_field(chart, field,
                                     lambda p: np.zeros(chart.dim), point)


def generalized_contact_field(chart, field, alpha, point):
    """Contact field with one-form source alpha:
    i_G omega = (L_xi F - alpha(xi)) eta - dF + alpha, i_G eta = F,
    solved with right-hand side (alpha - dF, F): the multiplier
    alpha(xi) - dF(xi) is the eta term."""
    point = np.asarray(point, dtype=float)
    return _bordered_solve(chart, point, np.asarray(alpha(point), dtype=float)
                           - field.grad(point), field(point))[0]


def jacobi_bracket(chart, f, g, point):
    """[F, G] = F L_xi G - G L_xi F + Lambda(dF, dG).

    Lambda(dF, dG) = dG(v_F) = omega(v_F, v_G), with v_F the horizontal
    part of Gamma_F = F xi + v_F: omega(v_F, .) = -(dF - (L_xi F) eta)
    and eta(v_F) = 0.  One solve of the columns (-dF, 0) and (-dG, 0)
    gives v_F and the multipliers -L_xi F, -L_xi G.  This orientation
    gives [q, p] = 1 on the standard chart and makes F -> Gamma_F a
    Lie-algebra homomorphism.
    """
    point = np.asarray(point, dtype=float)
    df, dg = f.grad(point), g.grad(point)
    v, lam = _bordered_solve(chart, point, -np.column_stack([df, dg]),
                             np.zeros(2))
    return float(g(point) * lam[0] - f(point) * lam[1] + dg @ v[:, 0])


def _fd_jacobian(vector_field, point, step):
    """Richardson-extrapolated central-difference Jacobian."""
    return (4.0 * central_gradient(vector_field, point, step / 2.0)
            - central_gradient(vector_field, point, step)) / 3.0


def homomorphism_residual(chart, f, g, point):
    """Max-norm of [Gamma_F, Gamma_G] - Gamma_[F,G] at a point.

    The Lie bracket of the two contact fields is formed with finite
    differences (step 1e-4); the bracket function's gradient is central
    differences as well.
    """
    point = np.asarray(point, dtype=float)
    step = 1e-4
    field_f = partial(contact_hamiltonian_field, chart, f)
    field_g = partial(contact_hamiltonian_field, chart, g)
    jf = _fd_jacobian(field_f, point, step)
    jg = _fd_jacobian(field_g, point, step)
    lie = jg @ field_f(point) - jf @ field_g(point)
    value = partial(jacobi_bracket, chart, f, g)
    bracket = ScalarField(value, partial(central_gradient, value))
    gamma_fg = contact_hamiltonian_field(chart, bracket, point)
    return float(np.max(np.abs(lie - gamma_fg)))
