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

Points are stacks (..., dim), as chart forms and ScalarFields take them;
each solve is one ``np.linalg.solve`` against (..., dim + 1, k) right-hand
sides, and ``central_gradient`` calls f once, at (2 dim, ..., dim) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .algebra import matvec, vecdot


class DegenerateContactError(RuntimeError):
    """A bordered solve is singular, not finite or inaccurate."""


def central_gradient(f, x, step=1e-5):
    """Central differences at x (..., dim), one call of f at x -+ step e_i:
    the gradient of a scalar f, or the Jacobian (..., m, dim) (column i is
    df/dx_i) of a vector-valued one."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    e = step * np.eye(dim).reshape((dim,) + (1,) * (x.ndim - 1) + (dim,))
    values = np.asarray(f(np.concatenate([x + e, x - e])))
    return np.moveaxis(values[:dim] - values[dim:], 0, -1) / (2.0 * step)


@dataclass(frozen=True)
class ScalarField:
    """Function with its gradient, (...) and (..., dim) at points (..., dim):
    an analytic one, or ``partial(central_gradient, value)``."""

    value: Callable
    gradient: Callable

    def __call__(self, point):
        return _shaped(self.value, point, np.shape(point)[:-1])

    def grad(self, point):
        return _shaped(self.gradient, point, np.shape(point))


def _shaped(fn, point, shape):
    """fn(point) as floats of the given shape, or ValueError."""
    out = np.asarray(fn(np.asarray(point, dtype=float)), dtype=float)
    if out.shape != shape:
        raise ValueError(f"ScalarField shape {out.shape}, not {shape}")
    return out


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
    w[:m, m:2 * m], w[m:2 * m, :m] = np.eye(m), -np.eye(m)

    def eta(point):
        point = np.asarray(point, dtype=float)
        cov = np.zeros(point.shape)
        cov[..., :m] = -point[..., m:2 * m]
        cov[..., -1] = 1.0
        return cov

    return ContactChart(dim=dim, eta=eta, omega=lambda p: w)


def _points(chart, point):
    point = np.asarray(point, dtype=float)
    if point.shape[-1:] != (chart.dim,):
        raise ValueError(f"points {point.shape} are not (..., {chart.dim})")
    return point


def _bordered(chart, point):
    """[[omega^T, eta], [eta^T, 0]] at each point; omega(v, .) fills the
    first slot of omega, hence omega^T."""
    point = _points(chart, point)
    d = chart.dim
    m = np.zeros(point.shape[:-1] + (d + 1, d + 1))
    m[..., :d, :d] = np.swapaxes(chart.omega(point), -1, -2)
    m[..., :d, d] = m[..., d, :d] = chart.eta(point)
    return m


def nondegeneracy_determinant(chart, point):
    """|det| of the bordered matrix, that of the antisymmetric [[omega,
    eta], [-eta, 0]] too (its transpose with the last row negated);
    nonzero exactly where eta ^ omega^m is a volume form."""
    return np.abs(np.linalg.det(_bordered(chart, point)))


def _bordered_solve(chart, point, rhs_omega, rhs_eta):
    """Solve omega(v, .) + lam eta = rhs_omega, eta(v) = rhs_eta for k
    right-hand sides at each point: rhs_omega (..., dim, k) and rhs_eta
    (..., k) give a column of v and an entry of lam per right-hand side;
    lam = rhs_omega(xi).  Any point's failed solve fails the call."""
    m = _bordered(chart, point)
    b = np.zeros(m.shape[:-1] + np.shape(rhs_eta)[-1:])
    b[..., :-1, :] = rhs_omega
    b[..., -1, :] = rhs_eta
    try:
        sol = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateContactError(str(exc)) from exc
    scale = np.maximum(1.0, np.max(np.abs(b), axis=(-2, -1)))
    if not np.all(np.isfinite(sol)) or np.any(
            np.max(np.abs(m @ sol - b), axis=(-2, -1)) > 1e-8 * scale):
        raise DegenerateContactError("bordered solve did not converge")
    return sol[..., :-1, :], sol[..., -1, :]


def reeb_field(chart, point):
    """Unique xi with i_xi omega = 0 and eta(xi) = 1: one solve."""
    return _bordered_solve(chart, point, np.zeros((chart.dim, 1)),
                           np.ones(1))[0][..., 0]


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
    point = _points(chart, point)
    rhs = np.asarray(alpha(point), dtype=float) - field.grad(point)
    return _bordered_solve(chart, point, rhs[..., None],
                           field(point)[..., None])[0][..., 0]


def jacobi_bracket(chart, f, g, point):
    """[F, G] = F L_xi G - G L_xi F + Lambda(dF, dG).

    Lambda(dF, dG) = dG(v_F) = omega(v_F, v_G), with v_F the horizontal
    part of Gamma_F = F xi + v_F: omega(v_F, .) = -(dF - (L_xi F) eta)
    and eta(v_F) = 0.  One solve of the columns (-dF, 0) and (-dG, 0)
    gives v_F and the multipliers -L_xi F, -L_xi G.  This orientation
    gives [q, p] = 1 on the standard chart and makes F -> Gamma_F a
    Lie-algebra homomorphism.
    """
    point = _points(chart, point)
    df, dg = f.grad(point), g.grad(point)
    v, lam = _bordered_solve(chart, point, -np.stack([df, dg], axis=-1),
                             np.zeros(2))
    return g(point) * lam[..., 0] - f(point) * lam[..., 1] \
        + vecdot(dg, v[..., 0])


def homomorphism_residual(chart, f, g, point):
    """Max-norm of [Gamma_F, Gamma_G] - Gamma_[F,G] at each point.

    The Lie bracket of the two contact fields is formed with
    Richardson-extrapolated central differences (step 1e-4); the bracket
    function's gradient is central differences as well.
    """
    point = _points(chart, point)
    field_f = partial(contact_hamiltonian_field, chart, f)
    field_g = partial(contact_hamiltonian_field, chart, g)
    jf, jg = ((4.0 * central_gradient(h, point, 1e-4 / 2.0)
               - central_gradient(h, point, 1e-4)) / 3.0
              for h in (field_f, field_g))
    lie = matvec(jg, field_f(point)) - matvec(jf, field_g(point))
    value = partial(jacobi_bracket, chart, f, g)
    bracket = ScalarField(value, partial(central_gradient, value))
    gamma_fg = contact_hamiltonian_field(chart, bracket, point)
    return np.max(np.abs(lie - gamma_fg), axis=-1)
