"""Classical dissipative mechanics.

Linear second-order systems m q'' + gamma q' + omega q = 0 with their
representative matrix G = [[0, I], [-m^-1 omega, -m^-1 gamma]], the
odd-trace Hamiltonianity criterion, and the bivector-span obstruction to
the existence of any Lagrangian.  Contact Euler-Lagrange dynamics on
(q, q', S):

    d/dt dL/dq'_j - dL/dq_j = -(dh/dS) D_j,
    S' = L - h(S)                          (D_j = dL/dq'_j)
    S' = q'_j dF/dq'_j - (E_L + h(S))      (D_j = dF/dq'_j, Rayleigh F)

with Lagrangian energy E_L = q'_j dL/dq'_j - L, plus single and coupled
RLC circuit builders; a conservative system is the first form with
h = 0.  The field maps the flat state y = (q, q', S) of shape (2n + 1,),
or each row of a stack (..., 2n + 1) of them, to y', with one Hessian
test and one solve per call and every row with the bits of its one-row
call; a last axis other than 2n + 1 raises ValueError.  The velocity
Hessian H is singular unless |det H| > HESSIAN_DET_TOL max|H_jk|^n, a
scale-free test that also rejects a non-finite H, without a warning;
``_singular`` is that one test, and the mass of
``representative_matrix``, the Hessian of q'^T m q' / 2, is judged by it
too.  The field solves H q'' = rhs by LU.

Callbacks take stacks like every other layer: q and q' of shape
(..., n), one state being the case with no leading axes, and a scalar
function returns (...), a covector (..., n) and a matrix (..., n, n); a
constant matrix may be n x n, h and dh_ds a scalar.  Any other shape
raises ValueError (``algebra.shaped``): write q[..., j], not q[0].

``integrate_contact`` steps a system in one of two ways.  A builder sets
``linear_projection`` when h is linear in S, h = h(0) + r S, and
z = (q, q') obeys a linear law z' = G z (the RLC circuits and the
friction system).  A run relies on both halves without testing them;
the ``mechanics/declared-projection`` invariant of ``checks`` holds the
builders to both.  S then obeys S' = phi(z) - r S with phi = S' at
S = 0, and the RK4 steps are taken in closed form by a fill of
``integrators.fast_path``.  mechanics supplies the physics: G read off
the field's (q, q') rows in one field call, r = dh_ds(0), phi at the
stacked stage points of every step in one call, and the domain guard,
so the route follows the callbacks and never the data they were built
from.  ``integrators`` supplies the method: z by ``linear_fill``, the
stage points by ``linear_stages``, c and b_k of S_(k+1) = c S_k + b_k
by ``rk4_increment`` and S by ``recurrence_fill``.  The fill declines a
run it cannot fill up to the first row outside the domain guard (its z
path diverges, a stage Hessian is singular or a state is not finite)
and every other system's, and ``rk4_path`` steps it on
``contact_el_field``; that route alone raises, and it is the test oracle
of the closed form.  ``integrate_contact`` returns ``fast_path``'s
(times, states, stopped_early), states in the field's layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .algebra import matvec, shaped
from .integrators import (fast_path, linear_fill, linear_stages,
                          recurrence_fill, rk4_increment)

HESSIAN_DET_TOL = 1e-10


class ImplicitSystemError(RuntimeError):
    """Singular mass matrix or velocity Hessian; a singular Hessian's
    message names the (q, q', S) of the first singular row."""


def coupled_damped_oscillators(omega1, omega2, gamma1, gamma2, kappa, delta):
    """(m, gamma, omega) of two oscillators with position coupling kappa
    and velocity coupling delta (unit masses)."""
    return (np.eye(2),
            np.array([[gamma1, delta], [delta, gamma2]], dtype=float),
            np.array([[omega1 ** 2, kappa], [kappa, omega2 ** 2]],
                     dtype=float))


def representative_matrix(m, gamma, omega):
    """G with [[0, I], [-m^-1 omega, -m^-1 gamma]] block structure for
    m q'' + gamma q' + omega q = 0 with n x n matrices; ``_singular``
    decides whether the mass is singular."""
    n = m.shape[0]
    if _singular(m):
        raise ImplicitSystemError("singular mass matrix: implicit system")
    m_inv = np.linalg.inv(m)
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = -m_inv @ omega
    g[n:, n:] = -m_inv @ gamma
    return g


HAMILTONIANITY_VERDICTS = ("hamiltonian-admissible", "not-hamiltonian",
                           "inconclusive-non-generic")


@dataclass(frozen=True)
class HamiltonianityResult:
    """Each odd power trace |Tr G^(2k+1)| of G over its bound |G|^(2k+1),
    and the verdict, one of HAMILTONIANITY_VERDICTS
    ("inconclusive-non-generic" when repeated eigenvalues void the test),
    or for a stack of G an array of both over its leading axes."""

    trace_ratios: np.ndarray
    verdict: str


def hamiltonianity_criterion(g):
    """Constant-Poisson Hamiltonian description exists iff every odd power
    of the (generic) representative matrix, each of a stack, is traceless."""
    g = np.asarray(g, dtype=float)
    dim = g.shape[-1]
    if g.ndim < 2 or g.shape[-2] != dim or dim % 2 != 0:
        raise ValueError("representative matrix must be square of even size")
    scale = np.linalg.norm(g, 2, axis=(-2, -1))
    eigs = np.linalg.eigvals(g)
    gaps = np.abs(eigs[..., :, None] - eigs[..., None, :])
    gaps[..., range(dim), range(dim)] = np.inf
    generic = np.min(gaps, axis=(-2, -1)) > 1e-8 * np.maximum(scale, 1.0)
    traces = []
    power = g.copy()
    g2 = g @ g
    for _ in range(dim):
        traces.append(np.trace(power, axis1=-2, axis2=-1))
        power = power @ g2
    # numpy scalar powers, one scale at a time: they overflow to inf where
    # a float's raise, and round as a float's do, unlike an array's power
    ratios = np.abs(np.stack(traces, axis=-1)) / np.reshape(
        [[s ** (2 * k + 1) for k in range(dim)]
         for s in np.maximum(scale, 1e-30).ravel()], scale.shape + (dim,))
    traceless = np.all(ratios < 1e-9, axis=-1)
    verdict = np.where(~traceless, "not-hamiltonian", np.where(
        generic, "hamiltonian-admissible", "inconclusive-non-generic"))
    return HamiltonianityResult(ratios,
                                str(verdict) if g.ndim == 2 else verdict)


def bivector_span_dimension(g):
    """Dimension of the Lie-derivative span of the velocity bivectors.

    Seeds with d/dq'_i ^ d/dq'_j, iterates B -> G B + B G^T, and
    rank-counts inside the n(2n-1)-dimensional space of antisymmetric
    matrices.  A maximal span n(2n-1) forces every invariant Lagrangian
    two-form to vanish, so no Lagrangian exists; for n = 1 there is no
    velocity pair, the span is 0 and proves nothing.  A G without the
    [[0, I], [*, *]] blocks is a bad input: ValueError.
    """
    g = np.asarray(g, dtype=float)
    dim = g.shape[0]
    n = dim // 2
    if not (np.allclose(g[:n, :n], 0.0, atol=1e-12)
            and np.allclose(g[:n, n:], np.eye(n), atol=1e-12)):
        raise ValueError("G lacks second-order [[0, I], [*, *]] structure")
    idx = np.triu_indices(dim, 1)
    max_dim = n * (2 * n - 1)
    seeds = []
    for i in range(n, dim):
        for j in range(i + 1, dim):
            b = np.zeros((dim, dim))
            b[i, j], b[j, i] = 1.0, -1.0
            seeds.append(b)
    if not seeds:
        # n = 1: there is no velocity-velocity pair, the constraint set is
        # vacuous and maximality proves nothing
        return 0
    tol = 1e-10 * max(1.0, float(np.linalg.norm(g, 2)))
    frontier = seeds
    vectors = [b[idx] for b in frontier]
    span = int(np.linalg.matrix_rank(np.stack(vectors), tol=tol))
    # each stack is ranked once: a grown stack that adds rank is kept
    for _ in range(2 * max_dim):
        frontier = [g @ b + b @ g.T for b in frontier]
        grown = vectors + [b[idx] for b in frontier]
        rank = int(np.linalg.matrix_rank(np.stack(grown), tol=tol))
        if rank == span:
            break
        vectors, span = grown, rank
    return span


def _zero_h(s):
    return 0.0


def _everywhere(q, qd):
    return np.ones(np.shape(q)[:-1], dtype=bool)


@dataclass(frozen=True)
class ContactLagrangianSystem:
    """Lagrangian with dissipation data on (q, q', S).

    The force covector is D = d_f_dqd, the velocity gradient of a
    Rayleigh function F, when that is given, and D = dL/dq'
    (Caldirola-Kanai) otherwise; h = 0, the default, is conservative.
    mixed_hess(q, q')[..., j, k] is d^2 L / dq_k dq'_j.  The velocity
    Hessian must stay invertible along trajectories.  domain_guard(q, q')
    is False outside the system's domain, where integration stops
    cleanly; the default holds everywhere, as h = 0.  Every callback
    takes q and q' of shape (..., n), as the module docstring says, and h
    and dh_ds take S of shape (...).  linear_projection declares
    that h is linear in S and that (q, q') follows a linear flow, which
    lets integrate_contact step the system in closed form; only builders
    set it.
    """

    n: int
    lagrangian: Callable
    d_l_dq: Callable
    d_l_dqd: Callable
    hess_qd: Callable
    mixed_hess: Callable
    h: Callable = _zero_h
    dh_ds: Callable = _zero_h
    d_f_dqd: Optional[Callable] = None
    domain_guard: Callable = _everywhere
    linear_projection: bool = False

    def energy(self, q, qd):
        """Lagrangian energy E_L = q'_j dL/dq'_j - L at q and q' of shape
        (..., n)."""
        d_dqd = shaped("d_l_dqd", self.d_l_dqd(q, qd), np.shape(qd))
        return (qd * d_dqd).sum(axis=-1) \
            - shaped("lagrangian", self.lagrangian(q, qd), np.shape(qd)[:-1])


def _force_covector(sys, q, qd):
    name = "d_l_dqd" if sys.d_f_dqd is None else "d_f_dqd"
    return shaped(name, getattr(sys, name)(q, qd), np.shape(qd))


def _quadratic(mat, v):
    """v_j M_jk v_k for v of shape (..., n)."""
    return np.einsum("...j,jk,...k->...", v, mat, v)


def _singular(mats):
    """Which matrices mats[..., j, k] are singular: all but those with
    |det M| > HESSIAN_DET_TOL max|M_jk|^n, so a non-finite M is singular
    too.  An n x n mats gives one verdict; n = 1 reads M != 0 and finite,
    with no LAPACK call, and n >= 2 takes det and the n-th power with
    numpy's warnings off (an overflowing power reads singular)."""
    n = mats.shape[-1]
    if n == 1:
        det = scale = abs(mats[..., 0, 0])
    else:
        with np.errstate(all="ignore"):
            det = np.abs(np.linalg.det(mats))
            scale = np.abs(mats).max(axis=(-2, -1)) ** n
    return ~(det > HESSIAN_DET_TOL * scale)


def _s_rate(sys, q, qd, s, force):
    """S' at (q, q', S) given the force covector, batched."""
    h = shaped("h", sys.h(s), (), np.shape(s))
    if sys.d_f_dqd is None:
        return shaped("lagrangian", sys.lagrangian(q, qd), q.shape[:-1]) - h
    return (qd * force).sum(axis=-1) - (sys.energy(q, qd) + h)


def contact_el_field(sys, y):
    """y' = (q', q'', S') at each flat state y = (q, q', S) of a stack
    (..., 2n + 1): one Hessian test and one solve for one state and a
    stack alike, and every row with the bits of its one-row call.  A last
    axis other than 2n + 1 raises ValueError, and a singular Hessian in
    any row raises ImplicitSystemError, whose message names the (q, q', S)
    of the first such row in C order."""
    n = sys.n
    if y.shape[-1:] != (2 * n + 1,):
        raise ValueError(f"states {y.shape} are not (..., {2 * n + 1})")
    q, qd, s = y[..., :n], y[..., n:2 * n], y[..., 2 * n]
    mats = (s.shape + (n, n), (n, n))
    hess = shaped("hess_qd", sys.hess_qd(q, qd), *mats)
    singular = _singular(hess)
    if singular.any():
        bad = np.broadcast_to(singular, s.shape)
        row = y[np.unravel_index(np.argmax(bad), bad.shape)].tolist()
        raise ImplicitSystemError(f"singular velocity Hessian at (q, q', S) ="
                                  f" ({row[:n]}, {row[n:2 * n]}, {row[-1]})")
    force = _force_covector(sys, q, qd)
    rhs = shaped("d_l_dq", sys.d_l_dq(q, qd), q.shape) \
        - matvec(shaped("mixed_hess", sys.mixed_hess(q, qd), *mats), qd) \
        - shaped("dh_ds", sys.dh_ds(s), (), s.shape)[..., None] * force
    dy = np.empty(y.shape)
    dy[..., :n] = qd
    dy[..., n:2 * n] = np.linalg.solve(hess, rhs[..., None])[..., 0]
    dy[..., 2 * n] = _s_rate(sys, q, qd, s, force)
    return dy


def analytic_energy_rate(sys, q, qd, s):
    """-(dh/dS) q'_j D_j, the exact rate of the Lagrangian energy, at q
    and q' of shape (..., n) and s of shape (...)."""
    return -sys.dh_ds(s) * (qd * _force_covector(sys, q, qd)).sum(axis=-1)


def _projected_generator(sys):
    """G of z' = G z from the field's (q, q') rows at S = 0: column k is
    (f(u + t e_k) - f(u)) / t at the in-domain states u = (1, ..., 1) and
    u + t e_k (every q' > 0), one field call on the 2n + 1 states.  The
    long step t = 2^40 keeps the rounding of f(u) out of a column much
    smaller than G u, and dividing by it is exact."""
    dim, step = 2 * sys.n, 2.0 ** 40
    states = np.append(np.ones(dim), 0.0) + step * np.eye(dim + 1, k=-1)
    rates = contact_el_field(sys, states)[:, :dim]
    # C order, as the column stack had: the layout of G sets its rounding
    return np.ascontiguousarray(((rates[1:] - rates[0]) / step).T)


def _closed_form_fill(sys, y0, steps, dt):
    """The closed-form RK4 path of a linear_projection system up to the
    row before the first one outside the domain guard; None for any other
    system, or when the z path diverges, a stage Hessian is singular or a
    row is not finite up to that row (see the module docstring)."""
    if not sys.linear_projection:
        return None
    n, dim = sys.n, 2 * sys.n
    g = _projected_generator(sys)
    r = float(sys.dh_ds(0.0))
    zs = linear_fill(g, y0[:dim], steps, dt)
    if zs is None:
        return None
    # the path keeps rows :keep, and steps 0 .. steps - 1 are checked: the
    # last one ends on the last row or on the first row outside the guard
    keep = steps + 1
    outside = ~sys.domain_guard(zs[1:, :n], zs[1:, n:])
    if outside.any():
        keep = steps = int(np.argmax(outside)) + 1
    q, qd = np.split(linear_stages(g, zs[:steps], dt), [n], axis=-1)
    if _singular(np.asarray(sys.hess_qd(q, qd), dtype=float)).any():
        return None
    # b_k and c - 1 are the RK4 increments of S' = phi_i - r S from S = 0
    # and of S' = -r S from S = 1
    phi = _s_rate(sys, q, qd, 0.0, _force_covector(sys, q, qd))
    b = rk4_increment(lambda i, s: phi[i] - r * s, 0.0, dt)
    s_path = recurrence_fill(
        1.0 + rk4_increment(lambda i, s: -r * s, 1.0, dt), b, y0[dim])
    return None if s_path is None else np.column_stack([zs[:keep],
                                                        s_path[:keep]])


def integrate_contact(sys, state0, t_end, dt):
    """The RK4 path (times, states, stopped_early) of the contact
    Euler-Lagrange field from state0 = (q0, q'0, S0), the flag true when
    the domain guard ends it before t_end; closed-form steps when the
    system declares linear_projection (see the module docstring),
    rk4_path on contact_el_field otherwise.

    q0 and q'0 must each hold n entries, S0 must be a scalar and the
    initial state must pass the system's domain guard.  linear_projection
    is relied on, not tested: the closed form steps S with
    h(S) = h(0) + dh_ds(0) S and z with the field's (q, q') rows at S = 0.
    """
    n = sys.n
    q0, qd0, s0 = (np.asarray(part, dtype=float) for part in state0)
    if q0.shape != (n,) or qd0.shape != (n,) or s0.shape != ():
        raise ValueError(f"need q0 and qd0 of length {n} and a scalar S0")
    if not sys.domain_guard(q0, qd0):
        raise ValueError("initial state outside the system's domain")
    y0 = np.hstack([q0, qd0, s0])

    def post(y):
        return y if sys.domain_guard(y[:n], y[n:2 * n]) else None
    return fast_path(partial(_closed_form_fill, sys),
                     partial(contact_el_field, sys), y0, t_end, dt, post)


def rlc_single(resistance, inductance, capacitance):
    """Series RLC circuit as a contact Lagrangian system.

    L = (1/2) L_ind I'^2 - I^2 / (2C) with Caldirola-Kanai dissipation
    h(S) = (R / L_ind) S, so the flow solves L_ind I'' + R I' + I/C = 0.
    """
    if inductance <= 0 or capacitance <= 0:
        raise ValueError("need inductance > 0 and capacitance > 0")
    if resistance < 0:
        raise ValueError("need resistance >= 0")
    l_ind, cap = float(inductance), float(capacitance)
    rate = float(resistance) / l_ind
    if not np.all(np.isfinite([l_ind, 1.0 / cap, rate])):
        raise ValueError("need finite L, 1/C and R/L")
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: 0.5 * l_ind * qd[..., 0] ** 2
        - q[..., 0] ** 2 / (2.0 * cap),
        d_l_dq=lambda q, qd: -q / cap,
        d_l_dqd=lambda q, qd: l_ind * qd,
        hess_qd=lambda q, qd: np.array([[l_ind]]),
        mixed_hess=lambda q, qd: np.zeros((1, 1)),
        h=lambda s: rate * s,
        dh_ds=lambda s: rate,
        linear_projection=True)


def rlc_coupled(l1, l2, c1, c2, r1, r2, r_coupling):
    """Two RLC circuits coupled in parallel through a resistance.

    L = (1/2) I'^T L I' - (1/2) I^T C I with L = diag(L1, L2),
    C = diag(1/C1, 1/C2), Rayleigh function F = (1/2) I'^T R I' for
    R = [[R1, R], [R, R2]] and h(S) = S, giving Kirchhoff's equations
    L I'' + R I' + C I = 0; the circuits decouple as R -> 0.  R1, R2 >= 0,
    and R takes the sign the orientation of the currents gives it, within
    R^2 <= R1 R2: the Rayleigh matrix is positive semidefinite, so the
    circuit dissipates.
    """
    if l1 <= 0 or l2 <= 0 or c1 <= 0 or c2 <= 0:
        raise ValueError("inductances and capacitances must be positive")
    if r1 < 0 or r2 < 0:
        raise ValueError("need r1 >= 0 and r2 >= 0")
    if r_coupling * r_coupling > r1 * r2:
        raise ValueError("need r_coupling**2 <= r1 * r2, a positive "
                         "semidefinite Rayleigh matrix")
    l_mat = np.diag([float(l1), float(l2)])
    c_mat = np.diag([1.0 / float(c1), 1.0 / float(c2)])
    r_mat = np.array([[float(r1), float(r_coupling)],
                      [float(r_coupling), float(r2)]])
    if not np.all(np.isfinite([l_mat, c_mat, r_mat])):
        raise ValueError("need finite L, R and 1/C")
    return ContactLagrangianSystem(
        n=2,
        lagrangian=lambda q, qd: 0.5 * _quadratic(l_mat, qd)
        - 0.5 * _quadratic(c_mat, q),
        d_l_dq=lambda q, qd: -np.einsum("jk,...k->...j", c_mat, q),
        d_l_dqd=lambda q, qd: np.einsum("jk,...k->...j", l_mat, qd),
        hess_qd=lambda q, qd: l_mat,
        mixed_hess=lambda q, qd: np.zeros((2, 2)),
        h=lambda s: s,
        dh_ds=lambda s: 1.0,
        d_f_dqd=lambda q, qd: np.einsum("jk,...k->...j", r_mat, qd),
        linear_projection=True)


def friction_system(gamma):
    """Local Lagrangian L = q' ln q' - gamma q for q'' = -gamma q'.

    Valid on the chart q' > 0 only; integration stops cleanly if the
    velocity falls below 1e-10.  Conserves E_L = q' + gamma q while the
    mechanical energy q'^2 / 2 decays at rate -gamma q'^2, for gamma >= 0.
    """
    gamma = float(gamma)
    if not gamma >= 0:
        raise ValueError("need gamma >= 0")
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: qd[..., 0] * np.log(qd[..., 0])
        - gamma * q[..., 0],
        d_l_dq=lambda q, qd: np.full_like(q, -gamma),
        d_l_dqd=lambda q, qd: np.log(qd) + 1.0,
        hess_qd=lambda q, qd: (1.0 / qd)[..., None],
        mixed_hess=lambda q, qd: np.zeros((1, 1)),
        domain_guard=lambda q, qd: qd[..., 0] > 1e-10,
        linear_projection=True)
