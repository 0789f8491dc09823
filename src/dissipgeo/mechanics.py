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
test and one solve per stack and every row with the bits of its one-row
call; a last axis other than 2n + 1 raises ValueError.  The velocity
Hessian H is singular unless |det H| > HESSIAN_DET_TOL max|H_jk|^n, a
scale-free test that also rejects a non-finite H, without a warning;
``_singular`` is that one test, and the mass of
``representative_matrix``, the Hessian of q'^T m q' / 2, is judged by it
too.  The field solves H q'' = rhs by LU.

Callbacks take stacks like every other layer: q and q' of shape
(..., n), one state being the case with no leading axes, and a scalar
function returns (...), a covector (..., n) and a matrix (..., n, n); a
matrix that does not depend on the state may be returned as n x n.
Write a coordinate as q[..., j].

``integrate_contact`` steps a system in one of two ways.  A builder sets
``linear_projection`` when h is linear in S, h = h(0) + r S, and
z = (q, q') obeys a linear law z' = G z (the RLC circuits and the
friction system).  A run relies on both halves without testing them;
the ``mechanics/declared-projection`` invariant of ``checks`` holds the
builders to both.  S then obeys S' = phi(z) - r S with phi = S' at
S = 0, and one RK4 step is taken in closed form by a fill of
``integrators.fast_path``: z by ``linear_fill`` on G, the stage points
of every step in one product as A_i z with A_1 = I and
A_(i+1) = I + c_i dt G A_i for c = 1/2, 1/2, 1, and S by the recurrence
S_(k+1) = c S_k + b_k, whose b_k holds phi at the four stage points of
step k, filled a block of ``CHECK_ROWS`` rows at a time as
``linear_fill`` fills z: one lower-triangular product per block, from
the row before it.  G is read off the field's (q, q') rows, one field
call on 2n + 1 states, r is dh_ds(0) and phi is the field's S' at
S = 0, so the route follows the callbacks and never the data they were
built from.  The fill declines a run it cannot fill up to the first row
outside the domain guard (its z path diverges, a stage Hessian is
singular or a state is not finite) and every other system's, and
``rk4_path`` steps it on ``contact_el_field``; that route alone raises,
and it is the test oracle of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .algebra import matvec
from .integrators import CHECK_ROWS, fast_path, linear_fill

HESSIAN_DET_TOL = 1e-10


class ImplicitSystemError(RuntimeError):
    """Singular mass matrix or velocity Hessian; carries ``.state``."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


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
    """Odd power traces Tr G^(2k+1) of G, each |trace| over its bound
    |G|^(2k+1), and the verdict, one of HAMILTONIANITY_VERDICTS
    ("inconclusive-non-generic" when repeated eigenvalues void the test)."""

    odd_traces: np.ndarray
    trace_ratios: np.ndarray
    verdict: str


def hamiltonianity_criterion(g):
    """Constant-Poisson Hamiltonian description exists iff every odd power
    of the (generic) representative matrix is traceless."""
    g = np.asarray(g, dtype=float)
    dim = g.shape[0]
    if g.shape != (dim, dim) or dim % 2 != 0:
        raise ValueError("representative matrix must be square of even size")
    scale = float(np.linalg.norm(g, 2))
    eigs = np.linalg.eigvals(g)
    gaps = np.abs(eigs[:, None] - eigs[None, :])
    np.fill_diagonal(gaps, np.inf)
    generic = bool(np.min(gaps) > 1e-8 * max(scale, 1.0))
    traces = []
    power = g.copy()
    g2 = g @ g
    for _ in range(dim):
        traces.append(float(np.trace(power)))
        power = power @ g2
    traces = np.array(traces)
    ratios = np.abs(traces) / np.array(
        [max(scale, 1e-30) ** (2 * k + 1) for k in range(dim)])
    traceless = bool(np.all(ratios < 1e-9))
    if not traceless:
        verdict = "not-hamiltonian"
    elif generic:
        verdict = "hamiltonian-admissible"
    else:
        verdict = "inconclusive-non-generic"
    return HamiltonianityResult(odd_traces=traces, trace_ratios=ratios,
                                verdict=verdict)


def bivector_span_dimension(g):
    """Dimension of the Lie-derivative span of the velocity bivectors.

    Seeds with d/dq'_i ^ d/dq'_j, iterates B -> G B + B G^T, and
    rank-counts inside the n(2n-1)-dimensional space of antisymmetric
    matrices.  A maximal span forces every invariant Lagrangian two-form
    to vanish, so no Lagrangian exists; for n = 1 maximality proves
    nothing and the verdict is "test-inapplicable".

    Returns (dimension, verdict) with verdict in {"lagrangian-possible",
    "no-lagrangian", "test-inapplicable"}.
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
        return 0, "test-inapplicable"
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
    if span == max_dim:
        verdict = "no-lagrangian"
    else:
        verdict = "lagrangian-possible"
    return span, verdict


def _zero_h(s):
    return 0.0


@dataclass(frozen=True)
class ContactLagrangianSystem:
    """Lagrangian with dissipation data on (q, q', S).

    The force covector is D = d_f_dqd, the velocity gradient of a
    Rayleigh function F, when that is given, and D = dL/dq'
    (Caldirola-Kanai) otherwise; h = 0, the default, is conservative.
    mixed_hess(q, q')[..., j, k] is d^2 L / dq_k dq'_j.  The velocity
    Hessian must stay invertible along trajectories.  domain_guard, when
    set, stops integration cleanly once it returns False.  Every callback
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
    domain_guard: Optional[Callable] = None
    linear_projection: bool = False

    def energy(self, q, qd):
        """Lagrangian energy E_L = q'_j dL/dq'_j - L at q and q' of shape
        (..., n)."""
        return (qd * self.d_l_dqd(q, qd)).sum(axis=-1) \
            - self.lagrangian(q, qd)


def _force_covector(sys, q, qd):
    d_dqd = sys.d_l_dqd if sys.d_f_dqd is None else sys.d_f_dqd
    return np.asarray(d_dqd(q, qd), dtype=float)


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
    if sys.d_f_dqd is None:
        return sys.lagrangian(q, qd) - sys.h(s)
    return (qd * force).sum(axis=-1) - (sys.energy(q, qd) + sys.h(s))


def contact_el_field(sys, y):
    """y' = (q', q'', S') at each flat state y = (q, q', S) of a stack
    (..., 2n + 1): one Hessian test and one solve for the stack, and every
    row with the bits of its one-row call.  A last axis other than 2n + 1
    raises ValueError, and a singular Hessian in any row raises with the
    (q, q', S) of the first such row in C order."""
    n = sys.n
    if y.shape[-1:] != (2 * n + 1,):
        raise ValueError(f"states {y.shape} are not (..., {2 * n + 1})")
    q, qd, s = y[..., :n], y[..., n:2 * n], y[..., 2 * n]
    hess = np.asarray(sys.hess_qd(q, qd), dtype=float)
    singular = _singular(hess)
    # one state's verdict is a numpy bool, whose .any() costs a microsecond
    if singular.any() if singular.ndim else singular:
        bad = np.broadcast_to(singular, s.shape)
        row = y[np.unravel_index(np.argmax(bad), bad.shape)]
        raise ImplicitSystemError("singular velocity Hessian", state=(
            row[:n].copy(), row[n:2 * n].copy(), row[2 * n]))
    force = _force_covector(sys, q, qd)
    # dh_ds may return a scalar or one value per state
    rhs = sys.d_l_dq(q, qd) - matvec(sys.mixed_hess(q, qd), qd) \
        - np.asarray(sys.dh_ds(s))[..., None] * force
    dy = np.empty(y.shape)
    dy[..., :n] = qd
    dy[..., n:2 * n] = np.linalg.solve(hess, rhs[..., None])[..., 0]
    dy[..., 2 * n] = _s_rate(sys, q, qd, s, force)
    return dy


@dataclass(frozen=True)
class ContactTrajectory:
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    s: np.ndarray
    energy: np.ndarray       # Lagrangian energy E_L
    energy_mech: np.ndarray  # |q'|^2 / 2
    stopped_early: bool      # the domain guard ended the path before t_end


def analytic_energy_rate(sys, q, qd, s):
    """-(dh/dS) q'_j D_j, the exact rate of the Lagrangian energy, at q
    and q' of shape (..., n) and s of shape (...)."""
    return -sys.dh_ds(s) * (qd * _force_covector(sys, q, qd)).sum(axis=-1)


_STAGE_C = (0.5, 0.5, 1.0)  # RK4 stage i + 1 starts at y + c_i dt k_i


def _s_step(phi, s, r, dt):
    """The increment of one RK4 step of S' = phi_i - r S from S = s, with
    phi[i] the value of phi at stage point i."""
    stage, slopes = s, []
    for i in range(4):
        slopes.append(phi[i] - r * stage)
        if i < 3:
            stage = s + _STAGE_C[i] * dt * slopes[-1]
    return (dt / 6.0) * (slopes[0] + 2.0 * slopes[1] + 2.0 * slopes[2]
                         + slopes[3])


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
    row is not finite up to that row.  S is filled a block of
    ``CHECK_ROWS`` rows at a time from the row s before the block:
    S_(k0+m) = c^m s + sum_(j<m) c^(m-1-j) b_(k0+j), one lower-triangular
    product per block, as ``linear_fill`` fills z."""
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
    if sys.domain_guard is not None:
        outside = ~sys.domain_guard(zs[1:, :n], zs[1:, n:])
        if outside.any():
            keep = steps = int(np.argmax(outside)) + 1
    eye = np.eye(dim)
    amps = [eye]
    for c in _STAGE_C:
        amps.append(eye + c * dt * g @ amps[-1])
    # stage point i of step k is stages[i, k] = A_i z_k
    stages = (np.reshape(amps, (-1, dim)) @ zs[:steps].T).reshape(
        4, dim, steps).transpose(0, 2, 1)
    q, qd = stages[..., :n], stages[..., n:]
    if _singular(np.asarray(sys.hess_qd(q, qd), dtype=float)).any():
        return None
    b = _s_step(_s_rate(sys, q, qd, 0.0, _force_covector(sys, q, qd)), 0.0,
                r, dt)
    c = 1.0 + _s_step((0.0,) * 4, 1.0, r, dt)
    # powers[m] = c^m, and row m - 1 of weights holds c^(m - 1 - j) at j < m
    ramp = np.arange(min(CHECK_ROWS, steps))
    powers = c ** np.append(ramp, len(ramp))
    weights = np.tril(powers[np.abs(ramp[:, None] - ramp)])
    s_path = np.empty(steps + 1)
    s_path[0] = y0[dim]
    for start in range(1, steps + 1, CHECK_ROWS):
        rows = s_path[start:start + CHECK_ROWS]
        m = len(rows)
        rows[:] = powers[1:m + 1] * s_path[start - 1] \
            + weights[:m, :m] @ b[start - 1:start - 1 + m]
    # a row that is not finite leaves every later one so
    if not np.isfinite(s_path).all():
        return None
    return np.column_stack([zs[:keep], s_path[:keep]])


def integrate_contact(sys, state0, t_end, dt):
    """RK4 trajectory of the contact Euler-Lagrange field from
    state0 = (q0, q'0, S0), with per-step Lagrangian-energy diagnostics;
    closed-form steps when the system declares linear_projection (see
    the module docstring), rk4_path on contact_el_field otherwise.

    q0 and q'0 must each hold n entries, S0 must be a scalar and the
    initial state must pass the system's domain guard.  linear_projection
    is relied on, not tested: the closed form steps S with
    h(S) = h(0) + dh_ds(0) S and z with the field's (q, q') rows at S = 0.
    """
    n = sys.n
    q0, qd0, s0 = (np.asarray(part, dtype=float) for part in state0)
    if q0.shape != (n,) or qd0.shape != (n,) or s0.shape != ():
        raise ValueError(f"need q0 and qd0 of length {n} and a scalar S0")
    if sys.domain_guard is not None and not sys.domain_guard(q0, qd0):
        raise ValueError("initial state outside the system's domain")
    y0 = np.hstack([q0, qd0, s0])
    post = None
    if sys.domain_guard is not None:
        def post(y):
            return y if sys.domain_guard(y[:n], y[n:2 * n]) else None
    times, states, stopped_early = fast_path(
        partial(_closed_form_fill, sys), partial(contact_el_field, sys), y0,
        t_end, dt, post)
    qs = states[:, :n]
    qds = states[:, n:2 * n]
    ss = states[:, 2 * n]
    energy = sys.energy(qs, qds)
    e_mech = 0.5 * np.einsum("ij,ij->i", qds, qds)
    return ContactTrajectory(times=times, q=qs, qd=qds, s=ss, energy=energy,
                             energy_mech=e_mech, stopped_early=stopped_early)


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
    L I'' + R I' + C I = 0; the circuits decouple as R -> 0.
    """
    if l1 <= 0 or l2 <= 0 or c1 <= 0 or c2 <= 0:
        raise ValueError("inductances and capacitances must be positive")
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
    mechanical energy q'^2 / 2 decays at rate -gamma q'^2.
    """
    gamma = float(gamma)
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
