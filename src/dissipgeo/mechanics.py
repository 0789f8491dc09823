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
h = 0.  The field maps the flat state y = (q, q', S) of shape (2n + 1,)
to y'.  For n = 1 the velocity Hessian is one number h: the field tests
|h| <= HESSIAN_DET_TOL and takes q'' = rhs / h, the very bits a 1 x 1 LU
solve returns, with no LAPACK call; n >= 2 uses det and solve, with the
scale-free test |det H| <= HESSIAN_DET_TOL max|H_jk|^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .integrators import rk4_path

HESSIAN_DET_TOL = 1e-10
MASS_DET_TOL = 1e-12


class ImplicitSystemError(RuntimeError):
    """Singular mass matrix or velocity Hessian; carries ``.state``."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class LinearSecondOrderSystem:
    """m q'' + gamma q' + omega q = 0 with numerical n x n matrices."""

    n: int
    m: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray


def coupled_damped_oscillators(omega1, omega2, gamma1, gamma2, kappa, delta):
    """Two oscillators with position coupling kappa and velocity coupling
    delta (unit masses)."""
    return LinearSecondOrderSystem(
        n=2, m=np.eye(2),
        gamma=np.array([[gamma1, delta], [delta, gamma2]], dtype=float),
        omega=np.array([[omega1 ** 2, kappa], [kappa, omega2 ** 2]],
                       dtype=float))


def representative_matrix(sys):
    """G with [[0, I], [-m^-1 omega, -m^-1 gamma]] block structure."""
    if abs(np.linalg.det(sys.m)) <= MASS_DET_TOL:
        raise ImplicitSystemError("singular mass matrix: implicit system")
    m_inv = np.linalg.inv(sys.m)
    n = sys.n
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = -m_inv @ sys.omega
    g[n:, n:] = -m_inv @ sys.gamma
    return g


@dataclass(frozen=True)
class HamiltonianityResult:
    """Odd power traces of G and the resulting verdict.

    verdict is one of "hamiltonian-admissible", "not-hamiltonian" or
    "inconclusive-non-generic" (repeated eigenvalues void the criterion).
    """

    odd_traces: np.ndarray
    verdict: str
    generic: bool


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
    bounds = np.array([max(scale, 1e-30) ** (2 * k + 1) for k in range(dim)])
    traceless = bool(np.all(np.abs(traces) < 1e-9 * bounds))
    if not traceless:
        verdict = "not-hamiltonian"
    elif generic:
        verdict = "hamiltonian-admissible"
    else:
        verdict = "inconclusive-non-generic"
    return HamiltonianityResult(odd_traces=traces, verdict=verdict,
                                generic=generic)


def traceless_decomposition(g):
    """Split G = A + D with A traceless and the canonical remainder
    D = (Tr G / 2n) I; any other split differs by a traceless shift."""
    g = np.asarray(g, dtype=float)
    d = (np.trace(g) / g.shape[0]) * np.eye(g.shape[0])
    return g - d, d


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
    mixed_hess(q, q')[j, k] is d^2 L / dq_k dq'_j.  The velocity Hessian
    must stay invertible along trajectories.  domain_guard, when set,
    stops integration cleanly once it returns False.
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

    def energy(self, q, qd):
        """Lagrangian energy E_L = q'_j dL/dq'_j - L."""
        return float(np.dot(qd, self.d_l_dqd(q, qd))
                     - self.lagrangian(q, qd))


def _force_covector(sys, q, qd):
    d_dqd = sys.d_l_dqd if sys.d_f_dqd is None else sys.d_f_dqd
    return np.asarray(d_dqd(q, qd), dtype=float)


def contact_el_field(sys, y):
    """y' = (q', q'', S') at the flat state y = (q, q', S)."""
    n = sys.n
    q, qd, s = y[:n], y[n:2 * n], y[2 * n]
    hess = np.asarray(sys.hess_qd(q, qd), dtype=float)
    if n == 1:
        singular = abs(hess.item()) <= HESSIAN_DET_TOL
    else:
        singular = abs(np.linalg.det(hess)) \
            <= HESSIAN_DET_TOL * abs(hess).max() ** n
    if singular:
        raise ImplicitSystemError("singular velocity Hessian",
                                  state=(q.copy(), qd.copy(), s))
    force = _force_covector(sys, q, qd)
    rhs = np.asarray(sys.d_l_dq(q, qd), dtype=float) \
        - np.asarray(sys.mixed_hess(q, qd), dtype=float) @ qd \
        - float(sys.dh_ds(s)) * force
    dy = np.empty_like(y)
    dy[:n] = qd
    dy[n:2 * n] = rhs / hess.item() if n == 1 else np.linalg.solve(hess, rhs)
    if sys.d_f_dqd is None:
        dy[2 * n] = float(sys.lagrangian(q, qd)) - float(sys.h(s))
    else:
        dy[2 * n] = float(qd @ force) - (sys.energy(q, qd) + float(sys.h(s)))
    return dy


@dataclass(frozen=True)
class ContactTrajectory:
    times: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    s: np.ndarray
    energy: np.ndarray       # Lagrangian energy E_L
    energy_mech: np.ndarray  # |q'|^2 / 2


def analytic_energy_rate(sys, q, qd, s):
    """-(dh/dS) q'_j D_j, the exact rate of the Lagrangian energy."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qd = np.atleast_1d(np.asarray(qd, dtype=float))
    return -float(sys.dh_ds(s)) * float(qd @ _force_covector(sys, q, qd))


def integrate_contact(sys, state0, t_end, dt):
    """RK4 trajectory of the contact Euler-Lagrange field from
    state0 = (q0, q'0, S0), with per-step Lagrangian-energy diagnostics.

    q0 and q'0 must each hold n entries, S0 must be a scalar, and the
    initial state must pass the system's domain guard.
    """
    n = sys.n
    q0, qd0, s0 = (np.asarray(part, dtype=float) for part in state0)
    if q0.shape != (n,) or qd0.shape != (n,) or s0.shape != ():
        raise ValueError(f"need q0 and qd0 of length {n} and a scalar S0")
    if sys.domain_guard is not None and not sys.domain_guard(q0, qd0):
        raise ValueError("initial state outside the system's domain")
    post = None
    if sys.domain_guard is not None:
        def post(y):
            return y if sys.domain_guard(y[:n], y[n:2 * n]) else None
    times, states = rk4_path(partial(contact_el_field, sys),
                             np.hstack([q0, qd0, s0]), t_end, dt, post=post)
    qs = states[:, :n]
    qds = states[:, n:2 * n]
    ss = states[:, 2 * n]
    energy = np.array([sys.energy(qs[i], qds[i]) for i in range(len(times))])
    e_mech = 0.5 * np.einsum("ij,ij->i", qds, qds)
    return ContactTrajectory(times=times, q=qs, qd=qds, s=ss, energy=energy,
                             energy_mech=e_mech)


def projectability_check(sys):
    """True iff the contact dynamics projects to a second-order flow on
    (q, q'): h must be linear in S (the force and S' then decouple from
    S); the dissipation one-forms here never depend on S by construction.
    h'' is the central difference of dh_ds (step 1e-4) at ten S in
    [-2, 2], and counts as zero below 1e-10.
    """
    step = 1e-4
    for s in np.linspace(-2.0, 2.0, 10):
        second = (float(sys.dh_ds(s + step)) - float(sys.dh_ds(s - step))) \
            / (2.0 * step)
        if abs(second) > 1e-10:
            return False
    return True


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
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: 0.5 * l_ind * qd[0] ** 2
        - q[0] ** 2 / (2.0 * cap),
        d_l_dq=lambda q, qd: np.array([-q[0] / cap]),
        d_l_dqd=lambda q, qd: np.array([l_ind * qd[0]]),
        hess_qd=lambda q, qd: np.array([[l_ind]]),
        mixed_hess=lambda q, qd: np.zeros((1, 1)),
        h=lambda s: rate * s,
        dh_ds=lambda s: rate)


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
    return ContactLagrangianSystem(
        n=2,
        lagrangian=lambda q, qd: 0.5 * float(qd @ l_mat @ qd)
        - 0.5 * float(q @ c_mat @ q),
        d_l_dq=lambda q, qd: -(c_mat @ q),
        d_l_dqd=lambda q, qd: l_mat @ qd,
        hess_qd=lambda q, qd: l_mat,
        mixed_hess=lambda q, qd: np.zeros((2, 2)),
        h=lambda s: s,
        dh_ds=lambda s: 1.0,
        d_f_dqd=lambda q, qd: r_mat @ qd)


def friction_system(gamma):
    """Local Lagrangian L = q' ln q' - gamma q for q'' = -gamma q'.

    Valid on the chart q' > 0 only; integration stops cleanly if the
    velocity falls below 1e-10.  Conserves E_L = q' + gamma q while the
    mechanical energy q'^2 / 2 decays at rate -gamma q'^2.
    """
    gamma = float(gamma)
    return ContactLagrangianSystem(
        n=1,
        lagrangian=lambda q, qd: qd[0] * np.log(qd[0]) - gamma * q[0],
        d_l_dq=lambda q, qd: np.array([-gamma]),
        d_l_dqd=lambda q, qd: np.array([np.log(qd[0]) + 1.0]),
        hess_qd=lambda q, qd: np.array([[1.0 / qd[0]]]),
        mixed_hess=lambda q, qd: np.zeros((1, 1)),
        domain_guard=lambda q, qd: qd[0] > 1e-10)
