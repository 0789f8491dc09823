"""Named invariant suites for every module, runnable from the CLI.

Each suite re-verifies the structural identities of its module on seeded
random data and returns one CheckResult per declared invariant.  Seeds
are fixed so repeated runs are deterministic; suites are merged in
sorted order by name.  A suite draws its random data in a fixed RNG
order as stacks, each run of consecutive normal draws one ``_normals``
call and each uniform draw one call, builds its cases from them once,
then evaluates its identities on stacks, per n or per suite, through the
batch axes of ``algebra``, ``gkls``, ``contact``, ``purestate`` and
``mechanics``: one call per stack, a stack of GKLS models too, and one
field call per stencil.  ``flow_oracle`` alone makes the exponential
oracles' rows, 0, s, 2s, ... and the last, s = steps // ``ORACLE_ROWS``
or 1 in a run and a suite alike: the powers of one ``expm`` per span
width reach a block of states in one stacked product, none overflowing.

Some invariants pass on their own draws only: reseeded,
``purestate/observed-order`` and ``gkls/unitary-spectrum-invariance``
fail now and then.  So a block added to a suite draws from a generator
of its own, as the strata of ``gkls/gradient-flow-rank-constancy`` do,
and the draws of the blocks before it stay as they are.

An invariant that a CLI run also reports has its formula and tolerance
in one helper here, which the suite and the CLI both call.  A residual
is scaled by the rule of ``relative`` alone, model by model in a stack
and row by row in ``relative_rows``, so no invariant fails a correct
run for being large; README "Conventions" names each invariant's size.
Every worst case is a numpy max, so a NaN residual never passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import purestate as ps
from .algebra import (build_su_basis, from_coherence_vector, matvec,
                      structure_constants, to_coherence_vector, vecdot)
from .contact import (DegenerateContactError, ScalarField, central_gradient,
                      contact_hamiltonian_field, darboux_chart,
                      generalized_contact_field, homomorphism_residual,
                      jacobi_bracket, nondegeneracy_determinant, reeb_field)
from .gkls import (apply_generator, build_model, decompose_field,
                   evaluate_component_fields, integrate, spectra)
from .mechanics import (_projected_generator, analytic_energy_rate,
                        contact_el_field, coupled_damped_oscillators,
                        friction_system, hamiltonianity_criterion,
                        integrate_contact, representative_matrix,
                        rlc_coupled, rlc_single)

ORACLE_ROWS = 64  # a run's oracle reads about this many rows of its path
RATE_TOL = 1e-6  # relative tolerance of every five-point rate invariant


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


def result(name, residual, tol):
    """CheckResult that passes when residual < tol."""
    return CheckResult(name=name, passed=bool(residual < tol),
                       residual=float(residual))


def _scale(size, axis=None):
    """max(1, max|size|) over axis, the one scale of every relative
    residual; NaN when size holds a NaN, where Python's max keeps the 1."""
    return np.maximum(1.0, np.max(np.abs(size), axis=axis))


def relative(diff, size):
    """max|diff| / max(1, max|size|): relative above size 1, absolute below."""
    return float(np.max(np.abs(diff)) / _scale(size))


def relative_rows(diff, size):
    """The largest ``relative(diff[k], size[k])`` over the rows k of the
    first axis, as one reduction with the same bits; a NaN in any row
    gives NaN."""
    axes = tuple(range(1, np.ndim(diff)))
    return float(np.max(np.max(np.abs(diff), axis=axes) / _scale(size, axes)))


def expm(a):
    """exp(a) by scaling and squaring (Moler and Van Loan, SIAM Rev. 45,
    2003): the Taylor sum of a / 2^s, theta = ||a / 2^s||_1 < 1/2, by Horner
    to the least degree m with theta^(m+1) / (m+1)! <= 2^-54, at most 14
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), squared s times; the
    oracles' exact flow, sharing nothing with the steppers.  An
    overflowing square fails its oracle; ``cli.main`` mutes the warning."""
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, int(np.frexp(norm)[1]) + 1)
    # 2^-s is exact up to s = 1074; 2.0 ** s overflows from s = 1024
    theta = norm * np.ldexp(1.0, -s)
    m = next((m for m in range(14) if theta ** (m + 1)
              / math.factorial(m + 1) <= 2.0 ** -54), 14)  # NaN: 14
    eye = total = np.eye(len(a), dtype=a.dtype)
    for term in a * (np.ldexp(1.0, -s) / np.arange(m, 0, -1))[:, None, None]:
        total = eye + term @ total  # Horner: I + a / 2^s / k (...)
    for _ in range(s):
        total = total @ total
    return total


def superoperator(model):
    """L on the row-major vec rho, vec(A X B) = (A kron B^T) vec X, from H,
    V and the jumps: it shares neither A, B nor a stepper with a run."""
    eye = np.eye(model.n)
    return sum((np.kron(v, v.conj()) for v in model.jumps),
               1j * (np.kron(eye, model.H.T) - np.kron(model.H, eye))
               - 0.5 * (np.kron(model.V, eye) + np.kron(eye, model.V.T)))


def flow_oracle(gen, y0, t, steps, unit=False):
    """(rows, exact): rows 0, s, 2s, ... and steps of a path of steps equal
    steps over [0, t], s = steps // ORACLE_ROWS or 1, and exp(r t / steps gen)
    y0 at each, normalised if unit.  A span of w steps and length h is k
    products of one expm(h gen / k) per w, k = ceil(h ||gen||_1 / 300) or 1
    but at most w, read at every k-th; b products, the most (or 1) whose
    h ||gen||_1 / k sum to 300, none overflowing, are one stacked product of
    step^1 ... step^b with a state, if unit divided by max |entry| and norm."""
    s = steps // ORACLE_ROWS or 1
    y, norm = np.asarray(y0), np.abs(gen).sum(axis=0).max()
    exact, last = [y[None]], steps % s  # last: a shorter last span, or 0
    for width, count in [(s, steps // s), (last, 1)][:1 + bool(last)]:
        h = width * (t / steps)
        k = int(min(width, np.ceil(h * norm / 300.0))) or 1
        step, theta, total = expm(gen * h / k), h * norm / k, k * count
        b = (total if not theta * total > 300 else int(300 / theta)) or 1
        powers = np.empty_like(step, shape=(b, *step.shape))
        powers[0] = step
        for j in (2 ** i for i in range((b - 1).bit_length())):  # doubling
            powers[j:2 * j] = powers[:min(j, b - j)] @ powers[j - 1]
        for start in range(0, total, b):
            block = powers[:total - start] @ y
            if unit:
                block /= np.abs(block).max(axis=1, keepdims=True)
                block /= np.linalg.norm(block, axis=1, keepdims=True)
            y = block[-1]
            exact.append(block[(k - 1 - start) % k::k])
    return np.append(np.arange(0, steps, s), steps), np.concatenate(exact)


def linear_residual(g, states, t):
    """The linear flows' oracle residual: states at ``flow_oracle``'s rows
    0, s, 2s, ... and the last against y' = G y from states[0], each
    column relative to its exact values."""
    rows, exact = flow_oracle(g, states[0], t, len(states) - 1)
    return relative_rows((states[rows] - exact).T, exact.T)


def five_point_residual(name, values, dt, analytic):
    """The fourth-order central difference of values, sampled every dt, at
    values[2:-2] against the analytic rate there, by ``relative``.  Raises
    ValueError naming the smallest usable dt when the stencil's rounding
    floor, 1.5 eps max|values| / dt on the same scale, reaches RATE_TOL:
    no rate could pass below it."""
    if len(values) < 5:
        raise ValueError(f"a five-point rate needs at least 5 rows, the "
                         f"path has {len(values)}")
    rate = (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3]
            + values[:-4]) / (12 * dt)
    floor = relative(1.5 * np.finfo(float).eps * np.max(np.abs(values)),
                     analytic)
    if floor >= RATE_TOL * dt:
        raise ValueError(f"{name}: dt = {dt!r} is at or below the five-point "
                         f"rounding floor; use dt > {floor / RATE_TOL:.3g}")
    return result(name, relative(rate - analytic, analytic), RATE_TOL)


def trace_preservation(deviations):
    """gkls/trace-preservation: the largest |deviation| of a trace from its
    exact value (Tr rho = 1 along a path, Tr L(rho) = 0 for a generator)."""
    return result("gkls/trace-preservation",
                  float(np.max(np.abs(deviations))), 1e-10)


def positivity(min_eigenvalues):
    """gkls/positivity: the most negative eigenvalue along a path, or NaN;
    0 - min keeps a zero eigenvalue's residual +0."""
    return result("gkls/positivity",
                  np.maximum(0.0, 0.0 - np.min(min_eigenvalues)), 1e-8)


def contact_residuals(cases):
    """purestate/contact-residuals: the worst of the three contact identities
    of Z = X_a + Y0_b over cases (a, b, unit z), each a point or a stack
    of them, every row relative to the max(1, max|a, b|) of its own."""
    return result("purestate/contact-residuals", np.max([np.max(
        np.max(ps.contact_residuals(a, b, z), axis=0)
        / _scale(np.concatenate([a, b], axis=-1), (-2, -1)))
        for a, b, z in cases]), 1e-9)


def observed_order(name, errors):
    """Passes when each log2(e_dt / e_dt/2) over errors at dt, dt/2,
    dt/4, ... lies in [3.7, 4.3], as for a fourth-order method, and no
    error is below 1e3 times the rounding floor 40 eps, one unit roundoff
    per step of the finest run, where an order would be read off
    rounding; the residual is the largest |order - 4|."""
    errors = np.asarray(errors, dtype=float)
    residual = float(np.max(np.abs(np.log2(errors[:-1] / errors[1:]) - 4.0)))
    return CheckResult(name=name, passed=bool(
        residual <= 0.3
        and np.min(errors) >= 1e3 * 40 * np.finfo(float).eps),
        residual=residual)


def decomposition_identities(cases):
    """gkls/decomposition-sum-identity (A = Hmat - Vmat + Kmat) and
    gkls/nonlinear-cancellation (X_H - Y_V + Z_K = A x + B), worst over
    cases of (model or stack of models, points broadcasting against it),
    each model's rows over its own max(1, max|A|), its ``relative`` (a
    division rounds monotonically), as the rounding of either side grows
    with |A|; one split and one evaluation a case."""
    sum_res, cancel_res = [], []
    for model, points in cases:
        points = np.asarray(points, dtype=float)
        size = _scale(model.A, (-2, -1))
        dec = decompose_field(model.basis, model.H, model.V, model.jumps)
        sum_res.append(np.max(np.abs(model.A - (
            dec.Hmat - dec.Vmat + dec.Kmat)) / size[..., None, None]))
        xh, yv, zk = evaluate_component_fields(dec, points)
        cancel_res.append(np.max(np.abs(
            xh - yv + zk - (matvec(model.A, points) + model.B))
            / size[..., None]))
    return [result("gkls/decomposition-sum-identity", np.max(sum_res), 1e-12),
            result("gkls/nonlinear-cancellation", np.max(cancel_res), 1e-12)]


def stratum_tangency(cases):
    """gkls/gradient-flow-rank-constancy: the jump-free field X_H - Y_V
    keeps the rank, as it is tangent to the stratum of rank-r states, so
    at rho = sum_k w_k psi_k psi_k^dag, with range projector P and
    Q = I - P, its matrix T = sum_j v_j tau_j has Q T Q = 0; worst over
    cases of Q T Q relative to its own T.  A case is a stack of states of
    one rank r: (basis, H and V of shape (k, n, n), orthonormal columns
    psi (k, n, r), weights w (k, r) summing to 1); the cases of one n,
    which share its basis, are one projection, one stacked split and one
    evaluation."""
    groups = {}
    for case in cases:
        groups.setdefault(case[0].n, []).append(case)
    res = []
    for group in groups.values():
        basis = group[0][0]
        _, h, v, psis, weights = zip(*group)
        rho, q = (np.concatenate(parts) for parts in zip(*[
            ((p * w[..., None, :]) @ p.conj().swapaxes(-1, -2),
             np.eye(basis.n) - p @ p.conj().swapaxes(-1, -2))
            for p, w in zip(psis, weights)]))
        xh, yv, _ = evaluate_component_fields(
            decompose_field(basis, np.concatenate(h), np.concatenate(v)),
            to_coherence_vector(rho, basis))
        t = np.einsum("kj,jab->kab", xh - yv, basis.tau)
        res.append(relative_rows(q @ t @ q, t))
    return result("gkls/gradient-flow-rank-constancy", np.max(res), 1e-12)


def exactness_residual(chart, point):
    """Max-norm of omega - d eta over a point or a stack of them, with
    (d eta)_ab = d_a eta_b - d_b eta_a from central differences of step
    1e-2: exact up to rounding for an affine eta, and a large step keeps
    the rounding small."""
    jac = central_gradient(chart.eta, point, 1e-2)  # jac[b, a] = d_a eta_b
    return float(np.max(np.abs(np.asarray(chart.omega(point))
                               - (np.swapaxes(jac, -1, -2) - jac))))


def energy_rate_identity(name, sys, states, energy, dt):
    """Measured dE_L/dt of energy, E_L along the contact path states,
    against -(dh/dS) q'_j D_j, relative to the analytic rate."""
    n, mid = sys.n, states[2:-2]
    analytic = analytic_energy_rate(sys, mid[:, :n], mid[:, n:2 * n],
                                    mid[:, 2 * n])
    return five_point_residual(name, energy, dt, analytic)


def friction_invariants(gamma, states, dt):
    """Conserved E_L = q' + gamma q (relative to E_L(0)) and q'^2 / 2 decaying
    at rate -gamma q'^2 (relative to it) along a q' ln q' friction path."""
    q, qd = states[:, 0], states[:, 1]
    e_l = qd + gamma * q
    analytic = -gamma * qd[2:-2] ** 2
    return [
        result("mechanics/friction-energy-conservation",
               relative(e_l - e_l[0], e_l[0]), 1e-8),
        five_point_residual("mechanics/friction-mechanical-dissipation",
                            0.5 * qd ** 2, dt, analytic),
    ]


def hamiltonianity_verdict(name, g, expected):
    """Passes on the expected verdict for G read off ratios that are not
    NaN; the residual is the largest |odd trace| over its bound, the ratio
    the criterion holds to 1e-9."""
    verdict = hamiltonianity_criterion(g)
    residual = float(np.max(verdict.trace_ratios))
    return CheckResult(name=name, passed=bool(
        verdict.verdict == expected and not np.isnan(residual)),
        residual=residual)


def _normals(rng, lead, *shapes):
    """One rng.normal draw read as pieces of the given shapes, each with
    the leading axes lead: row k holds the draws of each shape in turn,
    as a loop over lead drawing them one by one would.  A Generator's
    normal values do not depend on how a draw is chunked, so a run of
    normal draws is one call; a draw of another law ends the run."""
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    flat = rng.normal(size=(*lead, ends[-1]))
    return [flat[..., start:end].reshape(*lead, *shape)
            for start, end, shape in zip(ends, ends[1:], shapes)]


def _complex(parts):
    """parts[..., 0, :, :] + i parts[..., 1, :, :]: the complex matrix of
    a draw of its real and then its imaginary entries, or a stack of them."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _hermitian(parts, scale):
    a = _complex(parts)
    return scale * (a + a.conj().swapaxes(-1, -2)) / 2


def _units(parts):
    """psi / |psi| for psi = parts[..., 0, :] + i parts[..., 1, :]."""
    psi = parts[..., 0, :] + 1j * parts[..., 1, :]
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _densities(parts):
    """g g^dag / Tr(g g^dag) for g = _complex(parts), a stack or one."""
    g = _complex(parts)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _random_gkls(rng, n, scale=0.6):
    """(H, two jumps, a density) of one normal draw, the jumps first."""
    jumps, h, g = _normals(rng, (), (2, 2, n, n), (2, n, n), (2, n, n))
    return _hermitian(h, 1.0), scale * _complex(jumps), _densities(g)


def _random_sphere(rng, lead, n):
    """(a, b, unit psi) of a pure-state flow, stacked over lead, as one
    normal draw."""
    a, b, psi = _normals(rng, lead, (2, n, n), (2, n, n), (2, n))
    return _hermitian(a, 1.0), _hermitian(b, 1.0), _units(psi)


def algebra_suite():
    rng = np.random.default_rng(101)
    gram_res, trace_res, jacobi_res, trip_res, affine_res = [], [], [], [], []
    for n in (2, 3, 4):
        basis = build_su_basis(n)
        size = n * n - 1
        gram = np.einsum("jab,kba->jk", basis.tau, basis.tau).real
        gram_res.append(np.max(np.abs(gram - np.eye(size))))
        trace_res.append(np.max(np.abs(np.einsum("jaa->j", basis.tau))))
        c = structure_constants(basis.tau)
        # cyc[j, k, l, r] = sum_m c[m, j, k] c[r, m, l], one matrix product
        cyc = (c.reshape(size, -1).T @ c.swapaxes(0, 1).reshape(size, -1)
               ).reshape((size,) * 4).swapaxes(2, 3)
        jacobi_res.append(np.max(np.abs(
            cyc + cyc.transpose(1, 2, 0, 3) + cyc.transpose(2, 0, 1, 3))))
        # 20 round trips, then an observable and 10 expectations, one draw
        a, obs, x = _normals(rng, (), (20, 2, n, n), (2, n, n), (10, size))
        a = _hermitian(a, 1.0)
        a = a + (1.0 - np.trace(a, axis1=-2, axis2=-1).real)[
            :, None, None] * np.eye(n) / n
        trip_res.append(np.max(np.abs(from_coherence_vector(
            to_coherence_vector(a, basis), basis) - a)))
        obs = _hermitian(obs, 1.0)
        a0 = np.trace(obs).real / n
        a_vec = np.einsum("jab,ba->j", basis.tau, obs).real
        direct = np.trace(obs @ from_coherence_vector(x, basis),
                          axis1=-2, axis2=-1).real
        affine_res.append(np.max(np.abs(direct - (a0 + vecdot(a_vec, x)))))
    return [result("algebra/basis-orthonormality", np.max(gram_res), 1e-12),
            result("algebra/basis-traceless", np.max(trace_res), 1e-12),
            result("algebra/structure-jacobi-identity", np.max(jacobi_res),
                   1e-10),
            result("algebra/coherence-round-trip", np.max(trip_res), 1e-12),
            result("algebra/expectation-affine", np.max(affine_res), 1e-12)]


def gkls_suite():
    rng = np.random.default_rng(202)
    results = []
    traces, cases = [], []
    bases = {n: build_su_basis(n) for n in (2, 3, 4)}
    for n in (2, 3):
        # five models, each its two jumps, its H and 20 draws of g's real
        # and imaginary entries and of a point, as one draw; built as one
        # (5, 1) stack
        jumps, h, draws = _normals(rng, (5,), (2, 2, n, n), (2, n, n),
                                   (20, 3 * n * n - 1))
        m = build_model(bases[n], _hermitian(h, 1.0)[:, None],
                        0.6 * _complex(jumps)[:, None])
        rhos = _densities(draws[..., :2 * n * n].reshape(5, 20, 2, n, n))
        images = apply_generator(m.H, m.V, m.jumps, rhos)
        traces.append(np.trace(images, axis1=-2, axis2=-1))
        cases.append((m, draws[..., 2 * n * n:]))
    results.append(trace_preservation(traces))
    results.extend(decomposition_identities(cases))

    basis = bases[3]
    h, g = _normals(rng, (), (2, 3, 3), (2, 3, 3))
    m = build_model(basis, _hermitian(h, 1.0))
    x0 = to_coherence_vector(_densities(g), basis)
    _, points, _ = integrate(m, x0, t_end=10.0, dt=5e-3)
    values = spectra(basis, points)[1]
    spectrum_res = float(np.max(np.abs(values - values[0])))
    results.append(result("gkls/unitary-spectrum-invariance",
                          spectrum_res, 1e-8))

    # a pure state on the suite's draws, then five states of every rank
    # 1..n-1 for n = 2, 3, 4 from a generator of their own, so the draws
    # of the invariants below stay as they are
    psi, h, v = _normals(rng, (), (2, 3), (2, 3, 3), (2, 3, 3))
    cases = [(basis, _hermitian(h, 1.0)[None], _hermitian(v, 0.5)[None],
              _units(psi)[None, :, None], np.ones((1, 1)))]
    strata_rng = np.random.default_rng(212)
    for n, n_basis in bases.items():
        for rank in range(1, n):
            # five draws, each its columns and its H and V, then their
            # weights; the stacks make one QR and one Hermitian build each
            cols, hv = _normals(strata_rng, (5,), (2, n, rank), (2, 2, n, n))
            weights = strata_rng.uniform(0.1, 1.0, size=(5, rank))
            cases.append((n_basis, _hermitian(hv[:, 0], 1.0),
                          _hermitian(hv[:, 1], 0.5),
                          np.linalg.qr(_complex(cols))[0],
                          weights / weights.sum(axis=-1, keepdims=True)))
    results.append(stratum_tangency(cases))

    h, jumps, rho0 = _random_gkls(rng, 2, 0.5)
    m = build_model(bases[2], h, jumps)
    x0 = to_coherence_vector(rho0, m.basis)
    _, points, _ = integrate(m, x0, t_end=5.0, dt=2e-3)
    results.append(positivity(spectra(m.basis, points)[1][:, 0]))

    # gkls.integrate at t = 1 against the exact flow at the last of the
    # dt = 0.01 run's rows; two jumps make B != 0, testing the lift's B
    h, jumps, rho0 = _random_gkls(rng, 3)
    m = build_model(basis, h, jumps)
    rho1 = flow_oracle(superoperator(m), np.ravel(rho0), 1.0, 100)[1][-1]
    x0, exact = to_coherence_vector([rho0, rho1.reshape(3, 3)], basis)
    errors = [np.max(np.abs(integrate(m, x0, 1.0, dt)[1][-1] - exact))
              for dt in (0.04, 0.02, 0.01)]
    results.append(observed_order("gkls/observed-order", errors))
    return results


def purestate_suite():
    rng = np.random.default_rng(303)
    kaehler_res, tangency_res, commute_res, proj_res = [], [], [], []
    rank_bad = 0.0
    residual_cases = []
    for n in (2, 3):
        # basis psi_a: <psi_a, psi_b> = g_ab + i omega_ab, J psi_a = -i psi_a
        omega, g, j = ps.ambient_tensors(n)
        psis = ps.from_chart(np.eye(2 * n))
        form = psis.conj() @ psis.T
        j_form = ps.to_chart(-1j * psis).T
        kaehler_res += [np.max(np.abs(d)) for d in (
            form.real - g, form.imag - omega, j - j_form, j.T @ omega - g)]
        basis = build_su_basis(n)
        # ten (a, b, psi), one draw
        a, b, psi = _random_sphere(rng, (10,), n)
        z = ps.to_chart(psi)
        zero = np.zeros_like(a)
        tangency_res.append(np.max(np.abs(vecdot(
            z, np.stack([ps.z_field(a, zero, z), ps.z_field(zero, b, z),
                         ps.phase_field(z)])))))
        residual_cases.append((a, b, z))
        jac_g = central_gradient(lambda p: ps.z_field(zero, b, p), z)
        jac_p = central_gradient(ps.phase_field, z)
        bracket = matvec(jac_g, ps.phase_field(z)) \
            - matvec(jac_p, ps.z_field(zero, b, z))
        commute_res.append(np.max(np.abs(bracket)))
        stack = np.concatenate([ps.pullback_omega0(z), ps.contact_form(z)
                                [..., None, :], z[..., None, :]], axis=-2)
        if np.any(np.linalg.matrix_rank(stack, tol=1e-10) != 2 * n):
            rank_bad = 1.0
        # psi -> rho_psi pushes Z forward to X_H - Y_V with H = -a,
        # V = -2b: the coherence vector of v psi^dag + psi v^dag,
        # 2 Re <psi| tau_j |v> with v = Z(psi), is that field at rho_psi
        pushed = 2.0 * np.einsum("ka,jab,kb->kj", psi.conj(), basis.tau,
                                 ps.from_chart(ps.z_field(a, b, z))).real
        points = ps.project_to_bloch(psi, basis)
        xh, yv, _ = evaluate_component_fields(
            decompose_field(basis, -a, -2.0 * b), points)
        proj_res.append(np.max(np.abs(pushed - (xh - yv))))
    results = [result("purestate/kaehler-compatibility", np.max(kaehler_res),
                      1e-14),
               result("purestate/sphere-tangency", np.max(tangency_res),
                      1e-12),
               contact_residuals(residual_cases),
               result("purestate/gradient-projectability",
                      np.max(commute_res), 1e-9),
               result("purestate/contact-volume-rank", rank_bad, 0.5),
               result("purestate/projection-consistency", np.max(proj_res),
                      1e-12)]

    # the sphere route at t = 2 against the normalised exponential flow
    a, b, psi0 = _random_sphere(rng, (), 2)
    exact = flow_oracle(ps.flow_generator(a, b), psi0, 2.0, 40,
                        unit=True)[1][-1]  # the last row of the dt = 0.05 run
    errors = [np.max(np.abs(ps.integrate_sphere_flow(
        a, b, psi0, 2.0, dt)[1][-1] - exact)) for dt in (0.2, 0.1, 0.05)]
    results.append(observed_order("purestate/observed-order", errors))

    # the generic bordered solve of contact on the sphere chart, with
    # F = f_a / r^2 and alpha = alpha_b pulled back, pushed forward is Z
    chart_res = []
    for n in (2, 3):
        chart, embed, jac = ps.sphere_contact_chart(n)
        a, b, u = _normals(rng, (), (2, n, n), (2, n, n), (2 * n - 1,))
        a, b, u = _hermitian(a, 1.0), _hermitian(b, 1.0), 0.2 * u
        f_tilde = ScalarField(
            value=lambda v: ps.f_value(a, embed(v))
            / ps.norm_squared(embed(v)),
            gradient=lambda v: jac(v).T @ ps.d_f_tilde(a, embed(v)))
        try:
            vec = generalized_contact_field(chart, f_tilde, lambda v: jac(
                v).T @ ps.alpha_tilde(b, embed(v)), u)
            chart_res.append(relative(
                jac(u) @ vec - ps.z_field(a, b, embed(u)), np.append(a, b)))
        except DegenerateContactError:  # a failed solve fails the invariant
            chart_res.append(np.inf)
    results.append(result("purestate/generalized-contact-field",
                          np.max(chart_res), 1e-9))
    return results


def _quadratics(raw):
    """c0 + lin p + p quad p / 2 for the rows (c0, lin, raw quad) of a
    (k, 13) draw, quad the symmetric part of its raw 3 x 3: row k reads
    row k of a stack of points."""
    c0, lin, quad = raw[:, 0], raw[:, 1:4], raw[:, 4:].reshape(-1, 3, 3)
    quad = (quad + quad.swapaxes(-1, -2)) / 2
    return ScalarField(
        value=lambda p: c0 + vecdot(lin, p) + 0.5 * vecdot(p, matvec(quad, p)),
        gradient=lambda p: lin + matvec(quad, p))


def contact_suite():
    rng = np.random.default_rng(404)
    chart = darboux_chart(1)
    # 20 and then 5 (point, f, g), each run one draw
    points, f, g = _normals(rng, (20,), (3,), (13,), (13,))
    f, g = _quadratics(f), _quadratics(g)
    xi = reeb_field(chart, points)
    eta = chart.eta(points)
    reeb_res = np.maximum(np.max(np.abs(matvec(
        np.swapaxes(chart.omega(points), -1, -2), xi))),
        np.max(np.abs(vecdot(eta, xi) - 1.0)))
    nondeg_bad = float(np.any(nondegeneracy_determinant(chart, points)
                              <= 1e-12))
    # eta is affine on this chart: central differences are exact up to
    # rounding
    exact_res = exactness_residual(chart, points)
    eta_res = float(np.max(np.abs(vecdot(
        eta, contact_hamiltonian_field(chart, f, points)) - f(points))))
    antisym_res = float(np.max(np.abs(jacobi_bracket(chart, f, g, points)
                                      + jacobi_bracket(chart, g, f, points))))
    gen = generalized_contact_field(chart, f, f.grad, points)
    reduce_res = float(np.max(np.abs(gen - f(points)[..., None] * xi)))
    points, f, g = _normals(rng, (5,), (3,), (13,), (13,))
    homo_res = float(np.max(homomorphism_residual(
        chart, _quadratics(f), _quadratics(g), 0.5 * points)))
    return [result("contact/reeb-defining-equations", reeb_res, 1e-10),
            result("contact/nondegeneracy", nondeg_bad, 0.5),
            result("contact/exact-chart-consistency", exact_res, 1e-12),
            result("contact/eta-contraction", eta_res, 1e-10),
            result("contact/jacobi-antisymmetry", antisym_res, 1e-10),
            result("contact/alpha-df-degeneracy", reduce_res, 1e-12),
            result("contact/bracket-homomorphism", homo_res, 1e-5)]


def mechanics_suite():
    rng = np.random.default_rng(505)
    results = []
    # Tr((Lambda S)^odd) = 0 for any antisymmetric Lambda, singular or
    # not, at ten draws of (raw, sym) made as one stack
    raw, sym = np.moveaxis(rng.normal(size=(10, 2, 4, 4)), 1, 0)
    g = (raw - raw.swapaxes(-1, -2)) @ (sym + sym.swapaxes(-1, -2))
    results.append(result("mechanics/odd-trace-soundness", float(np.max(
        hamiltonianity_criterion(g).trace_ratios)), 1e-10))

    results.append(hamiltonianity_verdict(
        "mechanics/damped-oscillators-not-hamiltonian",
        representative_matrix(*coupled_damped_oscillators(
            1.0, 2.0, 0.3, 0.7, 0.1, 0.2)), "not-hamiltonian"))

    dt = 1e-3
    sys = rlc_single(0.4, 1.2, 0.9)
    _, states, _ = integrate_contact(sys, ([1.0], [0.0], 0.0), 3.0, dt)
    results.append(energy_rate_identity(
        "mechanics/energy-rate-identity", sys, states,
        sys.energy(states[:, :1], states[:, 1:2]), dt))

    gamma = 0.5
    _, states, _ = integrate_contact(friction_system(gamma),
                                     ([0.0], [1.0], 0.0), 8.0, dt)
    results.extend(friction_invariants(gamma, states, dt))

    # projectable contact flow vs the exact flow of q'' + gam q' + v q = 0
    # at flow_oracle's rows
    v_coeff, gam = 1.1, 0.3
    _, states, _ = integrate_contact(rlc_single(gam, 1.0, 1.0 / v_coeff),
                                     ([1.0], [0.0], 0.2), 4.0, dt)
    g = representative_matrix(np.ones((1, 1)), np.full((1, 1), gam),
                              np.full((1, 1), v_coeff))
    results.append(result("mechanics/contact-reduction-consistency",
                          linear_residual(g, states[:, :2], 4.0), 1e-8))

    # the two halves of linear_projection that the closed form relies on,
    # at random in-domain states of each builder that sets it: the field's
    # (q, q') rows are the linear law z' = G z, and h(S) = h(0) + r S with
    # r = dh_ds(0); a builder's 20 states are one normal and one uniform
    # draw and make one field call, each row relative to its own G z and
    # r S
    res = []
    for sys in (rlc_single(0.4, 1.2, 0.9), friction_system(gamma),
                rlc_coupled(1.0, 1.0, 1.0, 0.5, 0.5, 0.3, 0.2)):
        g, dim = _projected_generator(sys), 2 * sys.n
        h0, r = sys.h(0.0), float(sys.dh_ds(0.0))
        ys = rng.normal(size=(20, dim + 1))
        ys[:, sys.n:dim] = rng.uniform(0.1, 2.0, size=(20, sys.n))
        gz, rs = matvec(g, ys[:, :dim]), r * ys[:, dim]
        res += [relative_rows(contact_el_field(sys, ys)[:, :dim] - gz, gz),
                relative_rows(sys.h(ys[:, dim]) - h0 - rs, rs)]
    results.append(result("mechanics/declared-projection", np.max(res),
                          1e-12))
    return results


SUITES = {
    "algebra": algebra_suite,
    "contact": contact_suite,
    "gkls": gkls_suite,
    "mechanics": mechanics_suite,
    "purestate": purestate_suite,
}


def run_checks(filter=None):
    """Run every suite, or the one named by filter, merged by name."""
    names = sorted(SUITES)
    if filter is not None:
        if filter not in SUITES:
            raise ValueError(f"unknown module {filter!r}; choose from {names}")
        names = [filter]
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
