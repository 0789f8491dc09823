"""Named invariant suites for every module, runnable from the CLI.

Each suite re-verifies the structural identities of its module on seeded
random data and returns one CheckResult per declared invariant.  Seeds
are fixed so repeated runs are deterministic; suites are merged in
sorted order by name.

An invariant that a CLI run also reports has its formula and tolerance
in one helper here, which the suite and the CLI both call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import purestate as ps
from .algebra import (build_su_basis, from_coherence_vector,
                      structure_constants, to_coherence_vector)
from .contact import (ScalarField, central_gradient,
                      contact_hamiltonian_field, darboux_chart,
                      generalized_contact_field, homomorphism_residual,
                      jacobi_bracket, nondegeneracy_determinant, reeb_field)
from .gkls import (apply_generator, build_model, decompose_field,
                   evaluate_component_fields, hamiltonian_gradient_field,
                   integrate, integrate_coherence_field)
from .integrators import rk4_path
from .mechanics import (analytic_energy_rate, coupled_damped_oscillators,
                        friction_system, hamiltonianity_criterion,
                        integrate_contact, representative_matrix, rlc_single)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


def result(name, residual, tol):
    """CheckResult that passes when residual < tol."""
    return CheckResult(name=name, passed=bool(residual < tol),
                       residual=float(residual))


def five_point_rate(values, dt):
    """Fourth-order central difference of a series sampled every dt, at
    its interior points values[2:-2]."""
    if len(values) < 5:
        raise ValueError(f"a five-point rate needs at least 5 rows, the "
                         f"path has {len(values)}")
    return (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3]
            + values[:-4]) / (12 * dt)


def trace_preservation(deviations):
    """gkls/trace-preservation: the largest |deviation| of a trace from its
    exact value (Tr rho = 1 along a path, Tr L(rho) = 0 for a generator)."""
    return result("gkls/trace-preservation",
                  float(np.max(np.abs(deviations))), 1e-10)


def positivity(min_eigenvalues):
    """gkls/positivity: the most negative eigenvalue along a path."""
    return result("gkls/positivity",
                  max(0.0, -float(np.min(min_eigenvalues))), 1e-8)


def contact_residuals(cases):
    """purestate/contact-residuals: the worst residual of the three contact
    identities of Z = X_a + Y0_b over cases of (a, b, unit chart point)."""
    return result("purestate/contact-residuals", max(
        max(ps.contact_residuals(a, b, z)) for a, b, z in cases), 1e-9)


def decomposition_identities(cases):
    """gkls/decomposition-sum-identity (A = Hmat - Vmat + Kmat) and
    gkls/nonlinear-cancellation (X_H - Y_V + Z_K = A x + B), worst over
    cases of (model, coherence vectors)."""
    sum_res, cancel_res = 0.0, 0.0
    for model, points in cases:
        dec = decompose_field(model)
        sum_res = max(sum_res, float(np.max(np.abs(
            model.A - (dec.Hmat - dec.Vmat + dec.Kmat)))))
        for x in points:
            xh, yv, zk = evaluate_component_fields(model, dec, x)
            cancel_res = max(cancel_res, float(np.max(np.abs(
                xh - yv + zk - (model.A @ x + model.B)))))
    return [result("gkls/decomposition-sum-identity", sum_res, 1e-12),
            result("gkls/nonlinear-cancellation", cancel_res, 1e-12)]


def exactness_residual(chart, point, step):
    """Max-norm of omega - d eta at a point of a chart, with
    (d eta)_ab = d_a eta_b - d_b eta_a from central differences."""
    jac = central_gradient(chart.eta, point, step)  # jac[b, a] = d_a eta_b
    return float(np.max(np.abs(np.asarray(chart.omega(point))
                               - (jac.T - jac))))


def energy_rate_identity(name, sys, traj, dt):
    """Measured dE_L/dt against -(dh/dS) q'_j D_j along a contact path,
    relative to max(1, the largest analytic rate)."""
    measured = five_point_rate(traj.energy, dt)
    analytic = np.array([analytic_energy_rate(sys, traj.q[i], traj.qd[i],
                                              traj.s[i])
                         for i in range(2, len(traj.times) - 2)])
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return result(name, float(np.max(np.abs(measured - analytic))) / scale,
                  1e-6)


def friction_invariants(gamma, traj, dt):
    """Conserved E_L = q' + gamma q and the mechanical energy q'^2 / 2
    decaying at rate -gamma q'^2 along a q' ln q' friction path."""
    e_l = traj.qd[:, 0] + gamma * traj.q[:, 0]
    mech_rate = five_point_rate(traj.energy_mech, dt)
    return [
        result("mechanics/friction-energy-conservation",
               float(np.max(np.abs(e_l - e_l[0]))), 1e-8),
        result("mechanics/friction-mechanical-dissipation",
               float(np.max(np.abs(mech_rate
                                   + gamma * traj.qd[2:-2, 0] ** 2))), 1e-6),
    ]


def _random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def _random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_model(rng, n, scale=0.6):
    basis = build_su_basis(n)
    jumps = [scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
             for _ in range(2)]
    return build_model(basis, _random_hermitian(rng, n), jumps)


def algebra_suite():
    rng = np.random.default_rng(101)
    gram_res, trace_res, jacobi_res, trip_res, affine_res = 0, 0, 0, 0, 0
    for n in (2, 3, 4):
        basis = build_su_basis(n)
        size = n * n - 1
        gram = np.einsum("jab,kba->jk", basis.tau, basis.tau).real
        gram_res = max(gram_res, float(np.max(np.abs(gram - np.eye(size)))))
        trace_res = max(trace_res, float(np.max(np.abs(
            np.einsum("jaa->j", basis.tau)))))
        c, _ = structure_constants(basis.tau)
        cyc = np.einsum("mjk,rml->jklr", c, c)
        jacobi_res = max(jacobi_res, float(np.max(np.abs(
            cyc + cyc.transpose(1, 2, 0, 3) + cyc.transpose(2, 0, 1, 3)))))
        for _ in range(20):
            a = _random_hermitian(rng, n)
            a = a + (1.0 - np.trace(a).real) * np.eye(n) / n
            x = to_coherence_vector(a, basis)
            trip_res = max(trip_res, float(np.max(np.abs(
                from_coherence_vector(x, basis) - a))))
        obs = _random_hermitian(rng, n)
        a0 = np.trace(obs).real / n
        a_vec = np.einsum("jab,ba->j", basis.tau, obs).real
        for _ in range(10):
            x = rng.normal(size=size)
            direct = np.trace(obs @ from_coherence_vector(x, basis)).real
            affine_res = max(affine_res, abs(direct - (a0 + a_vec @ x)))
    return [result("algebra/basis-orthonormality", gram_res, 1e-12),
            result("algebra/basis-traceless", trace_res, 1e-12),
            result("algebra/structure-jacobi-identity", jacobi_res, 1e-10),
            result("algebra/coherence-round-trip", trip_res, 1e-12),
            result("algebra/expectation-affine", affine_res, 1e-12)]


def gkls_suite():
    rng = np.random.default_rng(202)
    results = []
    # |Tr L(rho)| by scalar abs: numpy's vectorised complex abs can differ
    # from it in the last bit, which would move the reported residual
    trace_sizes = []
    cases = []
    for n in (2, 3):
        for _ in range(5):
            m = _random_model(rng, n)
            points = []
            for _ in range(20):
                rho = _random_density(rng, n)
                trace_sizes.append(abs(np.trace(apply_generator(m, rho))))
                points.append(rng.normal(size=n * n - 1))
            cases.append((m, points))
    results.append(trace_preservation(trace_sizes))
    results.extend(decomposition_identities(cases))

    basis = build_su_basis(3)
    m = build_model(basis, _random_hermitian(rng, 3))
    traj = integrate(m, _random_density(rng, 3), t_end=10.0, dt=5e-3)
    spectrum_res = float(np.max(np.abs(traj.spectra - traj.spectra[0])))
    results.append(result("gkls/unitary-spectrum-invariance",
                          spectrum_res, 1e-8))

    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    field = hamiltonian_gradient_field(basis, _random_hermitian(rng, 3),
                                       _random_hermitian(rng, 3, 0.5))
    traj = integrate_coherence_field(
        field, to_coherence_vector(np.outer(psi, psi.conj()), basis),
        2.0, 2e-3, basis)
    rank_res = float(np.max(np.abs(traj.ranks - 1)))
    results.append(result("gkls/gradient-flow-rank-constancy",
                          rank_res, 0.5))

    m = _random_model(rng, 2, scale=0.5)
    traj = integrate(m, _random_density(rng, 2), t_end=5.0, dt=2e-3)
    results.append(positivity(traj.min_eigenvalues))
    return results


def purestate_suite():
    rng = np.random.default_rng(303)
    results = []
    kaehler_res = 0.0
    for n in (2, 3):
        # basis psi_a: <psi_a, psi_b> = g_ab + i omega_ab, J psi_a = -i psi_a
        omega, g, j = ps.ambient_tensors(n)
        psis = [ps.from_chart(e) for e in np.eye(2 * n)]
        form = np.array([[np.vdot(pa, pb) for pb in psis] for pa in psis])
        j_form = np.column_stack([ps.to_chart(-1j * pa) for pa in psis])
        kaehler_res = max(kaehler_res, *(
            float(np.max(np.abs(d))) for d in (
                form.real - g, form.imag - omega, j - j_form,
                j.T @ omega - g)))
    results.append(result("purestate/kaehler-compatibility",
                          kaehler_res, 1e-14))

    tangency_res, commute_res, rank_bad = 0.0, 0.0, 0.0
    residual_cases = []
    for n in (2, 3):
        for _ in range(10):
            a = _random_hermitian(rng, n)
            b = _random_hermitian(rng, n)
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            z = ps.to_chart(psi)
            for vec in (ps.hamiltonian_field(a, z), ps.gradient_field(b, z),
                        ps.phase_field(z)):
                tangency_res = max(tangency_res, abs(float(z @ vec)))
            residual_cases.append((a, b, z))
            jac_g = central_gradient(lambda p: ps.gradient_field(b, p), z)
            jac_p = central_gradient(ps.phase_field, z)
            bracket = jac_g @ ps.phase_field(z) - jac_p \
                @ ps.gradient_field(b, z)
            commute_res = max(commute_res, float(np.max(np.abs(bracket))))
            eta0, _ = ps.contact_form(z)
            stack = np.vstack([ps.pullback_omega0(z), eta0, z])
            if np.linalg.matrix_rank(stack, tol=1e-10) != 2 * n:
                rank_bad = 1.0
    results += [result("purestate/sphere-tangency", tangency_res, 1e-12),
                contact_residuals(residual_cases),
                result("purestate/gradient-projectability", commute_res, 1e-9),
                result("purestate/contact-volume-rank", rank_bad, 0.5)]

    basis = build_su_basis(2)
    a = _random_hermitian(rng, 2, 0.7)
    b = _random_hermitian(rng, 2, 0.4)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 /= np.linalg.norm(psi0)
    times, psis = ps.integrate_sphere_flow(a, b, psi0, 2.0, 2e-3)
    field = hamiltonian_gradient_field(basis, -a, -2.0 * b)
    traj = integrate_coherence_field(field, ps.project_to_bloch(psi0, basis),
                                     2.0, 2e-3, basis)
    proj_res = 0.0
    for idx in (len(times) // 2, len(times) - 1):
        bloch = ps.project_to_bloch(psis[idx], basis)
        proj_res = max(proj_res, float(np.max(np.abs(
            bloch - traj.points[idx]))))
    results.append(result("purestate/projection-consistency",
                          proj_res, 1e-6))
    return results


def contact_suite():
    rng = np.random.default_rng(404)
    chart = darboux_chart(1)

    def quadratic(seed_rng):
        c0 = seed_rng.normal()
        lin = seed_rng.normal(size=3)
        quad = seed_rng.normal(size=(3, 3))
        quad = (quad + quad.T) / 2
        return ScalarField(value=lambda p: c0 + lin @ p + 0.5 * p @ quad @ p,
                           gradient=lambda p: lin + quad @ p)

    reeb_res, eta_res, antisym_res, reduce_res, homo_res = 0, 0, 0, 0, 0
    nondeg_bad, exact_res = 0.0, 0.0
    for _ in range(20):
        point = rng.normal(size=3)
        xi = reeb_field(chart, point)
        w = np.asarray(chart.omega(point))
        reeb_res = max(reeb_res, float(np.max(np.abs(w.T @ xi))),
                       abs(chart.eta(point) @ xi - 1.0))
        if nondegeneracy_determinant(chart, point) <= 1e-12:
            nondeg_bad = 1.0
        # eta is affine on this chart: its central differences are exact
        # up to rounding at any step, and a large one keeps rounding small
        exact_res = max(exact_res, exactness_residual(chart, point, 1e-2))
        f = quadratic(rng)
        g = quadratic(rng)
        vec = contact_hamiltonian_field(chart, f, point)
        eta_res = max(eta_res, abs(chart.eta(point) @ vec - f(point)))
        antisym_res = max(antisym_res, abs(
            jacobi_bracket(chart, f, g, point)
            + jacobi_bracket(chart, g, f, point)))
        gen = generalized_contact_field(chart, f, f.grad, point)
        reduce_res = max(reduce_res, float(np.max(np.abs(
            gen - f(point) * xi))))
    for _ in range(5):
        point = 0.5 * rng.normal(size=3)
        homo_res = max(homo_res, homomorphism_residual(
            chart, quadratic(rng), quadratic(rng), point))
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
    soundness_res = 0.0
    count = 0
    while count < 10:
        raw = rng.normal(size=(4, 4))
        lam = raw - raw.T
        if abs(np.linalg.det(lam)) < 1e-6:
            continue
        sym = rng.normal(size=(4, 4))
        g = lam @ (sym + sym.T)
        scale = np.linalg.norm(g, 2)
        res = hamiltonianity_criterion(g)
        bounds = np.array([scale ** (2 * k + 1) for k in range(4)])
        soundness_res = max(soundness_res, float(np.max(
            np.abs(res.odd_traces) / bounds)))
        count += 1
    results.append(result("mechanics/odd-trace-soundness",
                          soundness_res, 1e-10))

    damped = hamiltonianity_criterion(representative_matrix(
        *coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2)))
    results.append(CheckResult(
        name="mechanics/damped-oscillators-not-hamiltonian",
        passed=damped.verdict == "not-hamiltonian",
        residual=float(abs(damped.odd_traces[0]))))

    dt = 1e-3
    sys = rlc_single(0.4, 1.2, 0.9)
    traj = integrate_contact(sys, ([1.0], [0.0], 0.0), 3.0, dt)
    results.append(energy_rate_identity("mechanics/energy-rate-identity",
                                        sys, traj, dt))

    gamma = 0.5
    traj = integrate_contact(friction_system(gamma), ([0.0], [1.0], 0.0),
                             8.0, dt)
    results.extend(friction_invariants(gamma, traj, dt))

    # projectable contact flow vs reduced second-order dynamics
    v_coeff, gam = 1.1, 0.3
    contact_sys = rlc_single(gam, 1.0, 1.0 / v_coeff)
    ctraj = integrate_contact(contact_sys, ([1.0], [0.0], 0.2), 4.0, dt)
    _, reduced = rk4_path(
        lambda y: np.array([y[1], -v_coeff * y[0] - gam * y[1]]),
        np.array([1.0, 0.0]), 4.0, dt)
    results.append(result(
        "mechanics/contact-reduction-consistency",
        float(np.max(np.abs(ctraj.q[:, 0] - reduced[:, 0]))), 1e-8))
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
            raise KeyError(f"unknown module {filter!r}; choose from {names}")
        names = [filter]
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
