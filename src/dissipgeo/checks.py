"""Named invariant suites for every module, runnable from the CLI.

Each suite re-verifies the structural identities of its module on seeded
random data and returns one CheckResult per declared invariant.  Seeds
are fixed so repeated runs are deterministic; suites are merged in
sorted order by name.  A suite draws its random data in a fixed RNG
order, a run of normal draws as one stack (a Generator's normal values
do not depend on the chunking), then evaluates its identities on
stacks, per model, per n or per suite, through the batch axes of
``algebra``, ``gkls``, ``contact``, ``purestate`` and ``mechanics``: one
call per stack, and one field call per stencil.  ``linear_oracle``
holds every k-th row of a path to the powers of one ``expm``.

An invariant that a CLI run also reports has its formula and tolerance
in one helper here, which the suite and the CLI both call.
``relative`` alone scales a residual, so no invariant fails a correct
run for being large; README "Conventions" names each invariant's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import purestate as ps
from .algebra import (build_su_basis, from_coherence_vector, matvec,
                      structure_constants, to_coherence_vector, vecdot)
from .contact import (ScalarField, central_gradient,
                      contact_hamiltonian_field, darboux_chart,
                      generalized_contact_field, homomorphism_residual,
                      jacobi_bracket, nondegeneracy_determinant, reeb_field)
from .gkls import (apply_generator, build_model, decompose_field,
                   evaluate_component_fields, integrate)
from .mechanics import (_projected_generator, analytic_energy_rate,
                        contact_el_field, coupled_damped_oscillators,
                        friction_system, hamiltonianity_criterion,
                        integrate_contact, representative_matrix,
                        rlc_coupled, rlc_single)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


def result(name, residual, tol):
    """CheckResult that passes when residual < tol."""
    return CheckResult(name=name, passed=bool(residual < tol),
                       residual=float(residual))


def relative(diff, size):
    """max|diff| / max(1, max|size|): relative above size 1, absolute below."""
    return float(np.max(np.abs(diff))) / max(1.0, float(np.max(np.abs(size))))


def expm(a):
    """exp(a) by scaling and squaring (Moler and Van Loan, SIAM Rev. 45,
    2003): the degree-18 Taylor sum of a / 2^s, ||a / 2^s||_1 < 1/2, squared
    s times; the oracles' exact flow, sharing nothing with the steppers.
    An overflowing square fails its oracle; ``cli.main`` mutes the warning."""
    s = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)
    a = a / 2.0 ** s
    term = total = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ a / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def gkls_flow(model, rho0, t):
    """exp(t L) rho0 by ``expm`` of L's superoperator on the row-major
    vec rho0, with vec(A X B) = (A kron B^T) vec X; built from H, the
    jumps and V, it shares neither A, B nor a stepper with a run."""
    eye = np.eye(model.n)
    sup = 1j * (np.kron(eye, model.H.T) - np.kron(model.H, eye)) \
        - 0.5 * (np.kron(model.V, eye) + np.kron(eye, model.V.T))
    for v in model.jumps:
        sup = sup + np.kron(v, v.conj())
    return (expm(t * sup) @ np.ravel(rho0)).reshape(model.n, model.n)


def sphere_flow(a, b, psi0, t):
    """exp(t M) psi0 / |exp(t M) psi0| for M = i a + b, as k products with
    ``expm`` of t M / k, each normalised, k = ceil(t ||M||_1 / 300) or 1,
    so that no product overflows; it shares no stepper with a run."""
    gen = ps.flow_generator(a, b)
    k = int(np.ceil(t * np.linalg.norm(gen, 1) / 300.0)) or 1
    step = expm(gen * t / k)
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(k):
        psi = step @ psi
        psi = psi / np.linalg.norm(psi)
    return psi


def five_point_rate(values, dt):
    """Fourth-order central difference of a series sampled every dt, at
    its interior points values[2:-2]."""
    if len(values) < 5:
        raise ValueError(f"a five-point rate needs at least 5 rows, the "
                         f"path has {len(values)}")
    return (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3]
            + values[:-4]) / (12 * dt)


def five_point_residual(name, values, dt, analytic, tol):
    """The five-point rate of values against the analytic rate at
    values[2:-2], by ``relative``.  Raises ValueError naming the smallest
    usable dt when the stencil's rounding floor, 1.5 eps max|values| / dt
    on the same scale, reaches tol: no rate could pass below it."""
    rate = five_point_rate(values, dt)
    floor = relative(1.5 * np.finfo(float).eps * np.max(np.abs(values)),
                     analytic)
    if floor >= tol * dt:
        raise ValueError(f"{name}: dt = {dt!r} is at or below the five-point "
                         f"rounding floor; use dt > {floor / tol:.3g}")
    return result(name, relative(rate - analytic, analytic), tol)


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
    """purestate/contact-residuals: the worst of the three contact identities
    of Z = X_a + Y0_b over cases (a, b, unit z), each a point or a stack
    of them, every row relative to the max(1, max|a, b|) of its own."""
    return result("purestate/contact-residuals", max(float(np.max(
        np.max(ps.contact_residuals(a, b, z), axis=0) / np.maximum(1.0, np.max(
            np.abs(np.concatenate([a, b], axis=-1)), axis=(-2, -1)))))
        for a, b, z in cases), 1e-9)


def observed_order(name, errors, floor):
    """Passes when each log2(e_dt / e_dt/2) over errors at dt, dt/2,
    dt/4, ... lies in [3.7, 4.3], as for a fourth-order method, and no
    error is below 1e3 times the rounding floor, where an order would be
    read off rounding; the residual is the largest |order - 4|."""
    errors = np.asarray(errors, dtype=float)
    residual = float(np.max(np.abs(np.log2(errors[:-1] / errors[1:]) - 4.0)))
    return CheckResult(name=name, passed=bool(
        residual <= 0.3 and np.min(errors) >= 1e3 * floor),
        residual=residual)


def decomposition_identities(cases):
    """gkls/decomposition-sum-identity (A = Hmat - Vmat + Kmat) and
    gkls/nonlinear-cancellation (X_H - Y_V + Z_K = A x + B), worst over
    cases of (model, stack of coherence vectors), each relative to the |A|
    of its model, as the rounding of either side grows with |A|; one
    split and one evaluation per model."""
    sum_res, cancel_res = 0.0, 0.0
    for model, points in cases:
        points = np.asarray(points, dtype=float)
        dec = decompose_field(model.basis, model.H, model.V, model.jumps)
        sum_res = max(sum_res, relative(
            model.A - (dec.Hmat - dec.Vmat + dec.Kmat), model.A))
        xh, yv, zk = evaluate_component_fields(dec, points)
        cancel_res = max(cancel_res, relative(
            xh - yv + zk - (matvec(model.A, points) + model.B), model.A))
    return [result("gkls/decomposition-sum-identity", sum_res, 1e-12),
            result("gkls/nonlinear-cancellation", cancel_res, 1e-12)]


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
    res = 0.0
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
        res = max(res, *map(relative, q @ t @ q, t))
    return result("gkls/gradient-flow-rank-constancy", res, 1e-12)


def exactness_residual(chart, point, step):
    """Max-norm of omega - d eta over a point or a stack of them, with
    (d eta)_ab = d_a eta_b - d_b eta_a from central differences."""
    jac = central_gradient(chart.eta, point, step)  # jac[b, a] = d_a eta_b
    return float(np.max(np.abs(np.asarray(chart.omega(point))
                               - (np.swapaxes(jac, -1, -2) - jac))))


def energy_rate_identity(name, sys, traj, dt):
    """Measured dE_L/dt against -(dh/dS) q'_j D_j along a contact path,
    relative to the analytic rate."""
    analytic = analytic_energy_rate(sys, traj.q[2:-2], traj.qd[2:-2],
                                    traj.s[2:-2])
    return five_point_residual(name, traj.energy, dt, analytic, 1e-6)


def friction_invariants(gamma, traj, dt):
    """Conserved E_L = q' + gamma q (relative to E_L(0)) and q'^2 / 2 decaying
    at rate -gamma q'^2 (relative to it) along a q' ln q' friction path."""
    e_l = traj.qd[:, 0] + gamma * traj.q[:, 0]
    analytic = -gamma * traj.qd[2:-2, 0] ** 2
    return [
        result("mechanics/friction-energy-conservation",
               relative(e_l - e_l[0], e_l[0]), 1e-8),
        five_point_residual("mechanics/friction-mechanical-dissipation",
                            traj.energy_mech, dt, analytic, 1e-6),
    ]


def linear_oracle(name, g, times, states, stride, tol):
    """Every stride-th row of states from row 0 against the powers of one
    expm(G times[stride]) on states[0], each column relative to its values
    in states[0] and the exact rows."""
    step = expm(g * times[stride])
    exact = [states[0]]
    for _ in times[stride::stride]:
        exact.append(step @ exact[-1])
    exact = np.array(exact)
    return result(name, max(map(relative, (states[::stride] - exact).T,
                                np.vstack([states[:1], exact]).T)), tol)


def hamiltonianity_verdict(name, g, expected):
    """Passes on the expected verdict for G; the residual is the largest
    |odd trace| over its bound, the ratio the criterion holds to 1e-9."""
    verdict = hamiltonianity_criterion(g)
    return CheckResult(name=name, passed=verdict.verdict == expected,
                       residual=float(np.max(verdict.trace_ratios)))


def _complex(parts):
    """parts[..., 0, :, :] + i parts[..., 1, :, :]: the complex matrix of
    a draw of its real and then its imaginary entries, or a stack of them.
    A Generator's normal values do not depend on how a draw is chunked,
    so a stack of k draws is the k draws made one by one."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _hermitian(parts, scale):
    a = _complex(parts)
    return scale * (a + a.conj().swapaxes(-1, -2)) / 2


def _random_hermitian(rng, n, scale=1.0):
    return _hermitian(rng.normal(size=(2, n, n)), scale)


def _random_unit(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def _densities(parts):
    """g g^dag / Tr(g g^dag) for g = _complex(parts), a stack or one."""
    g = _complex(parts)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _random_density(rng, n):
    return _densities(rng.normal(size=(2, n, n)))


def _random_model(rng, basis, scale=0.6):
    jumps = scale * _complex(rng.normal(size=(2, 2, basis.n, basis.n)))
    return build_model(basis, _random_hermitian(rng, basis.n), jumps)


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
        c = structure_constants(basis.tau)
        cyc = np.einsum("mjk,rml->jklr", c, c)
        jacobi_res = max(jacobi_res, float(np.max(np.abs(
            cyc + cyc.transpose(1, 2, 0, 3) + cyc.transpose(2, 0, 1, 3)))))
        # 20 round trips and 10 expectations, each drawn as one stack
        a = _hermitian(rng.normal(size=(20, 2, n, n)), 1.0)
        a = a + (1.0 - np.trace(a, axis1=-2, axis2=-1).real)[
            :, None, None] * np.eye(n) / n
        x = to_coherence_vector(a, basis)
        trip_res = max(trip_res, float(np.max(np.abs(
            from_coherence_vector(x, basis) - a))))
        obs = _random_hermitian(rng, n)
        a0 = np.trace(obs).real / n
        a_vec = np.einsum("jab,ba->j", basis.tau, obs).real
        x = rng.normal(size=(10, size))
        direct = np.trace(obs @ from_coherence_vector(x, basis),
                          axis1=-2, axis2=-1).real
        affine_res = max(affine_res, float(np.max(np.abs(
            direct - (a0 + vecdot(a_vec, x))))))
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
    bases = {n: build_su_basis(n) for n in (2, 3, 4)}
    for n in (2, 3):
        for _ in range(5):
            m = _random_model(rng, bases[n])
            # 20 draws of g's real and imaginary entries and of a point
            draws = rng.normal(size=(20, 3 * n * n - 1))
            rhos = _densities(draws[:, :2 * n * n].reshape(20, 2, n, n))
            points = draws[:, 2 * n * n:]
            images = apply_generator(m.H, m.V, m.jumps, rhos)
            trace_sizes.extend(map(abs, np.trace(images, axis1=-2, axis2=-1)))
            cases.append((m, points))
    results.append(trace_preservation(trace_sizes))
    results.extend(decomposition_identities(cases))

    basis = bases[3]
    m = build_model(basis, _random_hermitian(rng, 3))
    traj = integrate(m, _random_density(rng, 3), t_end=10.0, dt=5e-3)
    spectrum_res = float(np.max(np.abs(traj.spectra - traj.spectra[0])))
    results.append(result("gkls/unitary-spectrum-invariance",
                          spectrum_res, 1e-8))

    # a pure state on the suite's draws, then five states of every rank
    # 1..n-1 for n = 2, 3, 4 from a generator of their own, so the draws
    # of the invariants below stay as they are
    psi = _random_unit(rng, 3)
    cases = [(basis, _random_hermitian(rng, 3)[None],
              _random_hermitian(rng, 3, 0.5)[None], psi[None, :, None],
              np.ones((1, 1)))]
    strata_rng = np.random.default_rng(212)
    for n, n_basis in bases.items():
        for rank in range(1, n):
            # five draws one by one, one QR of their stack
            cols, weights, h, v = map(np.stack, zip(*[(
                _complex(strata_rng.normal(size=(2, n, rank))),
                strata_rng.uniform(0.1, 1.0, size=rank),
                _random_hermitian(strata_rng, n),
                _random_hermitian(strata_rng, n, 0.5)) for _ in range(5)]))
            cases.append((n_basis, h, v, np.linalg.qr(cols)[0],
                          weights / weights.sum(axis=-1, keepdims=True)))
    results.append(stratum_tangency(cases))

    m = _random_model(rng, bases[2], scale=0.5)
    traj = integrate(m, _random_density(rng, 2), t_end=5.0, dt=2e-3)
    results.append(positivity(traj.min_eigenvalues))

    # gkls.integrate at t = 1 against gkls_flow; with two jumps B != 0,
    # so the B column of the lift is tested
    m = _random_model(rng, basis)
    rho0 = _random_density(rng, 3)
    exact = to_coherence_vector(gkls_flow(m, rho0, 1.0), m.basis)
    errors = [np.max(np.abs(integrate(m, rho0, 1.0, dt).points[-1] - exact))
              for dt in (0.04, 0.02, 0.01)]
    results.append(observed_order("gkls/observed-order", errors,
                                  floor=40 * np.finfo(float).eps))
    return results


def purestate_suite():
    rng = np.random.default_rng(303)
    results = []
    kaehler_res = 0.0
    for n in (2, 3):
        # basis psi_a: <psi_a, psi_b> = g_ab + i omega_ab, J psi_a = -i psi_a
        omega, g, j = ps.ambient_tensors(n)
        psis = ps.from_chart(np.eye(2 * n))
        form = psis.conj() @ psis.T
        j_form = ps.to_chart(-1j * psis).T
        kaehler_res = max(kaehler_res, *(
            float(np.max(np.abs(d))) for d in (
                form.real - g, form.imag - omega, j - j_form,
                j.T @ omega - g)))
    results.append(result("purestate/kaehler-compatibility",
                          kaehler_res, 1e-14))

    tangency_res, commute_res, rank_bad, proj_res = 0.0, 0.0, 0.0, 0.0
    residual_cases = []
    for n in (2, 3):
        basis = build_su_basis(n)
        a, b, psi = map(np.stack, zip(*[
            (_random_hermitian(rng, n), _random_hermitian(rng, n),
             _random_unit(rng, n)) for _ in range(10)]))
        z = ps.to_chart(psi)
        zero = np.zeros_like(a)
        tangency_res = max(tangency_res, float(np.max(np.abs(vecdot(
            z, np.stack([ps.z_field(a, zero, z), ps.z_field(zero, b, z),
                         ps.phase_field(z)]))))))
        residual_cases.append((a, b, z))
        jac_g = central_gradient(lambda p: ps.z_field(zero, b, p), z)
        jac_p = central_gradient(ps.phase_field, z)
        bracket = matvec(jac_g, ps.phase_field(z)) \
            - matvec(jac_p, ps.z_field(zero, b, z))
        commute_res = max(commute_res, float(np.max(np.abs(bracket))))
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
        proj_res = max(proj_res, float(np.max(np.abs(pushed - (xh - yv)))))
    results += [result("purestate/sphere-tangency", tangency_res, 1e-12),
                contact_residuals(residual_cases),
                result("purestate/gradient-projectability", commute_res, 1e-9),
                result("purestate/contact-volume-rank", rank_bad, 0.5),
                result("purestate/projection-consistency", proj_res, 1e-12)]

    # the sphere route at t = 2 against the normalised exponential flow
    a = _random_hermitian(rng, 2)
    b = _random_hermitian(rng, 2)
    psi0 = _random_unit(rng, 2)
    exact = sphere_flow(a, b, psi0, 2.0)
    errors = [np.max(np.abs(ps.integrate_sphere_flow(
        a, b, psi0, 2.0, dt)[1][-1] - exact)) for dt in (0.2, 0.1, 0.05)]
    # rounding floor: one unit roundoff per step of the finest run
    results.append(observed_order("purestate/observed-order", errors,
                                  floor=40 * np.finfo(float).eps))

    # the generic bordered solve of contact on the sphere chart, with
    # F = f_a / r^2 and alpha = alpha_b pulled back, pushed forward is Z
    chart_res = 0.0
    for n in (2, 3):
        chart, embed, jac = ps.sphere_contact_chart(n)
        a = _random_hermitian(rng, n)
        b = _random_hermitian(rng, n)
        u = 0.2 * rng.normal(size=2 * n - 1)
        f_tilde = ScalarField(
            value=lambda v: ps.f_value(a, embed(v))
            / ps.norm_squared(embed(v)),
            gradient=lambda v: jac(v).T @ ps.d_f_tilde(a, embed(v)))
        vec = generalized_contact_field(
            chart, f_tilde, lambda v: jac(v).T @ ps.alpha_tilde(b, embed(v)),
            u)
        chart_res = max(chart_res, relative(
            jac(u) @ vec - ps.z_field(a, b, embed(u)), np.append(a, b)))
    results.append(result("purestate/generalized-contact-field",
                          chart_res, 1e-9))
    return results


def _quadratic(seed_rng):
    c0 = seed_rng.normal()
    lin = seed_rng.normal(size=3)
    quad = seed_rng.normal(size=(3, 3))
    return c0, lin, (quad + quad.T) / 2


def _quadratics(draws):
    """c0 + lin p + p quad p / 2 for stacked draws (c0, lin, quad) of
    ``_quadratic``: draw k reads row k of a stack of points."""
    c0, lin, quad = map(np.stack, zip(*draws))
    return ScalarField(
        value=lambda p: c0 + vecdot(lin, p) + 0.5 * vecdot(p, matvec(quad, p)),
        gradient=lambda p: lin + matvec(quad, p))


def contact_suite():
    rng = np.random.default_rng(404)
    chart = darboux_chart(1)
    points, f, g = zip(*[(rng.normal(size=3), _quadratic(rng), _quadratic(rng))
                         for _ in range(20)])
    points, f, g = np.stack(points), _quadratics(f), _quadratics(g)
    xi = reeb_field(chart, points)
    eta = chart.eta(points)
    reeb_res = max(float(np.max(np.abs(matvec(
        np.swapaxes(chart.omega(points), -1, -2), xi)))),
        float(np.max(np.abs(vecdot(eta, xi) - 1.0))))
    nondeg_bad = float(np.any(nondegeneracy_determinant(chart, points)
                              <= 1e-12))
    # eta is affine on this chart: its central differences are exact
    # up to rounding at any step, and a large one keeps rounding small
    exact_res = exactness_residual(chart, points, 1e-2)
    eta_res = float(np.max(np.abs(vecdot(
        eta, contact_hamiltonian_field(chart, f, points)) - f(points))))
    antisym_res = float(np.max(np.abs(jacobi_bracket(chart, f, g, points)
                                      + jacobi_bracket(chart, g, f, points))))
    gen = generalized_contact_field(chart, f, f.grad, points)
    reduce_res = float(np.max(np.abs(gen - f(points)[..., None] * xi)))
    points, f, g = zip(*[(0.5 * rng.normal(size=3), _quadratic(rng),
                          _quadratic(rng)) for _ in range(5)])
    homo_res = float(np.max(homomorphism_residual(
        chart, _quadratics(f), _quadratics(g), np.stack(points))))
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
        soundness_res = max(soundness_res, float(np.max(
            hamiltonianity_criterion(g).trace_ratios)))
        count += 1
    results.append(result("mechanics/odd-trace-soundness",
                          soundness_res, 1e-10))

    results.append(hamiltonianity_verdict(
        "mechanics/damped-oscillators-not-hamiltonian",
        representative_matrix(*coupled_damped_oscillators(
            1.0, 2.0, 0.3, 0.7, 0.1, 0.2)), "not-hamiltonian"))

    dt = 1e-3
    sys = rlc_single(0.4, 1.2, 0.9)
    traj = integrate_contact(sys, ([1.0], [0.0], 0.0), 3.0, dt)
    results.append(energy_rate_identity("mechanics/energy-rate-identity",
                                        sys, traj, dt))

    gamma = 0.5
    traj = integrate_contact(friction_system(gamma), ([0.0], [1.0], 0.0),
                             8.0, dt)
    results.extend(friction_invariants(gamma, traj, dt))

    # projectable contact flow vs the exact flow of q'' + gam q' + v q = 0
    # at every 100th row, the powers of one expm(G 100 dt)
    v_coeff, gam = 1.1, 0.3
    ctraj = integrate_contact(rlc_single(gam, 1.0, 1.0 / v_coeff),
                              ([1.0], [0.0], 0.2), 4.0, dt)
    g = representative_matrix(np.ones((1, 1)), np.full((1, 1), gam),
                              np.full((1, 1), v_coeff))
    results.append(linear_oracle(
        "mechanics/contact-reduction-consistency", g, ctraj.times,
        np.column_stack([ctraj.q, ctraj.qd]), 100, 1e-8))

    # the two halves of linear_projection that the closed form relies on,
    # at random in-domain states of each builder that sets it: the field's
    # (q, q') rows are the linear law z' = G z, and h(S) = h(0) + r S with
    # r = dh_ds(0); a builder's 20 states are drawn one by one and make
    # one field call, each row relative to its own G z and r S
    res = 0.0
    for sys in (rlc_single(0.4, 1.2, 0.9), friction_system(gamma),
                rlc_coupled(1.0, 1.0, 1.0, 0.5, 0.5, 0.3, 0.2)):
        g, dim = _projected_generator(sys), 2 * sys.n
        h0, r = sys.h(0.0), float(sys.dh_ds(0.0))
        ys = np.empty((20, dim + 1))
        for y in ys:
            y[:] = rng.normal(size=dim + 1)
            y[sys.n:dim] = rng.uniform(0.1, 2.0, size=sys.n)
        gz, rs = matvec(g, ys[:, :dim]), r * ys[:, dim]
        res = max(res, *map(relative, contact_el_field(sys, ys)[:, :dim] - gz,
                            gz),
                  *map(relative, sys.h(ys[:, dim]) - h0 - rs, rs))
    results.append(result("mechanics/declared-projection", res, 1e-12))
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
