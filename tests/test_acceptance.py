"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a report.
"""

import json
import time

import numpy as np
from scipy.linalg import expm

from dissipgeo import purestate as ps
from dissipgeo.algebra import build_su_basis
from dissipgeo.checks import run_checks
from dissipgeo.cli import BUILTIN_SCENARIOS, EXIT_OK, main
from dissipgeo.contact import (ScalarField, contact_hamiltonian_field,
                               darboux_chart, homomorphism_residual,
                               jacobi_bracket, reeb_field)
from dissipgeo.gkls import (build_model, decompose_field,
                            evaluate_component_fields, integrate,
                            integrate_coherence_field, phase_damping_model)
from dissipgeo.mechanics import (bivector_span_dimension,
                                 coupled_damped_oscillators,
                                 friction_system, hamiltonianity_criterion,
                                 integrate_contact, representative_matrix,
                                 rlc_coupled, rlc_single)

SQRT2 = np.sqrt(2.0)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_unit(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def test_criterion_01_phase_damping_reproduction():
    rng = np.random.default_rng(1)
    x0 = np.array([0.4, -0.3, 0.5])
    rho0 = np.eye(2) / 2 + np.einsum(
        "j,jab->ab", x0, build_su_basis(2).tau)
    worst = 0.0
    started = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        model = phase_damping_model(gamma)
        traj = integrate(model, rho0, t_end=5.0, dt=1e-3)
        law = np.exp(-2.0 * gamma * traj.times)
        expected = np.column_stack([x0[0] * law, x0[1] * law,
                                    np.full_like(law, x0[2])])
        worst = max(worst, float(np.max(np.abs(traj.points - expected))))
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-6 and elapsed < 1.0,
           f"phase damping max error {worst:.2e} (< 1e-6), "
           f"runtime {elapsed:.2f} s (< 1 s)")
    del rng


def test_criterion_02_decomposition_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (2, 3):
        basis = build_su_basis(n)
        for _ in range(100):
            jumps = [0.6 * (rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
                     for _ in range(int(rng.integers(1, 4)))]
            model = build_model(basis, random_hermitian(rng, n), jumps)
            dec = decompose_field(basis, model.H, model.V, model.jumps)
            worst = max(worst, float(np.max(np.abs(
                model.A - (dec.Hmat - dec.Vmat + dec.Kmat)))))
            x = rng.normal(size=n * n - 1)
            xh, yv, zk = evaluate_component_fields(dec, x)
            worst = max(worst, float(np.max(np.abs(
                xh - yv + zk - (model.A @ x + model.B)))))
    report(2, worst < 1e-12,
           f"decomposition + cancellation residual {worst:.2e} (< 1e-12)")


def test_criterion_03_unitary_spectrum_invariance():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (2, 3):
        basis = build_su_basis(n)
        model = build_model(basis, random_hermitian(rng, n))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        traj = integrate(model, rho0, t_end=10.0, dt=1e-3)
        worst = max(worst, float(np.max(np.abs(
            traj.spectra - traj.spectra[0]))))
    report(3, worst < 1e-8,
           f"spectrum drift under unitary flow {worst:.2e} (< 1e-8)")


def test_criterion_04_sphere_contact_certification():
    rng = np.random.default_rng(4)
    worst_res = 0.0
    worst_reeb = 0.0
    for n in (2, 3):
        for _ in range(200):
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            z = ps.to_chart(random_unit(rng, n))
            worst_res = max(worst_res, max(ps.contact_residuals(a, b, z)))
            eta0, reeb = ps.contact_form(z), ps.phase_field(z)
            worst_reeb = max(worst_reeb, abs(float(eta0 @ reeb) - 1.0),
                             float(np.max(np.abs(
                                 ps.pullback_omega0(z) @ reeb))))
    report(4, worst_res < 1e-9 and worst_reeb < 1e-12,
           f"contact residuals {worst_res:.2e} (< 1e-9), "
           f"Reeb identities {worst_reeb:.2e} (< 1e-12)")


def test_criterion_05_pure_state_flow_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (2, 3):
        for _ in range(20):
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            psi0 = random_unit(rng, n)
            times, psis = ps.integrate_sphere_flow(a, b, psi0, 5.0, 5e-3)
            gen = ps.flow_generator(a, b)
            for idx in (len(times) // 2, len(times) - 1):
                exact = expm(gen * times[idx]) @ psi0
                exact /= np.linalg.norm(exact)
                worst = max(worst, float(np.max(np.abs(psis[idx] - exact))))
    basis = build_su_basis(2)
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    _, psis = ps.integrate_sphere_flow(np.zeros((2, 2)), sigma3,
                                       np.array([0.6, 0.8 + 0.0j]),
                                       20.0, 2e-3)
    bloch_err = float(np.max(np.abs(
        ps.project_to_bloch(psis[-1], basis) - [0, 0, 1 / SQRT2])))
    report(5, worst < 1e-7 and bloch_err < 1e-6,
           f"exponential-oracle error {worst:.2e} (< 1e-7), "
           f"gradient limit distance {bloch_err:.2e} (< 1e-6)")


def test_criterion_06_hamiltonianity_criterion():
    g1, g2 = 0.3, 0.7
    sys_ = coupled_damped_oscillators(1.0, 2.0, g1, g2, 0.1, 0.2)
    damped = hamiltonianity_criterion(representative_matrix(*sys_))
    rejected = damped.verdict == "not-hamiltonian" \
        and abs(damped.odd_traces[0] + (g1 + g2)) < 1e-12

    rng = np.random.default_rng(6)
    worst = 0.0
    count = 0
    while count < 50:
        raw = rng.normal(size=(4, 4))
        lam = raw - raw.T
        if abs(np.linalg.det(lam)) < 1e-6:
            continue
        sym = rng.normal(size=(4, 4))
        g = lam @ (sym + sym.T)
        scale = np.linalg.norm(g, 2)
        res = hamiltonianity_criterion(g)
        bounds = np.array([scale ** (2 * k + 1) for k in range(4)])
        worst = max(worst, float(np.max(np.abs(res.odd_traces) / bounds)))
        count += 1
    report(6, rejected and worst < 1e-10,
           f"damped Rep-Mat rejected via Tr G = -(g1+g2); "
           f"50 skew*symmetric products give odd traces {worst:.2e} "
           f"(< 1e-10 scaled)")


def test_criterion_07_lagrangian_nonexistence():
    damped = coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2)
    dim_damped, verdict_damped = bivector_span_dimension(
        representative_matrix(*damped))
    plain = coupled_damped_oscillators(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    dim_plain, verdict_plain = bivector_span_dimension(
        representative_matrix(*plain))
    ok = dim_damped == 6 and verdict_damped == "no-lagrangian" \
        and dim_plain < 6 and verdict_plain == "lagrangian-possible"
    report(7, ok,
           f"damped span {dim_damped} = 6 (maximal), "
           f"undamped span {dim_plain} < 6")


def test_criterion_08_contact_el_reproduction():
    r, l_ind, cap = 0.2, 1.0, 1.0
    traj = integrate_contact(rlc_single(r, l_ind, cap),
                             ([1.0], [0.0], 0.0), 10.0, 1e-3)
    decay = r / (2 * l_ind)
    w_d = np.sqrt(1.0 / (l_ind * cap) - decay ** 2)
    exact = np.exp(-decay * traj.times) * (
        np.cos(w_d * traj.times) + decay / w_d * np.sin(w_d * traj.times))
    single_err = float(np.max(np.abs(traj.q[:, 0] - exact)))

    l1, l2, c1, c2, r1, r2, rc = 1.0, 1.0, 1.0, 0.5, 0.5, 0.3, 0.2
    ctraj = integrate_contact(rlc_coupled(l1, l2, c1, c2, r1, r2, rc),
                              ([1.0, 0.0], [0.0, 0.0], 0.0), 10.0, 1e-3)
    g = np.zeros((4, 4))
    g[:2, 2:] = np.eye(2)
    linv = np.linalg.inv(np.diag([l1, l2]))
    g[2:, :2] = -linv @ np.diag([1 / c1, 1 / c2])
    g[2:, 2:] = -linv @ np.array([[r1, rc], [rc, r2]])
    coupled_err = 0.0
    state0 = np.array([1.0, 0.0, 0.0, 0.0])
    for idx in (2500, 5000, 10000):
        exact4 = expm(g * ctraj.times[idx]) @ state0
        coupled_err = max(coupled_err, float(np.max(np.abs(
            ctraj.q[idx] - exact4[:2]))))

    dtraj = integrate_contact(rlc_coupled(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0),
                              ([1.0, 0.0], [0.0, 0.0], 0.0), 5.0, 1e-3)
    leak = float(max(np.max(np.abs(dtraj.q[:, 1])),
                     np.max(np.abs(dtraj.qd[:, 1]))))
    ok = single_err < 1e-6 and coupled_err < 1e-6 and leak < 1e-12
    report(8, ok,
           f"single RLC error {single_err:.2e} (< 1e-6), coupled error "
           f"{coupled_err:.2e} (< 1e-6), decoupling leak {leak:.2e} "
           f"(< 1e-12)")


def test_criterion_09_friction_energies():
    gamma = 0.5
    traj = integrate_contact(friction_system(gamma), ([0.0], [1.0], 0.0),
                             10.0, 1e-3)
    e_l = traj.qd[:, 0] + gamma * traj.q[:, 0]
    drift = float(np.max(np.abs(e_l - e_l[0])))
    dt = 1e-3
    rate = (-traj.energy_mech[4:] + 8 * traj.energy_mech[3:-1]
            - 8 * traj.energy_mech[1:-3] + traj.energy_mech[:-4]) / (12 * dt)
    mismatch = float(np.max(np.abs(rate + gamma * traj.qd[2:-2, 0] ** 2)))
    report(9, drift < 1e-8 and mismatch < 1e-6,
           f"E_L drift {drift:.2e} (< 1e-8), "
           f"dE_mech/dt + gamma qd^2 = {mismatch:.2e} (< 1e-6)")


def test_criterion_10_jacobi_homomorphism():
    chart = darboux_chart(1)
    rng = np.random.default_rng(10)

    def poly(seed_rng):
        c0 = seed_rng.normal()
        lin = seed_rng.normal(size=3)
        quad = seed_rng.normal(size=(3, 3))
        quad = (quad + quad.T) / 2
        return ScalarField(value=lambda p: c0 + p @ lin + 0.5 * np.einsum(
            "...i,ij,...j->...", p, quad, p), gradient=lambda p: lin + p @ quad)

    worst_homo, worst_anti = 0.0, 0.0
    for _ in range(50):
        f, g = poly(rng), poly(rng)
        point = 0.5 * rng.normal(size=3)
        worst_homo = max(worst_homo,
                         homomorphism_residual(chart, f, g, point))
        worst_anti = max(worst_anti, abs(
            jacobi_bracket(chart, f, g, point)
            + jacobi_bracket(chart, g, f, point)))
    one = ScalarField(value=lambda p: np.ones(np.shape(p)[:-1]),
                      gradient=np.zeros_like)
    worst_reeb = 0.0
    for _ in range(10):
        point = rng.normal(size=3)
        worst_reeb = max(worst_reeb, float(np.max(np.abs(
            contact_hamiltonian_field(chart, one, point)
            - reeb_field(chart, point)))))
    ok = worst_homo < 1e-5 and worst_anti < 1e-10 and worst_reeb < 1e-10
    report(10, ok,
           f"homomorphism residual {worst_homo:.2e} (< 1e-5), antisymmetry "
           f"{worst_anti:.2e} (< 1e-10), F=1 Reeb residual {worst_reeb:.2e} "
           f"(< 1e-10)")


def test_criterion_11_cross_module_consistency():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3):
        basis = build_su_basis(n)
        a = random_hermitian(rng, n, scale=0.8)
        b = random_hermitian(rng, n, scale=0.4)
        psi0 = random_unit(rng, n)
        times, psis = ps.integrate_sphere_flow(a, b, psi0, 5.0, 1e-3)
        dec = decompose_field(basis, -a, -2.0 * b)
        traj = integrate_coherence_field(
            lambda x: np.subtract(*evaluate_component_fields(dec, x)[:2]),
            ps.project_to_bloch(psi0, basis), 5.0, 1e-3, basis)
        for idx in range(0, len(times), 500):
            bloch = ps.project_to_bloch(psis[idx], basis)
            worst = max(worst, float(np.max(np.abs(
                bloch - traj.points[idx]))))
    report(11, worst < 1e-6,
           f"projected sphere flow vs coherence flow {worst:.2e} (< 1e-6)")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    mismatch = []
    for name, entry in BUILTIN_SCENARIOS.items():
        if entry["config"]["kind"] == "checks":
            continue
        csvs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = main(["run", name, "--out", str(out)])
            assert code == EXIT_OK, name
            rep = json.loads((out / f"{name}_report.json").read_text())
            assert rep["wall_time_s"] < 10.0, name
            csvs.append((out / f"{name}.csv").read_bytes())
        if csvs[0] != csvs[1]:
            mismatch.append(name)
    started = time.perf_counter()
    results = run_checks()
    elapsed = time.perf_counter() - started
    checks_ok = all(r.passed for r in results)
    with capsys.disabled():
        report(12, not mismatch and checks_ok and elapsed < 60.0,
               f"builtin CSVs byte-identical across reruns; full checks "
               f"suite passed in {elapsed:.1f} s (< 60 s)")
