"""checks.expm, the numpy matrix exponential behind every exact oracle,
held to scipy.linalg.expm; the package importing numpy, not scipy; every
suite holding each claim to an identity or an exact flow, not to an RK4
run; the contact and pure-state invariants failing a wrong bordered
solve; and the declared linear law of the projectable contact systems
held to their field."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dissipgeo
from dissipgeo import (checks, cli, contact, gkls, integrators, mechanics,
                       purestate)
from dissipgeo.algebra import from_coherence_vector, to_coherence_vector
from dissipgeo.checks import expm, run_checks

TIMES = [1e-3, 0.1, 1.0, 10.0, 50.0, 100.0]
CRITICAL = np.array([[0.0, 1.0], [-1.0, -2.0]])  # defective: double root -1
JORDAN = -np.eye(4) + np.eye(4, k=1)
STIFF = np.array([[0.0, 1.0], [-1e4, -1e2]])
# the builtins whose report holds a path to an exponential oracle
ORACLE_BUILTINS = ["phase-damping", "bloch-gradient", "rlc-coupled",
                   "coupled-damped-oscillators"]


def assert_matches_scipy(a):
    want = scipy.linalg.expm(a)
    assert np.max(np.abs(expm(a) - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("dtype", [float, complex])
def test_random_matrices_match_scipy(n, dtype):
    rng = np.random.default_rng(n)
    for scale in (0.01, 1.0, 5.0, 30.0):
        a = rng.uniform(-scale, scale, (n, n))
        if dtype is complex:
            a = a + 1j * rng.uniform(-scale, scale, (n, n))
        assert_matches_scipy(a)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("g", [CRITICAL, JORDAN, STIFF],
                         ids=["critical", "jordan", "stiff"])
def test_linear_flows_match_scipy(g, t):
    assert_matches_scipy(g * t)


def test_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("name", ORACLE_BUILTINS)
def test_builtin_generators_match_scipy(name, monkeypatch):
    # every oracle, pure-state, gkls and linear, calls expm in checks
    passed = []
    monkeypatch.setattr(checks, "expm", lambda a: passed.append(a) or expm(a))
    config = cli.BUILTIN_SCENARIOS[name]["config"]
    cli.RUNNERS[config["kind"]](**config["parameters"])
    assert len(passed) == 1
    assert_matches_scipy(passed[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gkls_flow_matches_the_lifted_exponential(n):
    # the superoperator route against scipy's exp of the lift
    # [[A, B], [0, 0]] on (x0, 1), a route through the chart
    rng = np.random.default_rng(40 + n)
    model = checks._random_model(rng, n)
    assert np.max(np.abs(model.B)) > 1e-3
    rho0 = checks._random_density(rng, n)
    d = model.basis.size
    lift = np.zeros((d + 1, d + 1))
    lift[:d, :d], lift[:d, d] = model.A, model.B
    for t in (0.1, 1.0, 5.0):
        x = (scipy.linalg.expm(t * lift) @ np.append(
            to_coherence_vector(rho0, model.basis), 1.0))[:d]
        rho = checks.gkls_flow(model, rho0, t)
        assert np.max(np.abs(rho - from_coherence_vector(
            x, model.basis))) < 1e-12


def test_package_imports_no_scipy():
    src = Path(dissipgeo.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, dissipgeo.cli, dissipgeo.checks; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def suite_results(suite):
    return {r.name: r for r in run_checks(suite)}


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_suite_makes_no_rk4_path_call(suite, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rk4_path was called")

    # every module binding a suite could call, imported today or not
    for module in (integrators, gkls, mechanics, purestate, checks):
        monkeypatch.setattr(module, "rk4_path", refuse, raising=False)
    assert all(r.passed for r in suite_results(suite).values())


def dropped_nonlinear_term(basis, h, v):
    # X_H - Y_V without its -e_V(x) x term
    hmat, vmat, v_vec = gkls._hamiltonian_gradient_matrices(
        basis.tau, np.asarray(h, dtype=complex), np.asarray(v, dtype=complex))
    return lambda x: hmat @ x - (vmat @ x + v_vec / basis.n)


def added_jump_part(basis, h, v):
    # X_H - Y_V plus the affine field A x + B of a lowering jump
    field = gkls.hamiltonian_gradient_field(basis, h, v)
    model = gkls.build_model(basis, np.zeros((basis.n, basis.n)),
                             [np.eye(basis.n, k=1)])
    return lambda x: field(x) + model.A @ x + model.B


@pytest.mark.parametrize("wrong_field",
                         [dropped_nonlinear_term, added_jump_part])
def test_rank_constancy_sees_a_field_off_the_stratum(wrong_field,
                                                     monkeypatch):
    name = "gkls/gradient-flow-rank-constancy"
    assert suite_results("gkls")[name].residual < 1e-12
    monkeypatch.setattr(checks, "hamiltonian_gradient_field", wrong_field)
    assert not suite_results("gkls")[name].passed


def test_projection_consistency_sees_a_dropped_sphere_term(monkeypatch):
    # Z without its -e(z) z term is no longer the pushforward of X_H - Y_V
    monkeypatch.setattr(purestate, "z_field", lambda a, b, z: purestate
                        ._real_form(purestate.flow_generator(a, b)) @ z)
    assert not suite_results("purestate")[
        "purestate/projection-consistency"].passed


def flipped_rhs(monkeypatch):
    # the field's one solve with right-hand side (dF - alpha, F)
    def flipped(chart, f, alpha, point):
        return contact._bordered_solve(chart, point, f.grad(point)
                                       - alpha(point), f(point))[0]

    monkeypatch.setattr(contact, "generalized_contact_field", flipped)
    monkeypatch.setattr(checks, "generalized_contact_field", flipped)


def dropped_alpha(monkeypatch):
    # the generalized field the suites call ignores its source
    field = checks.generalized_contact_field
    monkeypatch.setattr(checks, "generalized_contact_field",
                        lambda chart, f, alpha, point: field(
                            chart, f, lambda p: np.zeros(chart.dim), point))


def flipped_lambda_term(monkeypatch):
    # [F, G] = F L_xi G - G L_xi F - Lambda(dF, dG)
    bracket = contact.jacobi_bracket

    def flipped(chart, f, g, point):
        xi = contact.reeb_field(chart, point)
        reeb_part = f(point) * (g.grad(point) @ xi) \
            - g(point) * (f.grad(point) @ xi)
        return 2.0 * reeb_part - bracket(chart, f, g, point)

    monkeypatch.setattr(contact, "jacobi_bracket", flipped)
    monkeypatch.setattr(checks, "jacobi_bracket", flipped)


@pytest.mark.parametrize("mutation, failing", [
    (flipped_rhs, ["contact/bracket-homomorphism",
                   "purestate/generalized-contact-field"]),
    (dropped_alpha, ["contact/alpha-df-degeneracy",
                     "purestate/generalized-contact-field"]),
    (flipped_lambda_term, ["contact/bracket-homomorphism"]),
], ids=["flipped_rhs", "dropped_alpha", "flipped_lambda_term"])
def test_contact_invariants_see_a_wrong_solve(mutation, failing,
                                              monkeypatch):
    mutation(monkeypatch)
    results = {**suite_results("contact"), **suite_results("purestate")}
    assert sorted(name for name, r in results.items()
                  if not r.passed) == failing


def test_verdict_residual_is_the_scaled_odd_trace():
    # |Tr G^(2k+1)| / |G|^(2k+1), the ratio the criterion holds to 1e-9
    g = mechanics.representative_matrix(
        *mechanics.coupled_damped_oscillators(1.0, 2.0, 0.3, 0.7, 0.1, 0.2))
    scale = np.linalg.norm(g, 2)
    ratios = [abs(np.trace(np.linalg.matrix_power(g, 2 * k + 1)))
              / scale ** (2 * k + 1) for k in range(4)]
    verdict = suite_results("mechanics")[
        "mechanics/damped-oscillators-not-hamiltonian"]
    assert verdict.passed
    assert verdict.residual == pytest.approx(max(ratios), rel=1e-12)
    assert verdict.residual < 1.0


def test_contact_reduction_consistency_sees_a_wrong_generator(monkeypatch):
    generator = mechanics._projected_generator
    monkeypatch.setattr(mechanics, "_projected_generator",
                        lambda sys: 0.5 * generator(sys))
    assert not suite_results("mechanics")[
        "mechanics/contact-reduction-consistency"].passed


def test_declared_projection_sees_a_nonlinear_law(monkeypatch):
    # with H = 1/q'^2 friction reads q'' = -gamma q'^2, not linear in q'
    def squared(gamma):
        return dataclasses.replace(
            mechanics.friction_system(gamma),
            hess_qd=lambda q, qd: np.array([[1.0 / qd[0] ** 2]]))

    monkeypatch.setattr(checks, "friction_system", squared)
    assert not suite_results("mechanics")[
        "mechanics/declared-projection"].passed
