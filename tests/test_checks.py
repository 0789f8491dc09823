"""checks.expm, the numpy matrix exponential behind every exact oracle,
held to scipy.linalg.expm; the package importing and running on numpy
alone, without scipy or the test extra; every suite holding each claim
to an identity or an exact flow, not to an RK4 run; the contact and
pure-state invariants failing a wrong bordered solve; and both halves of
the projectable contact systems' declaration, the linear law of their
field and an h affine in S, held by one invariant."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dissipgeo
from dissipgeo import (algebra, checks, cli, contact, gkls, integrators,
                       mechanics, purestate)
from dissipgeo.algebra import (build_su_basis, from_coherence_vector,
                               to_coherence_vector)
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
    model = checks._random_model(rng, build_su_basis(n))
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


def test_sphere_flow_keeps_a_fixed_point_below_the_top():
    # psi0 = e2 spans an invariant subspace of sigma3 that decays as e^-2t
    # against e1; the ray stays e2 at t = 400, where e^-800 underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        psi = checks.sphere_flow(np.zeros((2, 2)), np.diag([1.0, -1.0]),
                                 np.array([0.0, 1.0]), 400.0)
    assert np.array_equal(psi, [0.0, 1.0])


@pytest.mark.parametrize("t", [
    0.5, 10.0, 1e4, 1e5,
    *(pytest.param(t, marks=pytest.mark.xfail(
        strict=True, reason="normalised products drift on a defective M "
        "(CHANGES.md FOUND)")) for t in (1e6, 1e7))])
def test_sphere_flow_of_a_nilpotent_generator(t):
    # M = i sigma1 + sigma3 squares to 0, so the ray is that of
    # exp(t M) psi0 = (I + t M) psi0; the oracle must hold it to a tenth of
    # the 1e-7 tolerance of purestate/exponential-oracle
    a, b = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    psi0 = np.array([0.6, 0.8])
    want = psi0 + t * purestate.flow_generator(a, b) @ psi0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        psi = checks.sphere_flow(a, b, psi0, t)
    assert np.max(np.abs(psi - want / np.linalg.norm(want))) < 1e-8


def test_package_imports_no_scipy():
    src = Path(dissipgeo.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, dissipgeo.cli, dissipgeo.checks; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_runtime_needs_numpy_alone(tmp_path):
    """`dissipgeo checks` and every builtin run without loading a module
    of the test extra, so `pip install .` alone is a working install."""
    src = Path(dissipgeo.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import json, sys\n"
        "from dissipgeo.cli import BUILTIN_SCENARIOS, main\n"
        "codes = [main(['checks'])] + [main(['run', name, '--out',"
        " sys.argv[1]]) for name in BUILTIN_SCENARIOS]\n"
        "extra = {'scipy', 'hypothesis', 'jsonschema', 'pytest'}\n"
        "json.dump([codes, sorted(extra & {m.split('.')[0] for m in "
        "sys.modules})], open(sys.argv[2], 'w'))\n")
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, "-c", code, str(tmp_path), str(result)],
                   env=env, check=True, capture_output=True, timeout=120)
    codes, loaded = json.loads(result.read_text())
    assert codes == [cli.EXIT_OK] * (1 + len(cli.BUILTIN_SCENARIOS))
    assert loaded == []


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


def dropped_nonlinear_term(dec, x):
    # Y_V without its -e_V(x) x term, at a point or a stack of points
    xh, _, zk = gkls.evaluate_component_fields(dec, x)
    return xh, gkls.matvec(dec.Vmat, np.asarray(x)) + dec.V_vec / dec.n, zk


def added_jump_part(dec, x):
    # X_H plus the Jump field Z_K of a lowering jump, which broadcasts
    # against a stacked split and a stack of points alike
    lower = np.eye(dec.n, k=1)
    jump = gkls.decompose_field(build_su_basis(dec.n), 0.0 * lower,
                                lower.T @ lower, [lower])
    xh, yv, zk = gkls.evaluate_component_fields(dec, x)
    return xh + gkls.evaluate_component_fields(jump, x)[2], yv, zk


@pytest.mark.parametrize("wrong_fields",
                         [dropped_nonlinear_term, added_jump_part])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_mutated_fields_serve_a_point_and_a_stack(wrong_fields, k):
    # k = 8 = n^2 - 1 is the stack that a helper multiplying the wrong
    # axis would take silently
    rng = np.random.default_rng(k)
    basis = build_su_basis(3)
    dec = gkls.decompose_field(basis, checks._random_hermitian(rng, 3),
                               checks._random_hermitian(rng, 3))
    points = rng.normal(size=(k, basis.size))
    stacked = wrong_fields(dec, points)
    for row, x in enumerate(points):
        for part, ref in zip(stacked, wrong_fields(dec, x)):
            assert np.array_equal(part[row], ref)


@pytest.mark.parametrize("wrong_fields",
                         [dropped_nonlinear_term, added_jump_part])
def test_rank_constancy_sees_a_field_off_the_stratum(wrong_fields,
                                                     monkeypatch):
    name = "gkls/gradient-flow-rank-constancy"
    assert suite_results("gkls")[name].residual < 1e-12
    monkeypatch.setattr(checks, "evaluate_component_fields", wrong_fields)
    assert not suite_results("gkls")[name].passed


def moved_last_generator_image(monkeypatch):
    # L(rho) of the last density of each stack plus 1e-9 I
    def moved(H, V, jumps, rho):
        out = gkls.apply_generator(H, V, jumps, rho).copy()
        out[..., -1, :, :] += 1e-9 * np.eye(len(H))
        return out

    monkeypatch.setattr(checks, "apply_generator", moved)


def moved_last_gradient_field(monkeypatch):
    # Y_V at the last point of each stack plus 1e-9 in every component
    def moved(dec, x):
        xh, yv, zk = gkls.evaluate_component_fields(dec, x)
        yv = yv.copy()
        yv[..., -1, :] += 1e-9
        return xh, yv, zk

    monkeypatch.setattr(checks, "evaluate_component_fields", moved)


def moved_last_tangent(monkeypatch):
    # T = sum_j (X_H - Y_V)_j tau_j of the last stratum case of each n
    # plus 1e-9 sum_j tau_j; stratum_tangency alone evaluates a stacked
    # split, so no other invariant sees it
    def moved(dec, x):
        xh, yv, zk = gkls.evaluate_component_fields(dec, x)
        if dec.Hmat.ndim == 3:
            xh = xh.copy()
            xh[-1] += 1e-9
        return xh, yv, zk

    monkeypatch.setattr(checks, "evaluate_component_fields", moved)


@pytest.mark.parametrize("mutation, failing", [
    (moved_last_generator_image, ["gkls/trace-preservation"]),
    (moved_last_gradient_field, ["gkls/gradient-flow-rank-constancy",
                                 "gkls/nonlinear-cancellation"]),
    (moved_last_tangent, ["gkls/gradient-flow-rank-constancy"]),
], ids=["generator_image", "gradient_field", "tangent"])
def test_the_last_row_of_a_stack_can_fail(mutation, failing, monkeypatch):
    # the gkls suite evaluates its draws as stacks; a residual taken over
    # row 0 alone, or maximised over the wrong axis, misses the last row
    assert all(r.passed for r in suite_results("gkls").values())
    mutation(monkeypatch)
    assert sorted(name for name, r in suite_results("gkls").items()
                  if not r.passed) == sorted(failing)


def first_row_stencil(monkeypatch):
    # the central differences of the first point of each stack copied to
    # every row, as a field written p[0] would read them
    def first_row(f, x, step=1e-5):
        jac = contact.central_gradient(f, x, step)
        return np.broadcast_to(jac[:1], jac.shape)

    monkeypatch.setattr(checks, "central_gradient", first_row)


def scaled_omega0(monkeypatch):
    # omega_0 off by a relative 1e-6 at every point
    pullback = purestate.pullback_omega0
    monkeypatch.setattr(purestate, "pullback_omega0",
                        lambda z: (1.0 + 1e-6) * pullback(z))


def flipped_last_lambda(monkeypatch):
    # Lambda(dF, dG) = dG(v_F) enters the last row of each stack with the
    # wrong sign: there [F, G] = 2 (F L_xi G - G L_xi F) - [F, G]
    bracket = contact.jacobi_bracket

    def flipped(chart, f, g, point):
        xi = contact.reeb_field(chart, point)
        reeb_part = f(point) * np.sum(g.grad(point) * xi, axis=-1) \
            - g(point) * np.sum(f.grad(point) * xi, axis=-1)
        out = bracket(chart, f, g, point)
        out[..., -1] = 2.0 * reeb_part[..., -1] - out[..., -1]
        return out

    monkeypatch.setattr(contact, "jacobi_bracket", flipped)
    monkeypatch.setattr(checks, "jacobi_bracket", flipped)


@pytest.mark.parametrize("mutation, failing", [
    (first_row_stencil, ["purestate/gradient-projectability"]),
    (scaled_omega0, ["purestate/contact-residuals",
                     "purestate/generalized-contact-field"]),
    (flipped_last_lambda, ["contact/bracket-homomorphism"]),
], ids=["first_row_stencil", "scaled_omega0", "flipped_last_lambda"])
def test_a_batched_suite_reads_every_row(mutation, failing, monkeypatch):
    # the contact and purestate suites evaluate their draws and stencils
    # as stacks: a wrong row, or every row read as the first, must fail
    def failed():
        results = {**suite_results("contact"), **suite_results("purestate")}
        return sorted(name for name, r in results.items() if not r.passed)

    assert failed() == []
    mutation(monkeypatch)
    assert failed() == sorted(failing)


def test_projection_consistency_sees_a_dropped_sphere_term(monkeypatch):
    # Z without its -e(z) z term is no longer the pushforward of X_H - Y_V
    monkeypatch.setattr(purestate, "z_field", lambda a, b, z: gkls.matvec(
        purestate._real_form(purestate.flow_generator(a, b)), z))
    assert not suite_results("purestate")[
        "purestate/projection-consistency"].passed


def flipped_rhs(monkeypatch):
    # the field's one solve with right-hand side (dF - alpha, F)
    def flipped(chart, f, alpha, point):
        rhs = f.grad(point) - alpha(point)
        return contact._bordered_solve(chart, point, rhs[..., None],
                                       f(point)[..., None])[0][..., 0]

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
        reeb_part = f(point) * np.sum(g.grad(point) * xi, axis=-1) \
            - g(point) * np.sum(f.grad(point) * xi, axis=-1)
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


def test_reeb_defining_equations_can_fail(monkeypatch, capsys):
    # only the Reeb solve, right-hand side (0, 1), moves: xi + 1e-9 dS
    # keeps i_xi omega = 0 on the Darboux chart and reads eta(xi) = 1 + 1e-9
    solve = contact._bordered_solve

    def moved(chart, point, rhs_omega, rhs_eta):
        v, lam = solve(chart, point, rhs_omega, rhs_eta)
        if np.shape(rhs_omega) == (chart.dim, 1) and not np.any(rhs_omega) \
                and np.array_equal(rhs_eta, [1.0]):
            v = v + 1e-9 * np.eye(chart.dim)[-1][:, None]
        return v, lam

    monkeypatch.setattr(contact, "_bordered_solve", moved)
    results = suite_results("contact")
    assert list(results) == [
        "contact/reeb-defining-equations", "contact/nondegeneracy",
        "contact/exact-chart-consistency", "contact/eta-contraction",
        "contact/jacobi-antisymmetry", "contact/alpha-df-degeneracy",
        "contact/bracket-homomorphism"]
    reeb = results["contact/reeb-defining-equations"]
    assert reeb.residual == pytest.approx(1e-9, rel=1e-3)
    # alpha = dF gives the field F xi, held to the moved xi as well
    assert sorted(name for name, r in results.items() if not r.passed) \
        == ["contact/alpha-df-degeneracy", "contact/reeb-defining-equations"]
    assert cli.main(["checks", "--filter", "contact"]) == cli.EXIT_NUMERICAL
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert f"[FAIL] contact/reeb-defining-equations " \
        f"residual={reeb.residual:.3e}" in lines


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


def test_contact_reduction_consistency_sees_a_generator_off_by_1e_6(
        monkeypatch):
    generator = mechanics._projected_generator
    monkeypatch.setattr(mechanics, "_projected_generator",
                        lambda sys: (1.0 + 1e-6) * generator(sys))
    assert not suite_results("mechanics")[
        "mechanics/contact-reduction-consistency"].passed


@pytest.mark.parametrize("g", [
    mechanics.representative_matrix(np.ones((1, 1)), np.full((1, 1), 0.3),
                                    np.full((1, 1), 1.1)),
    mechanics.representative_matrix(*mechanics.coupled_damped_oscillators(
        1.0, 2.0, 0.3, 0.7, 0.1, 0.2))], ids=["suite", "coupled"])
def test_powers_of_one_expm_agree_with_an_expm_per_row(g):
    # the rows of mechanics/contact-reduction-consistency, each exact by
    # its own expm, read by the powers route of linear_oracle
    times = integrators.time_grid(4.0, 1e-3)
    states = np.full((len(times), len(g)), np.nan)
    states[0] = np.linspace(1.0, 0.2, len(g))
    states[::100] = [expm(g * t) @ states[0] for t in times[::100]]
    oracle = checks.linear_oracle("powers", g, times, states, 100, 1e-12)
    assert oracle.passed and oracle.residual < 1e-12


def test_a_pass_makes_one_call_per_stack(monkeypatch):
    # the batch axis in call counts: contact_el_field is called 80 times
    # per pass without it, expm 41 times in the mechanics suite alone and
    # to_coherence_vector 117 times
    counts, suite = Counter(), [None]

    def counted(module, name):
        call = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[suite[0], name] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(checks, "expm")
    for module in (mechanics, checks):
        counted(module, "contact_el_field")
    for module in (algebra, checks, gkls, purestate):
        counted(module, "to_coherence_vector")
    def in_suite(name, run):
        def wrapper():
            suite[0] = name
            return run()

        return wrapper

    for name, run in checks.SUITES.items():
        monkeypatch.setitem(checks.SUITES, name, in_suite(name, run))
    assert all(r.passed for r in run_checks())
    assert dict(counts) == {
        ("algebra", "to_coherence_vector"): 3,
        ("gkls", "expm"): 1, ("gkls", "to_coherence_vector"): 9,
        ("mechanics", "contact_el_field"): 9, ("mechanics", "expm"): 1,
        ("purestate", "expm"): 1, ("purestate", "to_coherence_vector"): 2}


def test_declared_projection_sees_a_nonlinear_law(monkeypatch):
    # with H = 1/q'^2 friction reads q'' = -gamma q'^2, not linear in q'
    def squared(gamma):
        return dataclasses.replace(
            mechanics.friction_system(gamma),
            hess_qd=lambda q, qd: (1.0 / qd ** 2)[..., None])

    monkeypatch.setattr(checks, "friction_system", squared)
    assert not suite_results("mechanics")[
        "mechanics/declared-projection"].passed


def test_declared_projection_sees_an_h_that_is_not_affine(monkeypatch):
    # dh_ds as built keeps the field's (q, q') rows linear, so only the
    # S-dependence that the closed form assumes can see h = r S + S^2
    def curved(*args):
        sys = mechanics.rlc_single(*args)
        rate = sys.dh_ds(0.0)
        return dataclasses.replace(sys, h=lambda s: rate * s + s ** 2)

    monkeypatch.setattr(checks, "rlc_single", curved)
    assert not suite_results("mechanics")[
        "mechanics/declared-projection"].passed


def test_quadratic_h_fails_declared_projection_not_the_run(monkeypatch,
                                                           capsys):
    # a run relies on linear_projection without testing it: h = S^2 runs,
    # and the one invariant that holds the builders' h reports it
    def quadratic(*args):
        return dataclasses.replace(mechanics.rlc_single(*args),
                                   h=lambda s: s ** 2,
                                   dh_ds=lambda s: 2.0 * s)

    monkeypatch.setattr(checks, "rlc_single", quadratic)
    results = suite_results("mechanics")
    assert sorted(results) == [
        "mechanics/contact-reduction-consistency",
        "mechanics/damped-oscillators-not-hamiltonian",
        "mechanics/declared-projection", "mechanics/energy-rate-identity",
        "mechanics/friction-energy-conservation",
        "mechanics/friction-mechanical-dissipation",
        "mechanics/odd-trace-soundness"]
    assert not results["mechanics/declared-projection"].passed
    capsys.readouterr()
    assert cli.main(["checks", "--filter", "mechanics"]) == cli.EXIT_NUMERICAL
    assert "[FAIL] mechanics/declared-projection" in capsys.readouterr().out
