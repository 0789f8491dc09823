"""checks.expm, the numpy matrix exponential behind every exact oracle,
held to scipy.linalg.expm; the package importing and running on numpy
alone, without scipy or the test extra; every suite holding each claim
to an identity or an exact flow, not to an RK4 run; the contact and
pure-state invariants failing a wrong bordered solve; and both halves of
the projectable contact systems' declaration, the linear law of their
field and an h affine in S, held by one invariant."""

import dataclasses
import json
import math
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


@pytest.mark.parametrize("n", range(1, 9))
def test_taylor_degree_reaches_rounding(n):
    # below ||a||_1 = 1/2 no square amplifies the Taylor sum's truncation,
    # so the least degree with theta^(m+1) / (m+1)! <= 2^-54 meets scipy
    # to rounding (two degrees fewer miss by about 1e-13); a NaN takes the
    # top degree and stays NaN
    rng = np.random.default_rng(n)
    a = rng.normal(size=(20, n, n)) + 1j * rng.normal(size=(20, n, n))
    a /= np.abs(a).sum(axis=1).max(axis=1)[:, None, None]  # ||a||_1 = 1
    for b in np.concatenate([a * theta for theta in (0.05, 0.26, 0.49)]):
        want = scipy.linalg.expm(b)
        assert np.max(np.abs(expm(b) - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.isnan(expm(np.full((n, n), np.nan))).all()


def test_zero_matrix_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("name", ORACLE_BUILTINS)
def test_builtin_generators_match_scipy(name, monkeypatch):
    # every oracle, pure-state, gkls and linear, calls expm in checks: once
    # for its spans of s steps and once for a shorter last span
    passed = []
    monkeypatch.setattr(checks, "expm", lambda a: passed.append(a) or expm(a))
    config = cli.BUILTIN_SCENARIOS[name]["config"]
    cli.RUNNERS[config["kind"]](**config["parameters"])
    steps = round(config["parameters"]["t_end"] / config["parameters"]["dt"])
    assert len(passed) == 1 + bool(steps % (steps // checks.ORACLE_ROWS))
    for a in passed:
        assert_matches_scipy(a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flow_oracle_matches_the_lifted_exponential(n):
    # the superoperator route, at every row flow_oracle samples on the
    # grid of a run at dt = 1e-3, against scipy's exp of the lift
    # [[A, B], [0, 0]] on (x0, 1), a route through the chart
    rng = np.random.default_rng(40 + n)
    h, jumps, rho0 = checks._random_gkls(rng, n)
    model = gkls.build_model(build_su_basis(n), h, jumps)
    assert np.max(np.abs(model.B)) > 1e-3
    d = model.basis.size
    lift = np.zeros((d + 1, d + 1))
    lift[:d, :d], lift[:d, d] = model.A, model.B
    for t in (0.1, 1.0, 5.0):
        steps = round(t / 1e-3)
        rows, exact = checks.flow_oracle(checks.superoperator(model),
                                         np.ravel(rho0), t, steps)
        assert rows[-1] == steps and len(rows) > 1
        x = [(scipy.linalg.expm(r * t / steps * lift) @ np.append(
            to_coherence_vector(rho0, model.basis), 1.0))[:d] for r in rows]
        assert np.max(np.abs(exact.reshape(-1, n, n) - from_coherence_vector(
            x, model.basis))) < 1e-12


def test_flow_oracle_keeps_a_fixed_point_below_the_top():
    # psi0 = e2 spans an invariant subspace of sigma3 that decays as e^-2t
    # against e1; the ray stays e2 to t = 400, where e^-800 underflows
    # (a normalised product a span: 66 spans of 6 of the 400 steps of a run
    # at dt = 1, and a last span of 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        rows, psi = checks.flow_oracle(
            purestate.flow_generator(np.zeros((2, 2)), np.diag([1.0, -1.0])),
            np.array([0.0, 1.0]), 400.0, 400, unit=True)
    assert np.diff(rows).tolist() == [6] * 66 + [4]
    assert np.array_equal(psi, np.tile([0.0, 1.0], (68, 1)))


@pytest.mark.parametrize("t", [
    0.5, 10.0, 1e4, 1e5,
    *(pytest.param(t, marks=pytest.mark.xfail(
        strict=True, reason="normalised products drift on a defective M "
        "(CHANGES.md FOUND)")) for t in (1e6, 1e7))])
def test_flow_oracle_of_a_nilpotent_generator(t):
    # M = i sigma1 + sigma3 squares to 0, so the ray is that of
    # exp(t M) psi0 = (I + t M) psi0; the oracle must hold it at every row
    # it samples to a tenth of the 1e-7 tolerance of
    # purestate/exponential-oracle, with the step count of a run at
    # dt = 0.01, above the ceil(2 h / 300) products a span of length h
    # takes; the grid of up to 1e9 steps is never built
    a, b = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    psi0 = np.array([0.6, 0.8])
    gen, steps = purestate.flow_generator(a, b), round(t / 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        rows, psi = checks.flow_oracle(gen, psi0, t, steps, unit=True)
    want = psi0 + (rows * t / steps)[:, None] * (gen @ psi0)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.max(np.abs(psi - want)) < 1e-8


class StackedProducts(np.ndarray):
    """A step of flow_oracle whose products with a state are recorded, a
    stacked product of b powers as one entry b."""

    batches = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul and inputs[1].ndim == 1:
            StackedProducts.batches.append(math.prod(inputs[0].shape[:-2]))
        return getattr(ufunc, method)(*inputs, **kwargs)


def block_rule(gen, t, steps):
    """(k, b) of flow_oracle's spans of s steps: k products a span, taken
    b at a time, the most whose exponents h ||gen||_1 / k sum to 300."""
    s = steps // checks.ORACLE_ROWS or 1
    h, norm = s * t / steps, np.abs(gen).sum(axis=0).max()
    k = int(min(s, np.ceil(h * norm / 300))) or 1
    total, theta = k * (steps // s), h * norm / k
    return k, (total if theta * total <= 300 else int(300 / theta)) or 1


@pytest.mark.parametrize("unit", [False, True], ids=["linear", "unit"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [1.0, 50.0, 400.0],
                         ids=["one-block", "blocks", "k-above-1"])
def test_flow_oracle_rows_match_scipy_row_by_row(t, n, unit):
    # 997 steps: 66 spans of s = 15 and a last span of 7; M = i a + b with
    # ||a||_1 = 2 and ||b||_1 = 56 takes the 66 products of the spans of
    # 15 in one block at t = 1, in several blocks of b > 1 at t = 50 and
    # as k > 1 products a span at t = 400; M - mu, mu its spectral
    # abscissa, keeps a linear flow and scipy's exponential finite and
    # leaves every ray as it is; each row against scipy's, the ray of a
    # unit flow, by the rule of relative
    rng = np.random.default_rng(530 + n)
    a, b = checks._hermitian(rng.normal(size=(2, 2, n, n)), 1.0)
    gen = purestate.flow_generator(2 * a / np.abs(a).sum(axis=0).max(),
                                   56 * b / np.abs(b).sum(axis=0).max())
    shifted = gen - np.linalg.eigvals(gen).real.max() * np.eye(n)
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    k, b = block_rule(gen if unit else shifted, t, 997)
    assert {1.0: b == 66, 50.0: k == 1 < b < 66, 400.0: k > 1}[t]
    rows, exact = checks.flow_oracle(gen if unit else shifted, psi0, t, 997,
                                     unit=unit)
    assert np.diff(rows).tolist() == [15] * 66 + [7]
    want = np.array([scipy.linalg.expm(r * t / 997 * shifted) @ psi0
                     for r in rows])
    if unit:
        want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert checks.relative_rows(exact - want, want) < 1e-11


@pytest.mark.parametrize("name", ["bloch-gradient", "rlc-coupled"])
def test_powers_reach_the_states_in_few_stacked_products(name, monkeypatch):
    # flow_oracle applies a block of b powers to its first state as one
    # stacked product, where it once took a product a row: at most
    # ceil(rows / b) + 2 stacked products reach the states
    calls, oracle = [], checks.flow_oracle

    def recorded(gen, y0, t, steps, unit=False):
        calls.append(block_rule(gen, t, steps))
        return oracle(gen, y0, t, steps, unit)

    for module in (checks, cli):
        monkeypatch.setattr(module, "flow_oracle", recorded)
    monkeypatch.setattr(checks, "expm",
                        lambda a: expm(a).view(StackedProducts))
    monkeypatch.setattr(StackedProducts, "batches", [])
    config = cli.BUILTIN_SCENARIOS[name]["config"]
    cli.RUNNERS[config["kind"]](**config["parameters"])
    rows = oracle_rows(round(config["parameters"]["t_end"]
                             / config["parameters"]["dt"]))
    (k, b), = calls
    assert k == 1 and sum(StackedProducts.batches) == len(rows) - 1
    assert len(StackedProducts.batches) <= math.ceil(len(rows) / b) + 2


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


# invariants that fail on some reseeded draw (CHANGES.md FOUND): a change
# that moves the draws of their blocks can fail `dissipgeo checks`
ON_THEIR_OWN_DRAW = {
    "purestate/observed-order": "fails at k = 3 and 9 (0.77 and 2.9 "
    "against its 0.3 band), 10 of k = 0..59",
    "gkls/unitary-spectrum-invariance": "fails at k = 13 (1.002e-8 "
    "against 1e-8), 2 of k = 0..59",
}


@pytest.fixture(scope="module")
def reseeded_runs():
    """run_checks() with each suite generator seeded [seed, k] for
    k = 0..15 in place of seed: the same invariants on other draws."""
    runs, draw = [], np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        for k in range(16):
            mp.setattr(np.random, "default_rng",
                       lambda seed, k=k: draw([seed, k]))
            runs.append({r.name: r for r in run_checks()})
    return runs


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason=ON_THEIR_OWN_DRAW[name]))
    if name in ON_THEIR_OWN_DRAW else name
    for name in [r.name for r in run_checks()]])
def test_every_invariant_passes_on_other_draws(name, reseeded_runs):
    assert [k for k, run in enumerate(reseeded_runs)
            if not run[name].passed] == []


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
    h, v = checks._hermitian(rng.normal(size=(2, 2, 3, 3)), 1.0)
    dec = gkls.decompose_field(basis, h, v)
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
    # L(rho) of the last density of the last model of each stack plus
    # 1e-9 I: one row of a call that applies five models at once
    def moved(H, V, jumps, rho):
        out = gkls.apply_generator(H, V, jumps, rho).copy()
        out[(-1,) * (out.ndim - 2)] += 1e-9 * np.eye(H.shape[-1])
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
    # plus 1e-9 sum_j tau_j; stratum_tangency alone splits fields with no
    # jumps, so no other invariant sees it
    def moved(dec, x):
        xh, yv, zk = gkls.evaluate_component_fields(dec, x)
        if not dec.Kmat.any():
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


def test_each_model_of_a_stack_reads_its_own_scale():
    # decomposition_identities on a stack of models is the worst of the
    # models alone, each relative to its own |A|: one model 1e4 times
    # larger would otherwise scale away the rounding of the other four
    rng = np.random.default_rng(8)
    basis = build_su_basis(3)
    jumps, h = checks._normals(rng, (5,), (2, 2, 3, 3), (2, 3, 3))
    h, jumps = checks._hermitian(h, 1.0), 0.6 * checks._complex(jumps)
    scale = np.array([1e4, 1.0, 1.0, 1.0, 1.0])
    h, jumps = h * scale[:, None, None], jumps * np.sqrt(scale)[
        :, None, None, None]
    points = rng.normal(size=(5, 20, basis.size))
    stacked = checks.decomposition_identities(
        [(gkls.build_model(basis, h[:, None], jumps[:, None]), points)])
    alone = [checks.decomposition_identities(
        [(gkls.build_model(basis, h[k], jumps[k]), points[k])])
        for k in range(5)]
    for i, res in enumerate(stacked):
        assert res.residual == max(a[i].residual for a in alone)
        assert res.residual > 0.0


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


def test_contact_volume_rank_sees_a_wrong_contact_form(monkeypatch, capsys):
    # eta_0 = z / r^2 in place of J z / r^2 drops the rank of the volume
    # stack and leaves the sphere chart's bordered solve without a
    # solution: that raise fails purestate/generalized-contact-field with
    # residual inf, and every purestate name is still reported
    names = list(suite_results("purestate"))
    monkeypatch.setattr(purestate, "contact_form",
                        lambda z: z / purestate.norm_squared(z)[..., None])
    results = suite_results("purestate")
    assert list(results) == names
    for name in ("purestate/contact-volume-rank",
                 "purestate/generalized-contact-field"):
        assert not results[name].passed
    assert results["purestate/generalized-contact-field"].residual == np.inf
    assert cli.main(["checks", "--filter", "purestate"]) \
        == cli.EXIT_NUMERICAL
    out = capsys.readouterr().out
    assert "[FAIL] purestate/contact-volume-rank" in out
    assert "[FAIL] purestate/generalized-contact-field" in out


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


def oracle_rows(steps):
    """The rows 0, s, 2s, ... and steps that flow_oracle reads."""
    return np.append(np.arange(0, steps, steps // checks.ORACLE_ROWS or 1),
                     steps)


@pytest.mark.parametrize("g", [
    mechanics.representative_matrix(np.ones((1, 1)), np.full((1, 1), 0.3),
                                    np.full((1, 1), 1.1)),
    mechanics.representative_matrix(*mechanics.coupled_damped_oscillators(
        1.0, 2.0, 0.3, 0.7, 0.1, 0.2))], ids=["suite", "coupled"])
def test_powers_of_one_expm_agree_with_an_expm_per_row(g):
    # the rows of mechanics/contact-reduction-consistency, each exact by
    # its own expm, read by the powers route of flow_oracle; every other
    # row is NaN, so a read of any of them fails
    times = integrators.time_grid(4.0, 1e-3, len(g))
    rows = oracle_rows(len(times) - 1)
    states = np.full((len(times), len(g)), np.nan)
    states[0] = np.linspace(1.0, 0.2, len(g))
    states[rows] = [expm(g * t) @ states[0] for t in times[rows]]
    assert checks.linear_residual(g, states, 4.0) < 1e-12


def test_a_pass_makes_one_call_per_stack(monkeypatch):
    # the batch axis in call counts: contact_el_field is called 80 times
    # per pass without it, expm 41 times in the mechanics suite alone and
    # to_coherence_vector 117 times; the mechanics oracle's 4,000 steps
    # are 64 spans of 62 and one of 32, two expm calls
    counts, suite = Counter(), [None]

    def counted(module, name):
        call = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[suite[0], name] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(checks, "expm")
    # only the invariants that read spectra compute them
    counted(checks, "spectra")
    # the gkls suite builds, applies and splits its five random models of
    # each n as one stack, 13, 10 and 13 calls one model at a time, and
    # the mechanics suite makes one criterion call for its ten odd-trace
    # draws, 11 calls one draw at a time
    for name in ("build_model", "apply_generator", "decompose_field",
                 "hamiltonianity_criterion"):
        counted(checks, name)
    # each run of normal draws is one draw whose Hermitians are built as
    # stacks, 75 builds in the gkls suite and 46 in the purestate suite
    # one draw at a time, and each stack of rows is one reduction, 31
    # relative calls in the gkls suite and 127 in the mechanics suite
    # one row at a time
    for name in ("_hermitian", "relative", "relative_rows"):
        counted(checks, name)
    for module in (mechanics, checks):
        counted(module, "contact_el_field")
    for module in (algebra, checks, purestate):
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
        ("algebra", "to_coherence_vector"): 3, ("algebra", "_hermitian"): 6,
        ("gkls", "expm"): 1, ("gkls", "spectra"): 2,
        ("gkls", "to_coherence_vector"): 6, ("gkls", "build_model"): 5,
        ("gkls", "apply_generator"): 2, ("gkls", "decompose_field"): 5,
        ("gkls", "_hermitian"): 19, ("gkls", "relative_rows"): 3,
        ("mechanics", "contact_el_field"): 9, ("mechanics", "expm"): 2,
        ("mechanics", "hamiltonianity_criterion"): 2,
        ("mechanics", "relative"): 5, ("mechanics", "relative_rows"): 7,
        ("purestate", "decompose_field"): 2,
        ("purestate", "expm"): 1, ("purestate", "to_coherence_vector"): 2,
        ("purestate", "_hermitian"): 10, ("purestate", "relative"): 2}


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


@pytest.mark.parametrize("lead, shapes", [
    ((), [(20, 2, 4, 4), (2, 4, 4), (10, 15)]),  # algebra, n = 4
    ((5,), [(2, 2, 3, 3), (2, 3, 3), (20, 26)]),  # gkls models, n = 3
    ((), [(2, 3), (2, 3, 3), (2, 3, 3)]),  # gkls, the pure stratum case
    ((10,), [(2, 3, 3), (2, 3, 3), (2, 3)]),  # purestate, n = 3
    ((20,), [(3,), (13,), (13,)]),  # contact
    ((2, 3), [(), (4,)]),  # two leading axes and a scalar piece
], ids=["algebra", "gkls_models", "pure_stratum", "purestate", "contact",
        "two_axes"])
def test_one_normal_draw_is_the_draws_one_by_one(lead, shapes):
    # a Generator's normals do not depend on the chunking: each row of a
    # _normals draw holds what a loop over its rows drew shape by shape,
    # and the generator ends in the same state
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    pieces = checks._normals(rng, lead, *shapes)
    for index in np.ndindex(*lead):
        for piece, shape in zip(pieces, shapes):
            assert np.array_equal(piece[index], ref.normal(size=shape))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_stacked_cases_are_the_cases_one_by_one():
    # each row of a stacked _units call is a unit vector with the bits of
    # a call on that row alone, and _quadratics reads each raw (13,) row
    # as the (c0, lin, quad) drawn one by one
    rng = np.random.default_rng(9)
    parts = rng.normal(size=(10, 2, 3))
    units = checks._units(parts)
    assert np.allclose(np.linalg.norm(units, axis=-1), 1.0, rtol=0,
                       atol=1e-15)
    for row, psi in zip(parts, units):
        assert np.array_equal(checks._units(row), psi)
    raw = rng.normal(size=(6, 13))
    points = rng.normal(size=(6, 3))
    field = checks._quadratics(raw)
    ref = np.random.default_rng(9)
    ref.normal(size=(10, 2, 3))
    for k, p in enumerate(points):
        c0, lin, quad = ref.normal(), ref.normal(size=3), ref.normal(
            size=(3, 3))
        quad = (quad + quad.T) / 2
        assert field(points)[k] == c0 + lin @ p + 0.5 * (p @ (quad @ p))
        assert np.array_equal(field.grad(points)[k], lin + quad @ p)


@pytest.mark.parametrize("shape", [(1, 4), (7,), (7, 3), (5, 2, 2)],
                         ids=["one_row", "scalar_rows", "rows", "matrix_rows"])
def test_relative_rows_is_the_max_of_relative_per_row(shape):
    # rows scaled from 1e-3 to 1e3, so that both sides of the max(1, .)
    # scale are read, a row of zero sizes and a row of zero differences
    rng = np.random.default_rng(len(shape) + shape[0])
    spread = 10.0 ** rng.uniform(-3.0, 3.0, size=(shape[0],)
                                 + (1,) * (len(shape) - 1))
    size = spread * rng.normal(size=shape)
    diff = 1e-13 * spread * rng.normal(size=shape)
    if shape[0] > 2:
        size[1] = 0.0
        diff[2] = 0.0
    want = max(map(checks.relative, diff, size))
    assert checks.relative_rows(diff, size).hex() == want.hex()


def overflowing_criterion():
    # stiffness 1e300 overflows the odd traces and their scale to inf,
    # so the ratios are NaN and the verdict reads "not-hamiltonian"
    g = mechanics.representative_matrix(
        np.eye(2), 0.1 * np.eye(2), np.diag([1.0, 1e300]))
    with np.errstate(all="ignore"):
        return checks.hamiltonianity_verdict("x", g, "not-hamiltonian")


def nan_in_last_jacobi_case(monkeypatch):
    # the structure constants of n = 4, the last of the algebra suite
    constants = checks.structure_constants

    def moved(tau):
        c = constants(tau)
        if len(tau) == 15:
            c = c.copy()
            c[-1, -1, -1] = np.nan
        return c

    monkeypatch.setattr(checks, "structure_constants", moved)
    return suite_results("algebra")["algebra/structure-jacobi-identity"]


def nan_in_last_stencil(monkeypatch):
    # the stencils of n = 3, the last n of the purestate suite
    gradient = checks.central_gradient

    def moved(f, x, step=1e-5):
        jac = gradient(f, x, step)
        return jac * np.nan if np.shape(x)[-1] == 6 else jac

    monkeypatch.setattr(checks, "central_gradient", moved)
    return suite_results("purestate")["purestate/gradient-projectability"]


def nan_in_last_sphere_case(monkeypatch):
    # the contact residuals of n = 3, the last case
    residuals = purestate.contact_residuals

    def moved(a, b, z):
        out = np.asarray(residuals(a, b, z))
        return out * np.nan if z.shape[-1] == 6 else out

    monkeypatch.setattr(purestate, "contact_residuals", moved)
    return suite_results("purestate")["purestate/contact-residuals"]


def nan_in_last_model(monkeypatch, name):
    # Hmat of the last random model of n = 3, the last case
    split = checks.decompose_field

    def moved(*args):
        dec = split(*args)
        if dec.n == 3 and dec.Kmat.any():
            hmat = dec.Hmat.copy()
            hmat[(-1,) * hmat.ndim] = np.nan
            dec = dataclasses.replace(dec, Hmat=hmat)
        return dec

    monkeypatch.setattr(checks, "decompose_field", moved)
    return suite_results("gkls")[name]


def nan_in_last_stratum(monkeypatch):
    # T of the last state of n = 4, the last stratum group
    fields = checks.evaluate_component_fields

    def moved(dec, x):
        xh, yv, zk = fields(dec, x)
        if dec.n == 4 and not dec.Kmat.any():
            xh = xh.copy()
            xh[-1, -1] = np.nan
        return xh, yv, zk

    monkeypatch.setattr(checks, "evaluate_component_fields", moved)
    return suite_results("gkls")["gkls/gradient-flow-rank-constancy"]


def nan_in_reeb_contraction(monkeypatch):
    # eta(xi) - 1, the second half of the Reeb residual: the one vecdot of
    # the suite that reads 1 at every point
    def moved(a, b):
        out = algebra.vecdot(a, b)
        return out * np.nan if np.allclose(out, 1.0) else out

    monkeypatch.setattr(checks, "vecdot", moved)
    return suite_results("contact")["contact/reeb-defining-equations"]


def nan_in_last_field_row(monkeypatch):
    # the last of each builder's 20 rows of the declared projection
    field = checks.contact_el_field

    def moved(sys, y):
        out = field(sys, y).copy()
        out[-1, 0] = np.nan
        return out

    monkeypatch.setattr(checks, "contact_el_field", moved)
    return suite_results("mechanics")["mechanics/declared-projection"]


def nan_in_last_oracle_column(monkeypatch):
    # the second of two columns at one sampled row
    g = mechanics.representative_matrix(np.ones((1, 1)), np.full((1, 1), 0.3),
                                        np.full((1, 1), 1.1))
    times = integrators.time_grid(4.0, 1e-3, len(g))
    rows = oracle_rows(len(times) - 1)
    states = np.full((len(times), len(g)), np.nan)
    states[rows] = [expm(g * t) @ [1.0, 0.2] for t in times[rows]]
    states[rows[3], 1] = np.nan
    return checks.result("x", checks.linear_residual(g, states, 4.0), 1e-12)


@pytest.mark.parametrize("nan_result", [
    lambda mp: checks.positivity(np.array([1e-3, 0.5, np.nan])),
    lambda mp: checks.result("x", checks.relative(
        np.zeros(2), np.array([2.0, np.nan])), 1.0),
    lambda mp: checks.result("x", checks.relative_rows(
        np.zeros((3, 2)), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, np.nan]])),
        1.0),
    lambda mp: overflowing_criterion(),
    nan_in_last_jacobi_case, nan_in_last_stencil, nan_in_last_sphere_case,
    lambda mp: nan_in_last_model(mp, "gkls/decomposition-sum-identity"),
    lambda mp: nan_in_last_model(mp, "gkls/nonlinear-cancellation"),
    nan_in_last_stratum, nan_in_reeb_contraction, nan_in_last_field_row,
    nan_in_last_oracle_column,
], ids=["positivity", "relative_size", "relative_rows", "verdict",
        "algebra_suite", "purestate_suite", "contact_residuals",
        "decomposition_sum", "decomposition_cancellation",
        "stratum_tangency", "contact_suite", "declared_projection",
        "linear_residual"])
def test_a_nan_residual_never_passes(nan_result, monkeypatch):
    # Python's max keeps a number over a NaN that follows it: max(0.0,
    # nan) is 0.0, so a NaN in a later case, row or column passed
    res = nan_result(monkeypatch)
    assert np.isnan(res.residual)
    assert not res.passed
