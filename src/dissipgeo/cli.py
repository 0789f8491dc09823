"""Command-line front end.

    dissipgeo run <config.json | builtin-name> [--out DIR] [--dt X] [--t-end X]
    dissipgeo list
    dissipgeo checks [--filter MODULE] [--out DIR]

Configs are JSON with a "kind" in {gkls, pure-state, contact-lagrangian,
circuit, checks} and kind-specific "parameters"; complex entries are
[re, im] pairs.  Each run writes a trajectory CSV (17 significant
digits, LF endings, byte-stable across runs) plus a JSON report with
per-invariant pass/fail and residuals.  Exit codes: 0 all invariants
pass, 2 usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
from jsonschema import ValidationError, validate
from scipy.linalg import expm

from . import purestate as ps
from .algebra import build_su_basis, from_coherence_vector
from .checks import (CheckResult, contact_residuals, decomposition_identities,
                     energy_rate_identity, friction_invariants, positivity,
                     result, run_checks, trace_preservation)
from .contact import DegenerateContactError
from .gkls import build_model, integrate, phase_damping_model
from .integrators import DivergenceError, rk4_affine_path
from .mechanics import (ImplicitSystemError, LinearSecondOrderSystem,
                        bivector_span_dimension, friction_system,
                        hamiltonianity_criterion, integrate_contact,
                        representative_matrix, rlc_coupled, rlc_single)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["gkls", "pure-state", "contact-lagrangian",
                          "circuit", "checks"]},
        "name": {"type": "string"},
        "parameters": {"type": "object"},
    },
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Configuration could not be validated or parsed."""


def parse_complex_matrix(data, what="matrix"):
    """Nested lists of [re, im] pairs -> complex ndarray."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigError(f"{what}: complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_json(path, data):
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # row by row: one tolist() of the whole array would hold every
        # value as a Python float at once
        fh.writelines(line % tuple(row.tolist()) for row in rows)


SQRT_HALF = 2.0 ** -0.5

BUILTIN_SCENARIOS = {
    "phase-damping": {
        "description": "qubit phase damping: coherences decay, populations hold",
        "config": {
            "kind": "gkls",
            "name": "phase-damping",
            "parameters": {"model": "phase-damping", "gamma": 1.0,
                           "x0": [SQRT_HALF, 0.0, 0.0],
                           "t_end": 3.0, "dt": 1e-3},
        },
    },
    "bloch-gradient": {
        "description": "gradient flow on the Bloch sphere toward the top eigenvector",
        "config": {
            "kind": "pure-state",
            "name": "bloch-gradient",
            "parameters": {
                "a": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "b": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "psi0": [[0.6, 0.0], [0.8, 0.0]],
                "t_end": 10.0, "dt": 1e-3},
        },
    },
    "rlc-single": {
        "description": "series RLC circuit as a contact Lagrangian system",
        "config": {
            "kind": "circuit",
            "name": "rlc-single",
            "parameters": {"circuit": "single", "resistance": 0.2,
                           "inductance": 1.0, "capacitance": 1.0,
                           "i0": [1.0], "di0": [0.0],
                           "t_end": 10.0, "dt": 1e-3},
        },
    },
    "rlc-coupled": {
        "description": "two RLC circuits coupled by a resistance (Rayleigh form)",
        "config": {
            "kind": "circuit",
            "name": "rlc-coupled",
            "parameters": {"circuit": "coupled",
                           "l1": 1.0, "l2": 1.0, "c1": 1.0, "c2": 0.5,
                           "r1": 0.5, "r2": 0.3, "r_coupling": 0.2,
                           "i0": [1.0, 0.0], "di0": [0.0, 0.0],
                           "t_end": 10.0, "dt": 1e-3},
        },
    },
    "coupled-damped-oscillators": {
        "description": "damped coupled oscillators: no Hamiltonian, no Lagrangian",
        "config": {
            "kind": "contact-lagrangian",
            "name": "coupled-damped-oscillators",
            "parameters": {
                "system": "linear",
                "mass": [[1.0, 0.0], [0.0, 1.0]],
                "damping": [[0.3, 0.2], [0.2, 0.7]],
                "stiffness": [[1.0, 0.1], [0.1, 4.0]],
                "x0": [1.0, 0.0, 0.0, 0.0],
                "expect": {"hamiltonianity": "not-hamiltonian",
                           "span_dimension": 6},
                "t_end": 10.0, "dt": 1e-3},
        },
    },
    "friction-lagrangian": {
        "description": "q' ln q' friction Lagrangian: conserved E_L, decaying E_mech",
        "config": {
            "kind": "contact-lagrangian",
            "name": "friction-lagrangian",
            "parameters": {"system": "friction", "gamma": 0.5,
                           "q0": [0.0], "qd0": [1.0],
                           "t_end": 10.0, "dt": 1e-3},
        },
    },
    "contact-homomorphism": {
        "description": "contact-geometry invariant suite (Jacobi homomorphism etc.)",
        "config": {
            "kind": "checks",
            "name": "contact-homomorphism",
            "parameters": {"filter": "contact"},
        },
    },
}


def run_gkls(params):
    t_end = float(params.get("t_end", 5.0))
    dt = float(params.get("dt", 1e-3))
    if params.get("model") == "phase-damping":
        gamma = float(params.get("gamma", 1.0))
        model = phase_damping_model(gamma)
    else:
        h = parse_complex_matrix(params["hamiltonian"], "hamiltonian")
        basis = build_su_basis(h.shape[0])
        jumps = [parse_complex_matrix(j, "jump")
                 for j in params.get("jumps", [])]
        model = build_model(basis, h, jumps)
        gamma = None
    size = model.basis.size
    if "x0" in params:
        rho0 = from_coherence_vector(params["x0"], model.basis)
    else:
        rho0 = parse_complex_matrix(params["rho0"], "rho0")
    traj = integrate(model, rho0, t_end, dt)

    header = ["t"] + [f"x{j + 1}" for j in range(size)] \
        + ["trace", "min_eigenvalue", "rank"]
    rows = np.column_stack([traj.times, traj.points, traj.traces,
                            traj.min_eigenvalues,
                            traj.ranks.astype(float)])

    invariants = [
        trace_preservation(traj.traces - 1.0),
        positivity(traj.min_eigenvalues),
        *decomposition_identities([(model, [traj.points[0]])]),
    ]
    if gamma is not None:
        law = np.exp(-2.0 * gamma * traj.times)
        expected = np.column_stack([traj.points[0, 0] * law,
                                    traj.points[0, 1] * law,
                                    np.full_like(law, traj.points[0, 2])])
        invariants.append(result(
            "gkls/phase-damping-analytic",
            float(np.max(np.abs(traj.points - expected))), 1e-6))
    return header, rows, invariants


def run_pure_state(params):
    t_end = float(params.get("t_end", 5.0))
    dt = float(params.get("dt", 1e-3))
    a = parse_complex_matrix(params["a"], "a")
    b = parse_complex_matrix(params["b"], "b")
    psi0 = parse_complex_matrix(params["psi0"], "psi0")
    renormalize = bool(params.get("renormalize", False))
    times, psis = ps.integrate_sphere_flow(a, b, psi0, t_end, dt,
                                           renormalize=renormalize)
    n = psi0.shape[0]
    norms = np.linalg.norm(psis, axis=1)
    header = ["t"] + [f"x{j + 1}" for j in range(n)] \
        + [f"y{j + 1}" for j in range(n)] + ["norm"]
    rows = np.column_stack([times, psis.real, psis.imag, norms])

    gen = ps.flow_generator(a, b)
    exact = expm(gen * times[-1]) @ psi0
    exact /= np.linalg.norm(exact)
    invariants = [
        result("purestate/norm-drift",
               float(np.max(np.abs(norms - 1.0))), 1e-8),
        contact_residuals([(a, b, ps.to_chart(psi0))]),
        result("purestate/exponential-oracle",
               float(np.max(np.abs(psis[-1] - exact))), 1e-7),
    ]
    return header, rows, invariants


def run_circuit(params):
    t_end = float(params.get("t_end", 10.0))
    dt = float(params.get("dt", 1e-3))
    kind = params.get("circuit", "single")
    if kind == "single":
        r, l_ind, cap = (float(params[k]) for k in
                         ("resistance", "inductance", "capacitance"))
        sys_ = rlc_single(r, l_ind, cap)
        l_mat, r_mat = np.array([[l_ind]]), np.array([[r]])
        c_inv = np.array([[1.0 / cap]])
    elif kind == "coupled":
        l1, l2, c1, c2, r1, r2, r_c = (float(params[k]) for k in (
            "l1", "l2", "c1", "c2", "r1", "r2", "r_coupling"))
        sys_ = rlc_coupled(l1, l2, c1, c2, r1, r2, r_c)
        l_mat, r_mat = np.diag([l1, l2]), np.array([[r1, r_c], [r_c, r2]])
        c_inv = np.diag([1.0 / c1, 1.0 / c2])
    else:
        raise ConfigError(f"unknown circuit {kind!r}")
    n = sys_.n
    # oracle: Kirchhoff's L I'' + R I' + C^-1 I = 0 as a linear system
    g = representative_matrix(
        LinearSecondOrderSystem(n=n, m=l_mat, gamma=r_mat, omega=c_inv))
    i0 = np.asarray(params["i0"], dtype=float)
    di0 = np.asarray(params["di0"], dtype=float)
    if i0.shape != (n,) or di0.shape != (n,):
        raise ConfigError(f"i0 and di0 must have length {n}")
    traj = integrate_contact(sys_, (i0, di0, 0.0), t_end, dt)

    header = ["t"] + [f"i{j + 1}" for j in range(n)] \
        + [f"di{j + 1}" for j in range(n)] + ["s", "energy"]
    rows = np.column_stack([traj.times, traj.q, traj.qd, traj.s, traj.energy])

    state0 = np.concatenate([i0, di0])
    exact = expm(g * traj.times[-1]) @ state0
    invariants = [
        result("circuit/linear-oracle",
               float(np.max(np.abs(traj.q[-1] - exact[:n]))), 1e-6),
    ]
    if not np.any(r_mat):
        invariants.append(result(
            "circuit/energy-conservation",
            float(np.max(np.abs(traj.energy - traj.energy[0]))), 1e-8))
    else:
        invariants.append(energy_rate_identity(
            "circuit/energy-rate-identity", sys_, traj, dt))
    return header, rows, invariants


def run_contact_lagrangian(params):
    t_end = float(params.get("t_end", 10.0))
    dt = float(params.get("dt", 1e-3))
    system = params.get("system", "friction")
    if system == "friction":
        gamma = float(params.get("gamma", 0.5))
        sys_ = friction_system(gamma)
        q0 = np.asarray(params.get("q0", [0.0]), dtype=float)
        qd0 = np.asarray(params.get("qd0", [1.0]), dtype=float)
        traj = integrate_contact(sys_, (q0, qd0, 0.0), t_end, dt)
        header = ["t", "q", "qd", "s", "energy", "energy_mech"]
        rows = np.column_stack([traj.times, traj.q, traj.qd, traj.s,
                                traj.energy, traj.energy_mech])
        return header, rows, friction_invariants(gamma, traj, dt)
    if system != "linear":
        raise ConfigError(f"unknown system {system!r}")
    mass = np.asarray(params["mass"], dtype=float)
    damping = np.asarray(params["damping"], dtype=float)
    stiffness = np.asarray(params["stiffness"], dtype=float)
    n = mass.shape[0]
    lin = LinearSecondOrderSystem(n=n, m=mass, gamma=damping,
                                  omega=stiffness)
    g = representative_matrix(lin)
    x0 = np.asarray(params["x0"], dtype=float)
    if x0.shape != (2 * n,):
        raise ConfigError(f"x0 must have length {2 * n}")
    times, states = rk4_affine_path(g, None, x0, t_end, dt)
    header = ["t"] + [f"q{j + 1}" for j in range(n)] \
        + [f"qd{j + 1}" for j in range(n)]
    rows = np.column_stack([times, states])

    expect = params.get("expect", {})
    invariants = []
    verdict = hamiltonianity_criterion(g)
    if "hamiltonianity" in expect:
        invariants.append(CheckResult(
            name="mechanics/hamiltonianity-verdict",
            passed=verdict.verdict == expect["hamiltonianity"],
            residual=float(np.max(np.abs(verdict.odd_traces)))))
    span, _ = bivector_span_dimension(g)
    if "span_dimension" in expect:
        invariants.append(CheckResult(
            name="mechanics/bivector-span-dimension",
            passed=span == int(expect["span_dimension"]),
            residual=float(span)))
    exact = expm(g * times[-1]) @ x0
    invariants.append(result(
        "mechanics/linear-oracle",
        float(np.max(np.abs(states[-1] - exact))), 1e-6))
    return header, rows, invariants


def execute_scenario(config, out_dir):
    """Run one scenario; returns (report dict, all_passed)."""
    kind = config["kind"]
    params = config.get("parameters", {})
    name = config.get("name", kind)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs = []
    if kind == "checks":
        results = run_checks(params.get("filter"))
    else:
        runner = {"gkls": run_gkls, "pure-state": run_pure_state,
                  "circuit": run_circuit,
                  "contact-lagrangian": run_contact_lagrangian}[kind]
        header, rows, results = runner(params)
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, header, rows)
        outputs.append(str(csv_path))
    seen = set()
    for r in results:
        if r.name in seen:
            raise RuntimeError(f"duplicate invariant {r.name!r} in report")
        seen.add(r.name)
    report = {
        "scenario": name,
        "kind": kind,
        "wall_time_s": time.perf_counter() - started,
        "invariants": [asdict(r) for r in results],
        "outputs": outputs,
    }
    report_path = out_dir / f"{name}_report.json"
    write_json(report_path, report)
    report["report_path"] = str(report_path)
    return report, all(r.passed for r in results)


def load_config(source):
    if source in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(
            BUILTIN_SCENARIOS[source]["config"]))
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"no builtin scenario or config file {source!r}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
    if "name" not in config:
        config["name"] = path.stem
    return config


def _print_invariants(invariants):
    for inv in invariants:
        status = "PASS" if inv["passed"] else "FAIL"
        print(f"[{status}] {inv['name']} residual={inv['residual']:.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dissipgeo",
        description="geometric dissipative dynamics: simulations and checks")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a scenario config or builtin")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=".")
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--t-end", type=float, default=None)
    sub.add_parser("list", help="list builtin scenarios")
    checks_p = sub.add_parser("checks", help="run module invariant suites")
    checks_p.add_argument("--filter", default=None)
    checks_p.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage()
        return EXIT_USAGE

    if args.command == "list":
        for name, entry in BUILTIN_SCENARIOS.items():
            print(f"{name}: {entry['description']}")
        return EXIT_OK

    if args.command == "checks":
        try:
            results = run_checks(args.filter)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        invariants = [asdict(r) for r in results]
        _print_invariants(invariants)
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_json(out_dir / "checks_report.json", invariants)
        return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL

    # run
    config = None
    try:
        config = load_config(args.config)
        validate(config, CONFIG_SCHEMA)
        params = config.setdefault("parameters", {})
        if args.dt is not None:
            params["dt"] = args.dt
        if args.t_end is not None:
            params["t_end"] = args.t_end
        report, passed = execute_scenario(config, args.out)
    # LinAlgError is a ValueError: the numerical clause must come first
    except (DivergenceError, ImplicitSystemError, DegenerateContactError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            times, states = partial
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            name = config.get("name", "run") if config else "run"
            write_csv(out_dir / f"{name}_partial.csv",
                      ["t"] + [f"y{j + 1}" for j in range(states.shape[1])],
                      np.column_stack([times, states]))
        return EXIT_NUMERICAL
    except (ValidationError, KeyError, ValueError, TypeError) as exc:
        # ConfigError and the domain checks of the library (Hermiticity,
        # normalisation, unit trace, dt > 0, ...) are all ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_invariants(report["invariants"])
    print(f"scenario {report['scenario']}: "
          f"{sum(i['passed'] for i in report['invariants'])}"
          f"/{len(report['invariants'])} invariants passed "
          f"({report['wall_time_s']:.2f} s)")
    return EXIT_OK if passed else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
