"""Independent reference checks for benchmark ops.

Each scenario op is checked at the requested ``t_end`` against a closed
form or a matrix exponential that the benchmark builds itself, from the
config alone, without calling into dissipgeo:

- gkls: the Kronecker (column-stacking) superoperator of the GKLS
  generator, exponentiated; compared through basis-independent
  quantities of the final state (purity 1/n + |x|^2, smallest
  eigenvalue, trace);
- linear contact-lagrangian and circuit: expm of the first-order matrix
  G = [[0, I], [-M^-1 K, -M^-1 C]];
- pure-state: the normalised expm(t (i a + b)) psi0;
- friction: q0 + qd0 (1 - e^{-gamma t}) / gamma, qd0 e^{-gamma t}.

A checks op has no independent route; it must exit 0 and report every
invariant its suite reported when the benchmark was added (suites.json),
all passing with finite residuals.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

STATE_TOL = 1e-6    # RK4 error at the drawn step sizes is below 1e-9
TRACE_TOL = 1e-9
TIME_TOL = 1e-9
SUITES = json.loads((Path(__file__).resolve().parent / "suites.json")
                    .read_text())["suites"]


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _last_row(csv_path):
    """(header, final row, step count) of a trajectory CSV, reading the
    file in blocks so that the check does not set the process's peak
    RSS."""
    block = 1 << 16
    with open(csv_path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        lines = 1 + sum(chunk.count(b"\n")
                        for chunk in iter(lambda: fh.read(block), b""))
        end = fh.tell()
        tail = b""
        while end > 0 and tail.rstrip(b"\n").count(b"\n") < 1:
            start = max(0, end - block)
            fh.seek(start)
            tail = fh.read(end - start) + tail
            end = start
    if not tail.endswith(b"\n"):
        lines += 1
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    row = np.array([float(v) for v in last.split(b",")])
    return header, row, lines - 2


def _column(header, row, prefix):
    return np.array([v for h, v in zip(header, row)
                     if h.startswith(prefix) and h[len(prefix):].isdigit()])


def _gkls_reference(params, t):
    if params.get("model") == "phase-damping":
        h = np.zeros((2, 2), dtype=complex)
        jumps = [np.sqrt(float(params["gamma"])) * np.diag([1.0, -1.0])]
    else:
        h = _complex(params["hamiltonian"])
        jumps = [_complex(v) for v in params.get("jumps", [])]
    rho0 = _complex(params["rho0"])
    n = h.shape[0]
    eye = np.eye(n)
    v_sum = sum((v.conj().T @ v for v in jumps), np.zeros((n, n)))
    # vec(A X B) = (B^T kron A) vec(X) with column stacking
    sup = 1j * (np.kron(h.T, eye) - np.kron(eye, h)) \
        - 0.5 * (np.kron(eye, v_sum) + np.kron(v_sum.T, eye))
    for v in jumps:
        sup = sup + np.kron(v.conj(), v)
    rho = (expm(sup * t) @ rho0.flatten(order="F")).reshape((n, n),
                                                            order="F")
    rho = (rho + rho.conj().T) / 2
    return {"purity": float(np.trace(rho @ rho).real),
            "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]),
            "trace": float(np.trace(rho).real)}


def _first_order_matrix(mass, damping, stiffness):
    n = mass.shape[0]
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = -np.linalg.solve(mass, stiffness)
    g[n:, n:] = -np.linalg.solve(mass, damping)
    return g


def _circuit_matrix(params):
    if params["circuit"] == "single":
        ind = np.array([[float(params["inductance"])]])
        return _first_order_matrix(
            ind, np.array([[float(params["resistance"])]]),
            np.array([[1.0 / float(params["capacitance"])]]))
    rc = float(params["r_coupling"])
    return _first_order_matrix(
        np.diag([float(params["l1"]), float(params["l2"])]),
        np.array([[float(params["r1"]), rc], [rc, float(params["r2"])]]),
        np.diag([1.0 / float(params["c1"]), 1.0 / float(params["c2"])]))


def _miss(label, got, want, tol):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= tol:
        return [f"reference miss: {label} off by {err:.3e} (tol {tol:.0e})"]
    return []


def check_scenario(config, out_dir, name):
    """Failure causes of one finished ``run`` op (empty when it passed),
    and its RK4 step count read from the CSV (rows - 1)."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / f"{name}_report.json").read_text())
    causes = [f"invariant {inv['name']} failed "
              f"(residual {inv['residual']:.3e})"
              for inv in report["invariants"] if not inv["passed"]]
    header, row, steps = _last_row(out_dir / f"{name}.csv")
    params = config["parameters"]
    t = float(params["t_end"])
    if abs(row[0] - t) > TIME_TOL * max(1.0, t):
        when = "early" if row[0] < t else "late"
        return causes + [f"ended {when}: last row at t={float(row[0])!r}, "
                         f"requested t_end={t!r}, dt={params['dt']!r}"], steps
    kind = config["kind"]
    if kind == "gkls":
        ref = _gkls_reference(params, t)
        x = _column(header, row, "x")
        n = _complex(params["rho0"]).shape[0]
        got = dict(zip(header, row))
        causes += _miss("purity", 1.0 / n + float(x @ x), ref["purity"],
                        STATE_TOL)
        causes += _miss("min eigenvalue", got["min_eigenvalue"],
                        ref["min_eigenvalue"], STATE_TOL)
        causes += _miss("trace", got["trace"], ref["trace"], TRACE_TOL)
    elif kind == "pure-state":
        a, b = _complex(params["a"]), _complex(params["b"])
        psi = expm(t * (1j * a + b)) @ _complex(params["psi0"])
        psi /= np.linalg.norm(psi)
        got = _column(header, row, "x") + 1j * _column(header, row, "y")
        causes += _miss("psi(t_end)", got, psi, STATE_TOL)
    elif kind == "circuit":
        g = _circuit_matrix(params)
        state0 = np.concatenate([params["i0"], params["di0"]])
        got = np.concatenate([_column(header, row, "i"),
                              _column(header, row, "di")])
        causes += _miss("(i, di)(t_end)", got, expm(g * t) @ state0,
                        STATE_TOL)
    elif params["system"] == "linear":
        g = _first_order_matrix(*(np.atleast_2d(np.asarray(params[k],
                                                            dtype=float))
                                  for k in ("mass", "damping", "stiffness")))
        got = np.concatenate([_column(header, row, "q"),
                              _column(header, row, "qd")])
        causes += _miss("(q, qd)(t_end)", got,
                        expm(g * t) @ np.asarray(params["x0"]), STATE_TOL)
    else:
        gamma = float(params["gamma"])
        q0, qd0 = float(params["q0"][0]), float(params["qd0"][0])
        decay = np.exp(-gamma * t)
        got = dict(zip(header, row))
        causes += _miss("(q, qd)(t_end)", [got["q"], got["qd"]],
                        [q0 + qd0 * (1.0 - decay) / gamma, qd0 * decay],
                        STATE_TOL)
    return causes, steps


def check_suite(suite, out_dir):
    """Failure causes of one finished ``checks --filter suite`` op."""
    path = Path(out_dir) / "checks_report.json"
    results = json.loads(path.read_text())
    reported = {r["name"] for r in results}
    causes = [f"invariant {name} missing from the report"
              for name in SUITES[suite]["invariants"] if name not in reported]
    for r in results:
        if not r["name"].startswith(f"{suite}/"):
            causes.append(f"invariant {r['name']} is not in suite {suite}")
        elif not r["passed"]:
            causes.append(f"invariant {r['name']} failed "
                          f"(residual {r['residual']:.3e})")
        elif not np.isfinite(r["residual"]):
            causes.append(f"invariant {r['name']} has a non-finite residual")
    return causes
