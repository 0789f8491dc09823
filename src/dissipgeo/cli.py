"""Command-line front end.

    dissipgeo run <config.json | builtin-name> [--out DIR] [--dt X] [--t-end X]
    dissipgeo list
    dissipgeo checks [--filter MODULE] [--out DIR]

A config is a JSON object whose keys are ``execute_scenario``'s keywords:
"kind" in {gkls, pure-state, contact-lagrangian, circuit, checks}, an
optional "name" (a plain file name) and "parameters", the keywords of the
kind's runner in ``RUNNERS`` and of the variant it picks (gkls "model"
given or not, "circuit", "system"); every kind but checks requires t_end
and dt.  Only gkls "jumps" and "x0"/"rho0" (exactly one, a density
matrix) and linear "expect" (a verdict "hamiltonianity", an int
"span_dimension") may be left out.
Every number a config gives (t_end, dt, "gamma", the circuit values, the
starts and the matrices) must be a finite JSON number, and a JSON boolean
or a string is none; complex entries are [re, im] pairs of such numbers.
Each run writes a trajectory CSV (17 significant digits, LF endings,
byte-stable across runs, the bytes of one format(v, '.17g') per value)
plus a JSON report with per-invariant pass/fail and residuals, final_t
and stopped_early.  The writer makes the digits of CSV_BLOCK_ROWS (512)
rows at a time in numpy, as round(|v| * 10**(16 - k)) from an exact
double-double product, and writes 0 and -0 from the sign bit; nan, inf,
|v| outside [1e-100, 1e100) and the rare value it cannot prove right (a
near tie, a k that log10 rounded the wrong way) are written by CPython's
formatter.  Exit codes: 0 all invariants pass, 2 usage or config error
(a bad value, a name not read or a missing one, an unreadable config or
an unwritable --out, a dt at or below the five-point rounding floor of a
rate invariant), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import purestate as ps
from .algebra import (BasisCorruptionError, build_su_basis,
                      from_coherence_vector, is_hermitian)
from .checks import (CheckResult, contact_residuals, decomposition_identities,
                     energy_rate_identity, five_point_residual,
                     friction_invariants, gkls_flow, hamiltonianity_verdict,
                     linear_oracle, positivity, relative, result,
                     run_checks, sphere_flow, trace_preservation)
from .contact import DegenerateContactError
from .gkls import build_model, integrate, phase_damping_model
from .integrators import DivergenceError, rk4_linear_path, time_grid
from .mechanics import (HAMILTONIANITY_VERDICTS, ImplicitSystemError,
                        bivector_span_dimension, friction_system,
                        integrate_contact, representative_matrix,
                        rlc_coupled, rlc_single)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
CSV_BLOCK_ROWS = 512


class ConfigError(ValueError):
    """Configuration could not be validated or parsed."""


def parse_reals(data, what):
    """A finite number or nested lists of them -> float ndarray; a
    boolean or a string is no number."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not np.isfinite(arr).all() or any(
            isinstance(v, (bool, str))
            for v in np.asarray(data, dtype=object).flat):
        raise ConfigError(f"{what}: entries must be finite numbers")
    return arr


def parse_real(data, what):
    """One finite number -> float, by the rule of ``parse_reals``."""
    arr = parse_reals(data, what)
    if arr.ndim:
        raise ConfigError(f"{what} must be a number, not {data!r}")
    return float(arr)


def parse_complex_matrix(data, what):
    """Nested lists of [re, im] pairs of finite numbers -> complex
    ndarray."""
    arr = parse_reals(data, what)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigError(f"{what}: complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    rows = np.asarray(rows, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # a block of rows at a time keeps the byte grid small
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            fh.write(_csv_block_bytes(rows[start:start + CSV_BLOCK_ROWS]))


# format(v, '.17g') for a block of values at once.  The 17 digits are
# D = round(|v| * 10**(16 - k)), k = floor(log10|v|), whenever the unrounded
# product lies in [1e16, 1e17).  The product is Dekker's exact two-product
# of |v| with the double nearest 10**(16 - k) (Numer. Math. 18, 1971) plus
# |v| times the rest, within about 2**-48 of a unit of D's last digit.
# Each value then fills a 48-byte slot of six 64-bit words: sign, "0.000",
# the digits each followed by a point slot, "e-101", the separator, with a
# NUL wherever C's %g writes nothing; deleting the NULs leaves the line.
# A value the route cannot prove right keeps CPython's formatter.
_CSV_K_MIN, _CSV_K_MAX = -101, 100  # k for 1e-100 <= |v| < 1e100
_VELTKAMP = 134217729.0  # 2**27 + 1
_GROUP_OFFSETS = np.array([[0], [10000], [20000], [30000]])


def _veltkamp_split(a):
    """a = hi + lo with 26-bit halves, so products of halves are exact."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _csv_tables():
    """The tables of _csv_block_bytes, built on first use.

    - per k: the double nearest 10**(16 - k), its Veltkamp halves and the
      rest of 10**(16 - k);
    - per (k, significant digits): the six words of a slot, with "," as
      separator and 0xff where the value's own bytes go;
    - the first word's sign and lead digit, per lead + 10 * sign;
    - per 4-digit group: its digits, each followed by an 0xff point slot;
    - per (group position, group): the digits of the 16 after the lead
      up to the group's last nonzero one, 0 for a zero group, so that
      their maximum over a value's groups is its significant digits - 1;
    - the last word's masks that turn "," into a newline and that keep the
      separator alone."""
    ks = np.arange(_CSV_K_MIN, _CSV_K_MAX + 1)
    near, rest = [], []
    for p in (16 - ks).tolist():
        # int -> float and int / int round correctly
        if p >= 0:
            near.append(float(10 ** p))
            rest.append(float(10 ** p - int(near[-1])))
        else:
            q = 10 ** -p
            near.append(1 / q)
            num, den = near[-1].as_integer_ratio()
            rest.append((den - num * q) / (den * q))
    pow10 = np.array([near, *_veltkamp_split(np.array(near)), rest])

    # C's %g: fixed notation with k + 1 digits before the point for
    # -4 <= k < 17 ("0." and -k - 1 zeros first for k < 0), else one digit
    # and an exponent of at least two digits; no trailing zero after the
    # point, and no point without a digit after it
    fixed = (ks >= -4) & (ks < 17)
    before = np.where(fixed, np.maximum(ks + 1, 0), 1)[:, None, None]
    sig = np.arange(1, 18)[None, :, None]
    digit = np.arange(17)
    slot = np.zeros((len(ks), 17, 48), np.uint8)
    slot[:, :, 0] = 0xff
    slot[:, :, 45] = ord(",")
    slot[:, :, 1:6] = np.frombuffer(b"".join(
        (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"").ljust(5, b"\0")
        for k in ks.tolist()), np.uint8).reshape(-1, 1, 5)
    slot[:, :, 40:45] = np.frombuffer(b"".join(
        (b"" if -4 <= k < 17 else b"e%+03d" % k).ljust(5, b"\0")
        for k in ks.tolist()), np.uint8).reshape(-1, 1, 5)
    slot[:, :, 6:40:2] = (digit < np.maximum(sig, before)) * np.uint8(0xff)
    slot[:, :, 7:41:2] = ((digit == before - 1) & (sig > before)) \
        * np.uint8(ord("."))

    head = np.full((2, 10, 8), 0xff, np.uint8)
    head[:, :, 0] = [[0], [ord("-")]]
    head[:, :, 6] = np.arange(10) + ord("0")

    group = np.arange(10000, dtype=np.int16)
    quad = np.full((10000, 8), 0xff, np.uint8)
    trailing = np.zeros(10000, np.uint8)
    for i, step in enumerate((1000, 100, 10, 1)):
        quad[:, 2 * i] = group // step % 10 + ord("0")
        trailing += group % (10 * step) == 0
    last = np.where(group > 0, 4 - trailing, 0).astype(np.uint8)
    last = (np.arange(0, 16, 4, dtype=np.uint8)[:, None] + last) * (group > 0)

    sep = np.zeros((2, 8), np.uint8)
    sep[:, 5] = [ord(",") ^ ord("\n"), 0xff]

    # uint64 views of the byte tables: only &, ^ and copies touch them, so
    # the bytes stay in place whatever the byte order
    tables = (pow10, slot.view(np.uint64).reshape(-1, 6).T.copy(),
              head.view(np.uint64).ravel(), quad.view(np.uint64).ravel(),
              last.ravel(), sep.view(np.uint64).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_block_bytes(block):
    """The CSV lines of a 2-D float block: each value as format(v, '.17g'),
    joined by "," and ending in "\\n"."""
    pow10, slots, head, quad, last, (newline, sep_only) = _csv_tables()
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    exact = (a >= 1e-100) & (a < 1e100) | zero
    # 1.0 stands in for the values that fall back and for 0, whose k it
    # gives (checked below like any other)
    a = np.where(exact & ~zero, a, 1.0)
    ki = np.floor(np.log10(a)).astype(np.intp) - _CSV_K_MIN
    near, near_hi, near_lo, rest = pow10.take(ki, axis=1)
    # a * 10**(16 - k) = prod + err, err rounded once
    prod = a * near
    a_hi, a_lo = _veltkamp_split(a)
    err = ((a_hi * near_hi - prod) + a_hi * near_lo + a_lo * near_hi) \
        + a_lo * near_lo
    err += a * rest
    whole = np.floor(err)
    frac = err - whole
    digits = prod.astype(np.int64) + whole.astype(np.int64)
    # a product below 1e16 means log10 rounded k up, and one that rounds
    # to 1e17 a carry or a k rounded down; near ties fall back, so rounding
    # up above one half is rounding to nearest
    exact &= (digits >= 10 ** 16) & (np.abs(frac - 0.5) > 1e-6)
    digits += frac > 0.5
    exact &= digits < 10 ** 17
    digits[~exact] = 10 ** 16  # any in-range digits for the fallback
    digits[zero] = 0  # 0 and -0: the one digit 0 at the stand-in's k

    groups = np.empty((4, x.size), np.int64)
    for j in (3, 2, 1, 0):
        lead = digits // 10000
        groups[j] = digits - 10000 * lead
        digits = lead
    ends = last.take(groups + _GROUP_OFFSETS).max(axis=0)
    words = slots.take(17 * ki + ends, axis=1)
    words[0] &= head.take(lead + 10 * np.signbit(x))
    words[1:5] &= quad.take(groups)
    words[5].reshape(rows, cols)[:, -1] ^= newline
    # nan, inf, |v| out of range, a near tie, a wrong k or a carry:
    # CPython's formatter, value by value
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        words[:5, fallback] = np.frombuffer(b"".join(
            (b"%.17g" % v).ljust(40, b"\0")
            for v in x[fallback].tolist()), np.uint64).reshape(-1, 5).T
        words[5, fallback] &= sep_only
    return words.T.tobytes().translate(None, b"\0")


SQRT_HALF = 2.0 ** -0.5

BUILTIN_SCENARIOS = {
    "phase-damping": {
        "description": "qubit phase damping: coherences decay, populations hold",
        "config": {
            "kind": "gkls",
            "parameters": {"model": "phase-damping", "gamma": 1.0,
                           "x0": [SQRT_HALF, 0.0, 0.0],
                           "t_end": 3.0, "dt": 1e-3},
        },
    },
    "bloch-gradient": {
        "description": "gradient flow on the Bloch sphere toward the top eigenvector",
        "config": {
            "kind": "pure-state",
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
            "parameters": {"system": "friction", "gamma": 0.5,
                           "q0": [0.0], "qd0": [1.0],
                           "t_end": 10.0, "dt": 1e-3},
        },
    },
    "contact-homomorphism": {
        "description": "contact-geometry invariant suite (Jacobi homomorphism etc.)",
        "config": {
            "kind": "checks",
            "parameters": {"filter": "contact"},
        },
    },
}


def phase_damping_gkls(model, gamma):
    if model != "phase-damping":
        raise ConfigError(f"unknown model {model!r}")
    gamma = parse_real(gamma, "gamma")
    return phase_damping_model(gamma), gamma


def general_gkls(hamiltonian, jumps=()):
    h = parse_complex_matrix(hamiltonian, "hamiltonian")
    jumps = [parse_complex_matrix(j, "jump") for j in jumps]
    return build_model(build_su_basis(h.shape[0]), h, jumps), None


def run_gkls(t_end, dt, x0=None, rho0=None, **variant):
    build = phase_damping_gkls if "model" in variant else general_gkls
    model, gamma = build(**variant)
    size = model.basis.size
    if (x0 is None) == (rho0 is None):
        raise ConfigError("give exactly one of x0 and rho0")
    rho0 = (parse_complex_matrix(rho0, "rho0") if x0 is None
            else from_coherence_vector(parse_reals(x0, "x0"),
                                       model.basis))
    if not (is_hermitian(rho0)
            and positivity(np.linalg.eigvalsh(rho0)).passed):
        raise ConfigError("the initial state is not a density matrix")
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
        result("gkls/exponential-oracle", float(np.max(np.abs(
            from_coherence_vector(traj.points[-1], model.basis)
            - gkls_flow(model, rho0, traj.times[-1])))), 1e-6),
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


def run_pure_state(a, b, psi0, t_end, dt):
    a = parse_complex_matrix(a, "a")
    b = parse_complex_matrix(b, "b")
    psi0 = parse_complex_matrix(psi0, "psi0")
    times, psis = ps.integrate_sphere_flow(a, b, psi0, t_end, dt)
    n = psi0.shape[0]
    zs = ps.to_chart(psis)
    norms = np.linalg.norm(psis, axis=1)
    header = ["t"] + [f"x{j + 1}" for j in range(n)] \
        + [f"y{j + 1}" for j in range(n)] + ["norm"]
    rows = np.column_stack([times, zs, norms])

    exact = sphere_flow(a, b, psi0, times[-1])
    # the stepper never evaluates Z: hold the stored path to it
    field = ps.z_field(a, b, zs[2:-2])
    invariants = [
        result("purestate/norm-drift",
               float(np.max(np.abs(norms - 1.0))), 1e-8),
        contact_residuals([(a, b, ps.to_chart(psi0))]),
        result("purestate/exponential-oracle",
               float(np.max(np.abs(psis[-1] - exact))), 1e-7),
        five_point_residual("purestate/path-solves-z", zs, dt, field, 1e-6),
    ]
    return header, rows, invariants


def single_circuit(resistance, inductance, capacitance):
    """(system, L, R, C^-1) of a series RLC circuit."""
    return (rlc_single(resistance, inductance, capacitance),
            np.array([[inductance]]), np.array([[resistance]]),
            np.array([[1.0 / capacitance]]))


def coupled_circuit(l1, l2, c1, c2, r1, r2, r_coupling):
    """(system, L, R, C^-1) of two RLC circuits coupled by a resistance."""
    return (rlc_coupled(l1, l2, c1, c2, r1, r2, r_coupling),
            np.diag([l1, l2]), np.array([[r1, r_coupling], [r_coupling, r2]]),
            np.diag([1.0 / c1, 1.0 / c2]))


def run_circuit(circuit, i0, di0, t_end, dt, **values):
    if circuit not in ("single", "coupled"):
        raise ConfigError(f"unknown circuit {circuit!r}")
    build = single_circuit if circuit == "single" else coupled_circuit
    sys_, l_mat, r_mat, c_inv = build(
        **{name: parse_real(v, name) for name, v in values.items()})
    n = sys_.n
    # oracle: Kirchhoff's L I'' + R I' + C^-1 I = 0 as a linear system
    g = representative_matrix(l_mat, r_mat, c_inv)
    traj = integrate_contact(sys_, (parse_reals(i0, "i0"),
                                    parse_reals(di0, "di0"), 0.0), t_end, dt)

    header = ["t"] + [f"i{j + 1}" for j in range(n)] \
        + [f"di{j + 1}" for j in range(n)] + ["s", "energy"]
    rows = np.column_stack([traj.times, traj.q, traj.qd, traj.s, traj.energy])

    invariants = [linear_oracle("circuit/linear-oracle", g, traj.times,
                                rows[:, 1:2 * n + 1], len(traj.times) - 1,
                                1e-6)]
    if not np.any(r_mat):
        invariants.append(result(
            "circuit/energy-conservation",
            relative(traj.energy - traj.energy[0], traj.energy[0]), 1e-8))
    else:
        invariants.append(energy_rate_identity(
            "circuit/energy-rate-identity", sys_, traj, dt))
    return header, rows, invariants


def friction_lagrangian(gamma, q0, qd0, t_end, dt):
    gamma = parse_real(gamma, "gamma")
    traj = integrate_contact(friction_system(gamma), (
        parse_reals(q0, "q0"), parse_reals(qd0, "qd0"), 0.0), t_end, dt)
    header = ["t", "q", "qd", "s", "energy", "energy_mech"]
    rows = np.column_stack([traj.times, traj.q, traj.qd, traj.s,
                            traj.energy, traj.energy_mech])
    return header, rows, friction_invariants(gamma, traj, dt)


def expected_verdicts(hamiltonianity=None, span_dimension=None):
    """The linear system's "expect" block, each name optional."""
    if hamiltonianity not in (None, *HAMILTONIANITY_VERDICTS):
        raise ConfigError(f"unknown hamiltonianity {hamiltonianity!r}")
    if span_dimension is not None and type(span_dimension) is not int:
        raise ConfigError(f"span_dimension {span_dimension!r} is no int")
    return hamiltonianity, span_dimension


def linear_lagrangian(mass, damping, stiffness, x0, t_end, dt, expect=None):
    mass, damping, stiffness, x0 = map(
        parse_reals, (mass, damping, stiffness, x0),
        ("mass", "damping", "stiffness", "x0"))
    n = mass.shape[0] if mass.ndim == 2 else 0
    if n < 1 or not mass.shape == damping.shape == stiffness.shape == (n, n):
        raise ConfigError("mass, damping and stiffness must be n x n "
                          "matrices with n >= 1")
    if x0.shape != (2 * n,):
        raise ConfigError(f"x0 must have length {2 * n}")
    # a non-object "expect" or an unknown name in it is a TypeError here
    hamiltonianity, span_dimension = expected_verdicts(
        **({} if expect is None else expect))
    g = representative_matrix(mass, damping, stiffness)
    times, states = rk4_linear_path(g, x0, t_end, dt)
    header = ["t"] + [f"q{j + 1}" for j in range(n)] \
        + [f"qd{j + 1}" for j in range(n)]
    rows = np.column_stack([times, states])

    invariants = []
    if hamiltonianity is not None:
        invariants.append(hamiltonianity_verdict(
            "mechanics/hamiltonianity-verdict", g, hamiltonianity))
    if span_dimension is not None:
        span, _ = bivector_span_dimension(g)
        invariants.append(CheckResult(
            name="mechanics/bivector-span-dimension",
            passed=span == span_dimension,
            residual=float(span)))
    invariants.append(linear_oracle("mechanics/linear-oracle", g, times,
                                    states, len(times) - 1, 1e-6))
    return header, rows, invariants


def run_contact_lagrangian(system, **params):
    if system == "friction":
        return friction_lagrangian(**params)
    if system == "linear":
        return linear_lagrangian(**params)
    raise ConfigError(f"unknown system {system!r}")


# kind -> runner; its keyword signature, with that of the variant it picks,
# is the one list of the parameter names a config may give
RUNNERS = {
    "checks": run_checks,
    "gkls": run_gkls,
    "pure-state": run_pure_state,
    "circuit": run_circuit,
    "contact-lagrangian": run_contact_lagrangian,
}


def execute_scenario(out_dir, kind, name, parameters):
    """Run one scenario, writing its CSV and report; returns the report.
    The keywords are the one list of the top-level keys a config gives."""
    if kind not in RUNNERS:
        raise ConfigError(f"unknown kind {kind!r}; choose from "
                          f"{list(RUNNERS)}")
    if not isinstance(name, str) or not name or name != Path(name).name:
        raise ConfigError(f"name must be a plain file name, not {name!r}")
    # an int in the JSON writes the same CSV bytes as a float
    parameters.update({key: parse_real(parameters[key], key)
                       for key in ("t_end", "dt") if key in parameters})
    out_dir = Path(out_dir)
    started = time.perf_counter()
    outputs = []
    try:
        # an unknown or a missing parameter name is a TypeError here
        results = RUNNERS[kind](**parameters)
    except DivergenceError as exc:
        times, states = exc.partial
        write_csv(out_dir / f"{name}_partial.csv",
                  ["t"] + [f"y{j + 1}" for j in range(states.shape[1])],
                  np.column_stack([times, states]))
        raise
    if kind != "checks":
        header, rows, results = results
        csv_path = out_dir / f"{name}.csv"
        write_csv(csv_path, header, rows)
        outputs.append(str(csv_path))
    report = {
        "scenario": name,
        "kind": kind,
        "wall_time_s": time.perf_counter() - started,
        "invariants": [asdict(r) for r in results],
        "outputs": outputs,
    }
    if kind != "checks":  # a domain guard can end a path early
        report["final_t"] = float(rows[-1, 0])
        report["stopped_early"] = \
            len(rows) < len(time_grid(parameters["t_end"], parameters["dt"]))
    report_path = out_dir / f"{name}_report.json"
    write_json(report_path, report)
    return report


def load_config(source):
    """A builtin is named by its key, and a file by its stem unless it
    gives a "name"."""
    if source in BUILTIN_SCENARIOS:
        return {"name": source, **BUILTIN_SCENARIOS[source]["config"]}
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"no builtin scenario or config file {source!r}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
    # a JSON array, string or number is a TypeError here
    return {"name": path.stem, **config}


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

    report = None
    try:
        with np.errstate(all="ignore"):  # an exit code, never a warning
            if args.command == "checks":
                invariants = [asdict(r) for r in run_checks(args.filter)]
                if args.out is not None:
                    write_json(Path(args.out) / "checks_report.json",
                               invariants)
            else:
                overrides = {key: value for key, value in
                             (("dt", args.dt), ("t_end", args.t_end))
                             if value is not None}
                config = load_config(args.config)
                config["parameters"] = {**config.get("parameters", {}),
                                        **overrides}
                # an unknown or a missing top-level key is a TypeError here
                report = execute_scenario(args.out, **config)
                invariants = report["invariants"]
    # LinAlgError is a ValueError: the numerical clause must come first
    except (DivergenceError, ImplicitSystemError, DegenerateContactError,
            BasisCorruptionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, ValueError, TypeError, OSError, MemoryError) as exc:
        # ConfigError and the domain checks of the library (Hermiticity,
        # normalisation, unit trace, dt > 0, ...) are all ValueErrors, an
        # OSError is an unreadable config or an unwritable --out, and a
        # MemoryError a step grid (t_end / dt) too long to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_invariants(invariants)
    if report is not None:
        print(f"scenario {report['scenario']}: "
              f"{sum(i['passed'] for i in invariants)}"
              f"/{len(invariants)} invariants passed "
              f"({report['wall_time_s']:.2f} s)")
        if report.get("stopped_early"):
            print(f"stopped early at t = {report['final_t']:.6g}: the "
                  f"system's domain guard ended the path before t_end")
    return EXIT_OK if all(inv["passed"] for inv in invariants) \
        else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
