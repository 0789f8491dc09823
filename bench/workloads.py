"""Seeded op lists for the benchmark workloads.

An op is one CLI invocation: ``run <config.json>`` for a scenario or
``checks --filter <suite>``.  The seed fixes every matrix, initial state,
step size, horizon and the order of the ops; the structure that sets the
cost of a pass (the multiset of kinds, dimensions and jump counts, and a
nominal step count per op) is the same for every seed, so timings from
different seeds are comparable.

Step sizes and horizons are drawn as the round decimals a user writes
(``dt = 0.0015``, ``t_end = 15``).  In the timing workloads t_end is a
round value that dt divides, so every op of a correct program passes and a
timing never includes a failed op.  ``free-horizons`` draws t_end and dt
each on its own (``dt = 0.0015``, ``t_end = 14.5``), so dt need not divide
t_end; it measures how often the program misses the requested horizon.
No draw is rejected after looking at what the program does with it: the
ranges below are fixed up front.
"""

from __future__ import annotations

import json
import zlib
from functools import partial
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np

CHECK_SUITES = ("algebra", "contact", "gkls", "mechanics", "purestate")

WORKLOADS = {
    "linear-flows": (
        "gkls and linear contact-lagrangian configs, 1e4-step horizons: "
        "time sits in rk4_path step overhead, gkls diagnostics and CSV "
        "writing, where step matrices and a batch axis act"),
    "nonlinear-flows": (
        "pure-state, circuit and friction configs: purestate.z_field and "
        "mechanics.contact_el_field dominate; a linear-only change should "
        "leave it unchanged"),
    "gkls-large-n": (
        "gkls with n in 5..8 and a few hundred steps: build_su_basis "
        "dominates, so work moved into model build shows here and not in "
        "linear-flows"),
    "checks-suite": (
        "checks --filter for each of the five suites in seeded order: many "
        "short integrations, no CSV, the only workload reaching contact and "
        "checks"),
    "free-horizons": (
        "one op of each scenario kind with t_end and dt drawn each on its "
        "own, 1e3 steps: counts the ops that end before or after t_end when "
        "dt does not divide it"),
}

# Nominal steps per op at full size; tiny runs (the benchmark's tests)
# divide them by TINY_DIVISOR.
LINEAR_STEPS = 10_000
NONLINEAR_STEPS = 1_000
LARGE_N_STEPS = 200
FREE_STEPS = 1_000
TINY_DIVISOR = 100

LINEAR_DT = ("0.0005", "0.001", "0.0015", "0.002")
NONLINEAR_DT = ("0.001", "0.0015", "0.002")
LARGE_N_DT = ("0.001", "0.0015", "0.002", "0.005")
# t_end lies within this share of steps * dt, so an op's step count does.
HORIZON_SLACK = Decimal("0.035")

# (n, jump count) of the gkls ops.  Jump counts change an op's cost, so
# they are a fixed design like n; the jump matrices are drawn.  Seven
# large-n ops keep the median inside the n = 7 ops and the tail inside
# the n = 8 ops, not on the edge between two sizes.
LINEAR_GKLS = ((2, 1), (2, 3), (3, 0), (3, 2), (4, 1), (4, 3))
LARGE_N_GKLS = ((5, 0), (6, 1), (6, 3), (7, 0), (7, 2), (8, 1), (8, 2))


@dataclass
class Op:
    """One CLI invocation and what the reference check needs to know."""

    op_id: int
    kind: str                 # config kind, or "checks"
    n: int | None             # basis / state dimension where one exists
    argv_tail: list           # arguments after "run"/"checks"
    config: dict | None = None
    suite: str | None = None
    path: Path | None = field(default=None, repr=False)


def _rng(workload, seed):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _horizon(rng, choices, steps, whole=True):
    """(t_end, dt) as round decimals: dt one of ``choices``, t_end a
    multiple of 5 in the third significant digit of steps * dt (0.5 for
    10 <= steps * dt < 100) within HORIZON_SLACK of it.  With ``whole``
    t_end is drawn from those multiples that dt divides (steps * dt is
    always one); without it, whether dt divides t_end is left to the
    draw."""
    dt = Decimal(choices[int(rng.integers(len(choices)))])
    centre = dt * steps
    quantum = 5 * Decimal(1).scaleb(centre.adjusted() - 2)
    lo = (centre * (1 - HORIZON_SLACK) / quantum).to_integral_value(
        ROUND_CEILING)
    hi = (centre * (1 + HORIZON_SLACK) / quantum).to_integral_value(
        ROUND_FLOOR)
    t_ends = [quantum * k for k in range(int(lo), int(hi) + 1)]
    if whole:
        t_ends = [t for t in t_ends if t % dt == 0]
    t_end = t_ends[int(rng.integers(len(t_ends)))]
    return float(t_end.normalize()), float(dt)


def whole_steps(params):
    """Whether t_end is a whole number of dt steps (in decimal)."""
    ratio = Decimal(repr(params["t_end"])) / Decimal(repr(params["dt"]))
    return ratio == ratio.to_integral_value()


def _complex(mat):
    """Complex array -> nested [re, im] pairs, the config format."""
    mat = np.asarray(mat)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def _density(rng, n):
    """Full-rank density matrix: Wishart draw mixed with the identity."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(n) / n
    return (rho + rho.conj().T) / 2


def _spd(rng, n, scale, floor):
    b = rng.normal(size=(n, n))
    return scale * b @ b.T / n + floor * np.eye(n)


def _unit_vector(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def _gkls_op(rng, n, n_jumps, horizon, dts):
    t_end, dt = horizon(rng, dts)
    params = {
        "hamiltonian": _complex(_hermitian(rng, n)),
        "jumps": [_complex(0.3 * (rng.normal(size=(n, n))
                                  + 1j * rng.normal(size=(n, n))))
                  for _ in range(n_jumps)],
        "rho0": _complex(_density(rng, n)),
        "t_end": t_end, "dt": dt,
    }
    return "gkls", n, {"kind": "gkls", "parameters": params}


def _phase_damping_op(rng, horizon):
    t_end, dt = horizon(rng, LINEAR_DT)
    params = {"model": "phase-damping",
              "gamma": round(float(rng.uniform(0.1, 1.0)), 2),
              "rho0": _complex(_density(rng, 2)),
              "t_end": t_end, "dt": dt}
    return "gkls", 2, {"kind": "gkls", "parameters": params}


def _linear_lagrangian_op(rng, n, horizon):
    t_end, dt = horizon(rng, LINEAR_DT)
    params = {"system": "linear",
              "mass": _spd(rng, n, 0.5, 0.5).tolist(),
              "damping": _spd(rng, n, 0.3, 0.05).tolist(),
              "stiffness": _spd(rng, n, 1.0, 0.5).tolist(),
              "x0": rng.normal(size=2 * n).tolist(),
              "t_end": t_end, "dt": dt}
    return "contact-lagrangian", n, {"kind": "contact-lagrangian",
                                     "parameters": params}


def _pure_state_op(rng, n, horizon):
    t_end, dt = horizon(rng, NONLINEAR_DT)
    params = {"a": _complex(_hermitian(rng, n)),
              "b": _complex(_hermitian(rng, n, 0.5)),
              "psi0": _complex(_unit_vector(rng, n)),
              "t_end": t_end, "dt": dt}
    return "pure-state", n, {"kind": "pure-state", "parameters": params}


def _round(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 3)


def _circuit_op(rng, circuit, horizon):
    t_end, dt = horizon(rng, NONLINEAR_DT)
    if circuit == "single":
        n = 1
        params = {"circuit": "single", "resistance": _round(rng, 0.05, 1.0),
                  "inductance": _round(rng, 0.5, 2.0),
                  "capacitance": _round(rng, 0.5, 2.0)}
    else:
        n = 2
        r1, r2 = _round(rng, 0.1, 1.0), _round(rng, 0.1, 1.0)
        params = {"circuit": "coupled",
                  "l1": _round(rng, 0.5, 2.0), "l2": _round(rng, 0.5, 2.0),
                  "c1": _round(rng, 0.5, 2.0), "c2": _round(rng, 0.5, 2.0),
                  "r1": r1, "r2": r2,
                  "r_coupling": round(float(rng.uniform(0, 0.5))
                                      * min(r1, r2), 3)}
    params.update({"i0": rng.normal(size=n).tolist(),
                   "di0": rng.normal(size=n).tolist(),
                   "t_end": t_end, "dt": dt})
    return "circuit", n, {"kind": "circuit", "parameters": params}


def _friction_op(rng, horizon):
    t_end, dt = horizon(rng, NONLINEAR_DT)
    params = {"system": "friction", "gamma": _round(rng, 0.2, 1.0),
              "q0": [_round(rng, -1.0, 1.0)], "qd0": [_round(rng, 0.5, 2.0)],
              "t_end": t_end, "dt": dt}
    return "contact-lagrangian", 1, {"kind": "contact-lagrangian",
                                     "parameters": params}


def _specs(workload, rng, tiny):
    """Unordered (kind, n, config) triples; the multiset of kinds, sizes,
    jump counts and step counts does not depend on the seed."""
    div = TINY_DIVISOR if tiny else 1
    if workload == "linear-flows":
        horizon = partial(_horizon, steps=LINEAR_STEPS // div)
        specs = [_gkls_op(rng, n, jumps, horizon, LINEAR_DT)
                 for n, jumps in LINEAR_GKLS]
        specs.append(_phase_damping_op(rng, horizon))
        specs += [_linear_lagrangian_op(rng, n, horizon) for n in (1, 2, 3)]
        return specs
    if workload == "nonlinear-flows":
        horizon = partial(_horizon, steps=NONLINEAR_STEPS // div)
        return [_pure_state_op(rng, 2, horizon),
                _pure_state_op(rng, 3, horizon),
                _circuit_op(rng, "single", horizon),
                _circuit_op(rng, "coupled", horizon),
                _friction_op(rng, horizon)]
    if workload == "gkls-large-n":
        design = LARGE_N_GKLS[:2] if tiny else LARGE_N_GKLS
        horizon = partial(_horizon, steps=max(2, LARGE_N_STEPS // div))
        return [_gkls_op(rng, n, jumps, horizon, LARGE_N_DT)
                for n, jumps in design]
    if workload == "free-horizons":
        horizon = partial(_horizon, steps=FREE_STEPS // div, whole=False)
        return [_gkls_op(rng, 2, 1, horizon, LINEAR_DT),
                _phase_damping_op(rng, horizon),
                _linear_lagrangian_op(rng, 2, horizon),
                _pure_state_op(rng, 2, horizon),
                _circuit_op(rng, "single", horizon),
                _circuit_op(rng, "coupled", horizon),
                _friction_op(rng, horizon)]
    raise KeyError(workload)


def generate(workload, seed, config_dir, tiny=False):
    """Write the workload's configs under config_dir; return its op list.

    ``tiny`` shrinks horizons and sizes for the benchmark's own tests.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    if workload == "checks-suite":
        suites = ("algebra", "contact") if tiny else CHECK_SUITES
        order = rng.permutation(len(suites))
        return [Op(op_id=i, kind="checks", n=None, suite=suites[j],
                   argv_tail=["--filter", suites[j]])
                for i, j in enumerate(order)]
    specs = _specs(workload, rng, tiny)
    ops = []
    for i, j in enumerate(rng.permutation(len(specs))):
        kind, n, config = specs[j]
        path = config_dir / f"op{i:02d}.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        ops.append(Op(op_id=i, kind=kind, n=n, argv_tail=[str(path)],
                      config=config, path=path))
    return ops


def describe(workload, ops):
    """Op count, n distribution, n-repeat share and whole-step share of
    an op list.

    n_repeat_share is the share of ops whose kind and n were already seen
    earlier in the list, the property an in-process cache keyed on the
    model size (such as a basis cache) would exploit.  Passes repeat the
    whole list in one process, so from the second pass on every op
    repeats.  off_grid_share is the share of ops whose dt does not divide
    t_end.
    """
    seen, repeats, dist = set(), 0, {}
    for op in ops:
        key = (op.kind, op.n)
        label = f"{op.kind}:{op.suite if op.n is None else op.n}"
        dist[label] = dist.get(label, 0) + 1
        if op.n is not None and key in seen:
            repeats += 1
        seen.add(key)
    off_grid = sum(1 for op in ops
                   if op.config and not whole_steps(op.config["parameters"]))
    return {"why": WORKLOADS[workload], "ops_per_pass": len(ops),
            "n_distribution": dict(sorted(dist.items())),
            "n_repeat_share": repeats / len(ops),
            "off_grid_share": off_grid / len(ops)}
