import argparse
import contextlib
import copy
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipgeo import checks, cli, gkls, integrators, mechanics, purestate
from dissipgeo.cli import (BUILTIN_SCENARIOS, EXIT_NUMERICAL, EXIT_OK,
                           EXIT_USAGE, RUNNERS, main, parse_complex_matrix,
                           write_csv)


def run_cli(*argv):
    return main(list(argv))


# the invariants each builtin reports, in report order
BUILTIN_INVARIANTS = {
    "phase-damping": ["gkls/trace-preservation", "gkls/positivity",
                      "gkls/decomposition-sum-identity",
                      "gkls/nonlinear-cancellation",
                      "gkls/exponential-oracle",
                      "gkls/phase-damping-analytic"],
    "bloch-gradient": ["purestate/norm-drift", "purestate/contact-residuals",
                       "purestate/exponential-oracle",
                       "purestate/path-solves-z"],
    "rlc-single": ["circuit/linear-oracle", "circuit/energy-rate-identity"],
    "rlc-coupled": ["circuit/linear-oracle", "circuit/energy-rate-identity"],
    "coupled-damped-oscillators": ["mechanics/hamiltonianity-verdict",
                                   "mechanics/bivector-span-dimension",
                                   "mechanics/linear-oracle"],
    "friction-lagrangian": ["mechanics/friction-energy-conservation",
                            "mechanics/friction-mechanical-dissipation"],
}

# the invariants `dissipgeo checks` reports, suite by suite, in report order
CHECKS_INVARIANTS = [
    "algebra/basis-orthonormality", "algebra/basis-traceless",
    "algebra/structure-jacobi-identity", "algebra/coherence-round-trip",
    "algebra/expectation-affine",
    "contact/reeb-defining-equations", "contact/nondegeneracy",
    "contact/exact-chart-consistency", "contact/eta-contraction",
    "contact/jacobi-antisymmetry", "contact/alpha-df-degeneracy",
    "contact/bracket-homomorphism",
    "gkls/trace-preservation", "gkls/decomposition-sum-identity",
    "gkls/nonlinear-cancellation", "gkls/unitary-spectrum-invariance",
    "gkls/gradient-flow-rank-constancy", "gkls/positivity",
    "gkls/observed-order",
    "mechanics/odd-trace-soundness",
    "mechanics/damped-oscillators-not-hamiltonian",
    "mechanics/energy-rate-identity",
    "mechanics/friction-energy-conservation",
    "mechanics/friction-mechanical-dissipation",
    "mechanics/contact-reduction-consistency",
    "mechanics/declared-projection",
    "purestate/kaehler-compatibility", "purestate/sphere-tangency",
    "purestate/contact-residuals", "purestate/gradient-projectability",
    "purestate/contact-volume-rank", "purestate/projection-consistency",
    "purestate/observed-order", "purestate/generalized-contact-field",
]

PHASE_DAMPING = {"model": "phase-damping", "gamma": 1.0,
                 "x0": [0.5, 0.0, 0.0], "t_end": 1.0, "dt": 1e-2}
SIGMA3 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
ZERO2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
PURE_STATE = {"a": SIGMA3, "b": ZERO2, "psi0": [[1.0, 0.0], [0.0, 0.0]],
              "t_end": 1.0, "dt": 1e-2}
RLC_SINGLE = {"circuit": "single", "resistance": 0.2, "inductance": 1.0,
              "capacitance": 1.0, "i0": [1.0], "di0": [0.0],
              "t_end": 1.0, "dt": 1e-2}
FRICTION = {"system": "friction", "gamma": 0.5, "q0": [0.0], "qd0": [1.0],
            "t_end": 1.0, "dt": 1e-2}
COUPLED = {"circuit": "coupled", "l1": 1.0, "l2": 1.0, "c1": 1.0, "c2": 0.5,
           "r1": 0.5, "r2": 0.3, "r_coupling": 0.2, "i0": [1.0, 0.0],
           "di0": [0.0, 0.0], "t_end": 1.0, "dt": 1e-2}
LINEAR = {"system": "linear", "mass": [[1.0, 0.0], [0.0, 1.0]],
          "damping": [[0.3, 0.0], [0.0, 0.7]],
          "stiffness": [[1.0, 0.0], [0.0, 4.0]],
          "x0": [1.0, 0.0, 0.0, 0.0], "t_end": 1.0, "dt": 1e-2}


def without(params, name):
    return {k: v for k, v in params.items() if k != name}


BAD_VALUE_CONFIGS = {
    "non-hermitian-hamiltonian": ("gkls", {
        "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "x0": [0.5, 0.0, 0.0], "t_end": 1.0, "dt": 1e-2}),
    "unnormalised-psi0": ("pure-state", {
        **PURE_STATE, "psi0": [[1.0, 0.0], [1.0, 0.0]]}),
    "t_end-abc": ("gkls", {**PHASE_DAMPING, "t_end": "abc"}),
    "dt-zero": ("gkls", {**PHASE_DAMPING, "dt": 0}),
    "dt-nan": ("gkls", {**PHASE_DAMPING, "dt": "nan"}),
    "t_end-null": ("gkls", {**PHASE_DAMPING, "t_end": None}),
    "t_end-infinite": ("gkls", {**PHASE_DAMPING, "t_end": float("inf")}),
    "rho0-trace-two": ("gkls", {
        "hamiltonian": SIGMA3,
        "rho0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "t_end": 1.0, "dt": 1e-2}),
    "negative-gamma": ("gkls", {**PHASE_DAMPING, "gamma": -1}),
    # renormalize is no parameter: a config that gives it is rejected
    "renormalize-dt-zero": ("pure-state", {
        **PURE_STATE, "renormalize": True, "dt": 0}),
    "unknown-circuit": ("circuit", {**RLC_SINGLE, "circuit": "triple"}),
    "i0-wrong-length": ("circuit", {**RLC_SINGLE, "i0": [1.0, 0.0]}),
    "di0-wrong-length": ("circuit", {**RLC_SINGLE, "di0": [0.0, 0.0]}),
    "unknown-system": ("contact-lagrangian", {**LINEAR, "system": "rigid"}),
    "linear-x0-wrong-length": ("contact-lagrangian", {
        **LINEAR, "x0": [1.0, 0.0, 0.0]}),
    "psi0-plain-reals": ("pure-state", {**PURE_STATE, "psi0": [1.0, 0.0]}),
    "t_end-misspelt": ("circuit", {**without(RLC_SINGLE, "t_end"),
                                   "t_edn": 0.5}),
    "dt-missing": ("gkls", without(PHASE_DAMPING, "dt")),
    # a suite runs by `dissipgeo checks`, and no run kind is one
    "checks-kind": ("checks", {"filter": "contact"}),
    "friction-q0-two-entries": ("contact-lagrangian", {
        **FRICTION, "q0": [0.0, 1.0]}),
    "friction-qd0-zero": ("contact-lagrangian", {**FRICTION, "qd0": [0.0]}),
    "friction-qd0-below-guard": ("contact-lagrangian", {
        **FRICTION, "qd0": [1e-12]}),
    "renormalize-string": ("pure-state", {**PURE_STATE, "renormalize": "no"}),
    "unknown-gkls-model": ("gkls", {
        **PHASE_DAMPING, "model": "amplitude-damping", "hamiltonian": SIGMA3}),
    "x0-and-rho0": ("gkls", {
        **PHASE_DAMPING,
        "rho0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}),
    "system-missing": ("contact-lagrangian", without(FRICTION, "system")),
    "circuit-missing": ("circuit", without(RLC_SINGLE, "circuit")),
    "friction-gamma-missing": ("contact-lagrangian",
                               without(FRICTION, "gamma")),
    "q0-missing": ("contact-lagrangian", without(FRICTION, "q0")),
    "qd0-missing": ("contact-lagrangian", without(FRICTION, "qd0")),
    "phase-damping-gamma-missing": ("gkls", without(PHASE_DAMPING, "gamma")),
    # a name of another variant of the same kind
    "single-circuit-coupled-names": ("circuit", {
        **RLC_SINGLE, "l1": 1.0, "r_coupling": 0.2}),
    "friction-linear-names": ("contact-lagrangian", {
        **FRICTION, "mass": [[1.0]], "x0": [1.0, 0.0]}),
    "phase-damping-general-names": ("gkls", {
        **PHASE_DAMPING, "hamiltonian": SIGMA3, "jumps": []}),
    "general-gkls-gamma": ("gkls", {
        "hamiltonian": SIGMA3, "x0": [0.5, 0.0, 0.0], "gamma": 3.0,
        "t_end": 1.0, "dt": 1e-2}),
    "linear-friction-names": ("contact-lagrangian", {
        **LINEAR, "gamma": 0.5, "qd0": [1.0]}),
    "linear-mass-scalar": ("contact-lagrangian", {**LINEAR, "mass": 1.0}),
    "linear-matrices-empty": ("contact-lagrangian", {
        **LINEAR, "mass": [], "damping": [], "stiffness": [], "x0": []}),
    # a JSON boolean is no number, and JSON reads 1e400 as inf
    "t_end-true": ("pure-state", {**PURE_STATE, "t_end": True}),
    "b-entry-true": ("pure-state", {
        **PURE_STATE,
        "b": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}),
    "b-entry-1e400": ("pure-state", {
        **PURE_STATE, "b": [[[json.loads("1e400"), 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]]]}),
    # a string is no number, nor is a boolean outside the complex parsers
    "t_end-string-number": ("pure-state", {**PURE_STATE, "t_end": "1"}),
    "a-entry-strings": ("pure-state", {
        **PURE_STATE, "a": [[["1", "0"], [0.0, 0.0]],
                            [[0.0, 0.0], [-1.0, 0.0]]]}),
    "resistance-true": ("circuit", {**RLC_SINGLE, "resistance": True}),
    "i0-entry-true": ("circuit", {**RLC_SINGLE, "i0": [True]}),
    "di0-entry-string": ("circuit", {**RLC_SINGLE, "di0": ["0"]}),
    "phase-damping-gamma-true": ("gkls", {**PHASE_DAMPING, "gamma": True}),
    "phase-damping-gamma-1e400": ("gkls", {
        **PHASE_DAMPING, "gamma": json.loads("1e400")}),
    "phase-damping-gamma-list": ("gkls", {**PHASE_DAMPING, "gamma": [1.0]}),
    "gkls-x0-entry-string": ("gkls", {**PHASE_DAMPING,
                                      "x0": ["0.5", 0.0, 0.0]}),
    "friction-gamma-string": ("contact-lagrangian", {**FRICTION,
                                                     "gamma": "0.5"}),
    "friction-q0-entry-nan": ("contact-lagrangian", {
        **FRICTION, "q0": [float("nan")]}),
    "linear-mass-entry-true": ("contact-lagrangian", {
        **LINEAR, "mass": [[True, 0.0], [0.0, 1.0]]}),
    "linear-x0-entry-infinite": ("contact-lagrangian", {
        **LINEAR, "x0": [float("inf"), 0.0, 0.0, 0.0]}),
    "coupled-r_coupling-string": ("circuit", {
        **COUPLED, "r_coupling": "0.2"}),
    # r1 and r2 are resistances, >= 0 as a single circuit's is
    "coupled-r1-negative": ("circuit", {**COUPLED, "r1": -0.5}),
    # dissipation has a sign: a Rayleigh matrix with r_coupling**2 > r1 r2
    # and a friction gamma < 0 each feed the energy they should drain
    "coupled-rayleigh-indefinite": ("circuit", {
        **COUPLED, "c2": 1.0, "r1": 0.1, "r2": 0.1, "r_coupling": 1.0,
        "t_end": 10.0, "dt": 0.01}),
    "friction-gamma-negative": ("contact-lagrangian", {
        **FRICTION, "gamma": -0.5, "t_end": 10.0, "dt": 0.01}),
    "integer-overflowing-a-float": ("circuit", {
        **RLC_SINGLE, "inductance": 10 ** 400}),
    # 1/C overflows from a positive, finite capacitance
    "single-capacitance-1e-320": ("circuit", {
        **RLC_SINGLE, "capacitance": 1e-320}),
    "coupled-c1-1e-320": ("circuit", {**COUPLED, "c1": 1e-320}),
    # a jump that is not n x n for the Hamiltonian's n
    "jump-3x3-on-a-qubit": ("gkls", {
        "hamiltonian": SIGMA3, "jumps": [[[[0.0, 0.0]] * 3] * 3],
        "x0": [0.5, 0.0, 0.0], "t_end": 1.0, "dt": 1e-2}),
    # an initial gkls state must be a density matrix
    "x0-outside-bloch-ball": ("gkls", {**PHASE_DAMPING, "x0": [2, 0, 0]}),
    "rho0-negative-eigenvalue": ("gkls", {
        "hamiltonian": SIGMA3,
        "rho0": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        "t_end": 1.0, "dt": 1e-2}),
    "rho0-non-hermitian": ("gkls", {
        "hamiltonian": SIGMA3,
        "rho0": [[[0.5, 0.0], [0.9, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "t_end": 1.0, "dt": 1e-2}),
    # "expect" is an object of a verdict and an int span dimension
    "expect-span-string": ("contact-lagrangian", {
        **LINEAR, "expect": {"span_dimension": "6"}}),
    "expect-span-fraction": ("contact-lagrangian", {
        **LINEAR, "expect": {"span_dimension": 6.5}}),
    "expect-span-true": ("contact-lagrangian", {
        **LINEAR, "expect": {"span_dimension": True}}),
    "expect-string": ("contact-lagrangian", {**LINEAR, "expect": "abc"}),
    "expect-unknown-name": ("contact-lagrangian", {
        **LINEAR, "expect": {"span": 6}}),
    "expect-verdict-misspelt": ("contact-lagrangian", {
        **LINEAR, "expect": {"hamiltonianity": "not-hamiltonain"}}),
}

# paths too short for the five-point stencil of an energy-rate invariant
# or of purestate/path-solves-z
SHORT_PATH_CONFIGS = {
    "pure-state-three-steps": ("pure-state", {
        **PURE_STATE, "t_end": 0.03, "dt": 0.01}),
    "rlc-single-three-steps": ("circuit", {
        **BUILTIN_SCENARIOS["rlc-single"]["config"]["parameters"],
        "t_end": 0.003, "dt": 0.001}),
    "friction-guard-after-one-row": ("contact-lagrangian", {
        **FRICTION, "qd0": [1.5e-10], "dt": 1, "t_end": 10}),
}

# correct runs whose dt is at or below the five-point rounding floor of
# an invariant, 1.5 eps max|series| / dt: before the floor check the
# first two exited 3 (1.4e-5 and 6.3e-6 against 1e-6), the friction run 0
FLOOR_CONFIGS = {
    "pure-state": ("pure-state", "purestate/path-solves-z", {
        "a": SIGMA3,
        "b": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        "psi0": [[0.6, 0.0], [0.8, 0.0]], "t_end": 1e-9, "dt": 1e-11}),
    "rlc-single": ("circuit", "circuit/energy-rate-identity", {
        **RLC_SINGLE, "i0": [0.0], "di0": [1.0], "t_end": 1e-9, "dt": 1e-11}),
    "friction": ("contact-lagrangian",
                 "mechanics/friction-mechanical-dissipation", {
                     **FRICTION, "t_end": 1e-9, "dt": 1e-11}),
}

# a whole config that is malformed at its top level
BAD_TOP_LEVEL_CONFIGS = {
    "array": [],
    "string": "abc",
    "number": 3,
    "unknown-key": {"kind": "gkls", "parameters": PHASE_DAMPING,
                    "comment": "x"},
    "kind-missing": {"parameters": PHASE_DAMPING},
    "name-number": {"kind": "gkls", "name": 3, "parameters": PHASE_DAMPING},
    "name-empty": {"kind": "gkls", "name": "", "parameters": PHASE_DAMPING},
    "name-with-slash": {"kind": "gkls", "name": "a/b",
                        "parameters": PHASE_DAMPING},
    "parameters-array": {"kind": "gkls", "parameters": [1.0]},
}

# systems whose mass (or inductance) matrix has |det| of 1e-11 to 1e-15,
# far below the singularity tolerances, yet is well conditioned
SMALL_SCALE_CONFIGS = {
    "coupled-circuit-100-nanohenry": ("circuit", {
        "circuit": "coupled", "l1": 1e-7, "l2": 1e-7, "c1": 1e-3,
        "c2": 1e-3, "r1": 1e-4, "r2": 1e-4, "r_coupling": 1e-5,
        "i0": [1.0, 0.0], "di0": [0.0, 0.0], "t_end": 1e-4, "dt": 1e-7}),
    # velocity Hessian 1e-11: the n = 1 test is scale-free too
    "single-circuit-10-picohenry": ("circuit", {
        "circuit": "single", "inductance": 1e-11, "capacitance": 1e-3,
        "resistance": 1e-6, "i0": [1.0], "di0": [0.0], "t_end": 1e-6,
        "dt": 1e-9}),
    # 1e-5 times a system that runs: the same representative matrix
    "linear-3dof-scaled-1e-5": ("contact-lagrangian", {
        "system": "linear",
        "mass": [[1e-5, 0.0, 0.0], [0.0, 1e-5, 0.0], [0.0, 0.0, 1e-5]],
        "damping": [[3e-6, 1e-6, 0.0], [1e-6, 5e-6, 1e-6],
                    [0.0, 1e-6, 7e-6]],
        "stiffness": [[1e-5, 1e-6, 0.0], [1e-6, 2e-5, 1e-6],
                      [0.0, 1e-6, 3e-5]],
        "x0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "t_end": 1.0, "dt": 1e-2}),
}


def builtin_parameters(name, **changes):
    return {**BUILTIN_SCENARIOS[name]["config"]["parameters"], **changes}


# correct runs whose state or generator is far above 1: every invariant
# residual is relative to a size that grows with them, so they pass
LARGE_SCALE_CONFIGS = {
    "lossless-circuit-1e8-amperes": ("circuit", builtin_parameters(
        "rlc-single", resistance=0.0, i0=[1e8])),
    "single-circuit-1e8-amperes": ("circuit", builtin_parameters(
        "rlc-single", i0=[1e8])),
    "coupled-circuit-1e8-amperes": ("circuit", builtin_parameters(
        "rlc-coupled", i0=[1e8, 0.0])),
    "damped-oscillators-x0-1e8": ("contact-lagrangian", builtin_parameters(
        "coupled-damped-oscillators", x0=[1e8, 0.0, 0.0, 0.0])),
    "friction-qd0-1e4": ("contact-lagrangian", builtin_parameters(
        "friction-lagrangian", qd0=[1e4], t_end=1.0)),
    "friction-qd0-1e6": ("contact-lagrangian", builtin_parameters(
        "friction-lagrangian", qd0=[1e6], t_end=1.0)),
    "pure-state-generator-1e8": ("pure-state", {
        "a": [[[1e8, 0.0], [3e7, 0.0]], [[3e7, 0.0], [-1e8, 0.0]]],
        "b": [[[1e8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e8, 0.0]]],
        "psi0": [[0.6, 0.0], [0.8, 0.0]], "t_end": 1e-9, "dt": 1e-11}),
}

# one valid config per variant of every integrating kind, on a short path
SHORT = {"t_end": 0.05, "dt": 0.01}
VARIANTS = {
    "phase-damping": ("gkls", {**PHASE_DAMPING, **SHORT}),
    "general-gkls": ("gkls", {
        "hamiltonian": SIGMA3,
        "jumps": [[[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "rho0": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        **SHORT}),
    "pure-state": ("pure-state", {**PURE_STATE, **SHORT}),
    "single-circuit": ("circuit", {**RLC_SINGLE, **SHORT}),
    "coupled-circuit": ("circuit", {**COUPLED, **SHORT}),
    "friction": ("contact-lagrangian", {**FRICTION, **SHORT}),
    "linear": ("contact-lagrangian", {
        **LINEAR, "expect": {"hamiltonianity": "not-hamiltonian"},
        **SHORT}),
}


def general_gkls_x0(**changes):
    """The general-gkls variant started from x0 = (0.1, 0, 0)."""
    return {**without(VARIANTS["general-gkls"][1], "rho0"),
            "x0": [0.1, 0.0, 0.0], **changes}


def random_gkls_x0(n, seed):
    """A general gkls config of size n, a random H and one random jump,
    from a random x0 with |x0| = 0.2 < 1/n, so that I/n + x0^j tau_j is a
    density matrix: |x0^j tau_j| is at most its Frobenius norm |x0|."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2, n, n))
    h, jump = g[:, 0] + 1j * g[:, 1]
    x0 = rng.normal(size=n * n - 1)

    def pairs(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]

    return {"hamiltonian": pairs(h + h.conj().T), "jumps": [pairs(0.5 * jump)],
            "x0": (0.2 * x0 / np.linalg.norm(x0)).tolist(), **SHORT}


# t_end / dt rounding to no step (0.5 rounds to 0): no path to report
BAD_VALUE_CONFIGS.update({
    "gkls-no-step": ("gkls", {**PHASE_DAMPING, "t_end": 1.0, "dt": 3.0}),
    "pure-state-half-step": ("pure-state", {
        **PURE_STATE, "t_end": 0.005, "dt": 0.01}),
    "circuit-no-step": ("circuit", {
        **RLC_SINGLE, "resistance": 0.0, "t_end": 0.4, "dt": 1.0}),
    "contact-lagrangian-no-step": ("contact-lagrangian", {
        **LINEAR, "t_end": 0.4, "dt": 1.0}),
})
# t_end / dt beyond the float range: every stepper builds its grid first
BAD_VALUE_CONFIGS.update({
    f"{variant}-step-count-overflow": (kind, {**params, "t_end": 1e308,
                                              "dt": 1e-308})
    for variant, (kind, params) in VARIANTS.items()})
# every parameter name with a valid value for some variant
NAME_VALUES = {name: value for _, params in VARIANTS.values()
               for name, value in params.items() if name not in SHORT}

# JSON values that are no finite number: each numeric parameter rejects
# them with exit 2
NOT_NUMBERS = [True, False, "1", "abc", float("inf"), float("-inf"),
               float("nan")]
small_scalars = (st.none() | st.integers(-3, 3) | st.floats(-3, 3)
                 | st.text(max_size=3) | st.sampled_from(NOT_NUMBERS))
small_json = small_scalars | st.lists(
    small_scalars | st.lists(small_scalars, max_size=3), max_size=3) \
    | st.dictionaries(st.text(max_size=3), small_scalars, max_size=2)


@st.composite
def malformed_configs(draw):
    """A valid variant config with one parameter name dropped, one name of
    another variant added or one value replaced (t_end and dt stay), or
    with one change to its top level."""
    kind, params = VARIANTS[draw(st.sampled_from(sorted(VARIANTS)))]
    params = dict(params)
    config = {"kind": kind, "parameters": params}
    names = sorted(set(params) - set(SHORT))
    mutation = draw(st.sampled_from(["drop", "add", "replace", "config",
                                     "key", "kind", "name", "parameters"]))
    if mutation == "drop":
        del params[draw(st.sampled_from(names))]
    elif mutation == "add":
        name = draw(st.sampled_from(sorted(set(NAME_VALUES) - set(params))))
        params[name] = NAME_VALUES[name]
    elif mutation == "replace":
        params[draw(st.sampled_from(names))] = draw(small_json)
    elif mutation == "config":
        return draw(small_json)
    elif mutation == "key":
        key = draw(st.text(max_size=3).filter(
            lambda k: k not in ("kind", "name", "parameters")))
        config[key] = draw(small_json)
    elif mutation == "kind":
        if draw(st.booleans()):
            del config["kind"]
        else:
            config["kind"] = draw(st.text(max_size=8).filter(
                lambda k: k not in RUNNERS))
    elif mutation == "name":
        config["name"] = draw(
            st.sampled_from(["", "a/b", "/abs", "."])
            | small_json.filter(lambda v: not isinstance(v, str)))
    else:
        config["parameters"] = draw(
            small_json.filter(lambda v: not isinstance(v, dict)))
    return config


def is_numeric(value):
    """A JSON number or nested lists of them (an empty list included)."""
    if isinstance(value, list):
        return all(is_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def non_number_configs(draw):
    """A valid variant config with one number, in t_end, dt or another
    numeric parameter, or one of their arrays or rows, replaced by a value
    that is no finite number."""
    kind, params = VARIANTS[draw(st.sampled_from(sorted(VARIANTS)))]
    params = json.loads(json.dumps(params))
    holder, key = params, draw(st.sampled_from(sorted(
        name for name, value in params.items() if is_numeric(value))))
    while isinstance(holder[key], list) and holder[key] \
            and draw(st.booleans()):
        holder, key = holder[key], draw(
            st.integers(0, len(holder[key]) - 1))
    holder[key] = draw(st.sampled_from(NOT_NUMBERS))
    return {"kind": kind, "parameters": params}


class TestParsing:
    def test_complex_matrix_round_trip(self):
        mat = parse_complex_matrix([[[1.0, 2.0], [0.0, -1.0]],
                                    [[0.0, 1.0], [3.0, 0.0]]], "matrix")
        assert mat.dtype == complex
        assert mat[0, 0] == 1 + 2j
        assert mat[1, 0] == 1j

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="matrix: "):
            parse_complex_matrix([[1.0, 2.0], [3.0, 4.0, 5.0]], "matrix")


def test_write_csv_matches_per_value_format(tmp_path):
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2e-308,
              0.1, -1.0 / 3.0, 1e300]
    ranks = [1.0, 2.0, 3.0, 0.0, 4.0, 1.0, 2.0, 3.0, 2.0, 1.0]
    rows = np.column_stack([values, ranks])
    path = tmp_path / "edge.csv"
    write_csv(path, ["value", "rank"], rows)
    expected = "value,rank\n" + "".join(
        f"{format(v, '.17g')},{format(r, '.17g')}\n"
        for v, r in zip(values, ranks))
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[1:3] == ["-0,1", "0,2"]


def per_value_csv(header, rows):
    """The CSV of write_csv, one format() per value: its oracle."""
    return (",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n"
        for row in np.asarray(rows, dtype=float).tolist())).encode()


# the block test's own block size: write_csv reads CSV_BLOCK_ROWS on each
# call, so its boundaries are tested at this size whatever the tuned
# default is, and the test ids stay put when that default moves; these
# tests write at most 13 columns, and CSV_BLOCK_VALUES // 13 = 315 rows
# leave the blocks at this size
BLOCK = 256


def ulp_neighbours(value, count):
    """The doubles 1 to count ulps below and above value."""
    out, down, up = [], value, value
    for _ in range(count):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


# the edge values of the per-value test and three more; then where a
# 17-digit writer can go wrong: 10**k with its neighbours up to 3 ulps
# away (log10 can round to k there, and the double 1e-38 lies below
# 10**-38, so it has 17 digits at k = -39), values that round up to the
# next power of ten, both sides of the switch to e notation at 1e-4 and
# 1e17, subnormals, and exact ties at the 18th digit (to even: .2, .8)
CSV_EDGES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2e-308, 0.1,
             -1.0 / 3.0, 1e300, 1.0, 7.0, -123456789.0] + [
    v for k in range(-99, 100)
    for v in [float(f"1e{k}"), *ulp_neighbours(float(f"1e{k}"), 3),
              float(f"9.99999999999999995e{k}")]] + [
    1e-4, 9.9999999999999991e-05, 1e16, 1e17, -1e17,
    2.2250738585072009e-308, 1e-310, -4.9406564584124654e-323,
    1e15 + 0.25, -(1e15 + 0.75)]


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
@pytest.mark.parametrize("columns", [1, 3, 12])
def test_write_csv_blocks_match_per_value_format(count, columns, tmp_path,
                                                 monkeypatch):
    # the edge values in order through the first half of the rows (all of
    # them at 12 columns and 2B + 3 rows), then random values, and a last
    # column of 0 and -0
    rows = np.resize(CSV_EDGES, (count, columns))
    rows[count // 2:] += np.random.default_rng(count).normal(
        size=(count - count // 2, columns))
    rows = np.column_stack([rows, np.resize([0.0, -0.0], count)])
    header = [f"c{j}" for j in range(columns + 1)]
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", BLOCK)
    path = tmp_path / "blocks.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == per_value_csv(header, rows)


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_write_csv_checks_k_on_the_product(direction, monkeypatch,
                                           tmp_path):
    # k = floor(log10|v|) is only a guess: with log10 moved 4 ulps, k is
    # one off for every power of ten and its near neighbours, and the
    # writer must see it on the scaled product alone
    true_log10 = np.log10

    def skewed_log10(a):
        out = true_log10(a)
        for _ in range(4):
            out = np.nextafter(out, direction)
        return out

    monkeypatch.setattr(np, "log10", skewed_log10)
    rows = np.array(CSV_EDGES)[:, None]
    write_csv(tmp_path / "skewed.csv", ["v"], rows)
    assert (tmp_path / "skewed.csv").read_bytes() == per_value_csv(["v"],
                                                                   rows)


@st.composite
def near_ties(draw):
    """The double nearest a decimal whose 18th and last significant digit
    is a 5, or one of its two neighbours: values near a 17-digit tie."""
    digits = draw(st.integers(10 ** 16, 10 ** 17 - 1))
    value = float(f"{draw(st.sampled_from('+-'))}{digits}5e"
                  f"{draw(st.integers(-122, 88))}")
    return float(np.nextafter(value, draw(st.sampled_from(
        [-np.inf, value, np.inf]))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values=st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True,
              allow_subnormal=True) | near_ties(), min_size=1, max_size=64))
def test_write_csv_matches_format_on_any_double(values):
    rows = np.array(values)[:, None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "any.csv"
        write_csv(path, ["v"], rows)
        assert path.read_bytes() == per_value_csv(["v"], rows)


@st.composite
def exact_ties(draw):
    """A double with 16 digits before the point and .25 or .75 after it:
    its 18th and last significant digit is a 5, a 17-digit tie that the
    writer leaves to CPython's formatter."""
    return draw(st.sampled_from([1.0, -1.0])) \
        * (2 * draw(st.integers(2 ** 51, 2 ** 52 - 1)) + 1) / 4


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ties=st.lists(exact_ties(), min_size=1, max_size=16),
       columns=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_blocks_do_not_depend_on_the_block_before(ties, columns,
                                                            seed):
    # a block's bytes and fallbacks do not depend on the block before it:
    # a block of values that all fall back (nan, inf, out of range, ties),
    # a full block of ordinary values with zeros, and a short block with
    # zeros elsewhere; a row that a later block took from the one before
    # would show in the bytes or, where that row sends every value to
    # CPython's formatter, in the count of values that fall back
    rng = np.random.default_rng(seed)
    fallback = np.resize([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300,
                          *ties], (BLOCK, columns))
    # below 1e13, where a random double is almost never a 17-digit tie
    ordinary = rng.normal(size=(BLOCK + BLOCK // 3, columns)) \
        * 10.0 ** rng.integers(-30, 12, size=(BLOCK + BLOCK // 3, columns))
    ordinary[rng.random(ordinary.shape) < 0.2] = 0.0
    # and in each of them a double just below 10**k whose log10 rounds to
    # k, which only the product's range check sends to the formatter
    for part in (ordinary[:BLOCK], ordinary[BLOCK:]):
        part.flat[rng.integers(part.size)] = np.nextafter(
            10.0 ** rng.choice([-79, -73, -14, 98]), 0)
    rows = np.vstack([fallback, ordinary])
    header = [f"c{j}" for j in range(columns)]
    flatnonzero, fell_back = np.flatnonzero, []

    def counting(mask):
        fell_back.append(flatnonzero(mask).size)
        return flatnonzero(mask)

    with mock.patch.object(cli, "CSV_BLOCK_ROWS", BLOCK), \
            mock.patch.object(np, "flatnonzero", counting), \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == per_value_csv(header, rows)
    # those two fall back, and so would a near tie, but most values don't
    assert fell_back[0] == fallback.size
    assert max(fell_back[1:]) <= BLOCK // 10


def test_partial_csv_matches_per_value_format(tmp_path):
    # z = -2 gamma dt = -3 is outside RK4's real stability interval, so the
    # path grows by 1.375 a step and overflows after 2,225 rows, some
    # blocks and a remainder, the last near 1e308
    params = {"model": "phase-damping", "gamma": 1.0, "x0": [0.7, 0.0, 0.0],
              "t_end": 15000.0, "dt": 1.5}
    with pytest.raises(integrators.DivergenceError) as info:
        cli.execute_scenario(tmp_path, "gkls", "unstable", params)
    times, states = info.value.partial
    block = cli.CSV_BLOCK_ROWS
    assert len(times) % block and len(times) > 2 * block
    assert (tmp_path / "unstable_partial.csv").read_bytes() == per_value_csv(
        ["t", "y1", "y2", "y3"], np.column_stack([times, states]))


def n4_gkls_parameters():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h, jump = (a + a.conj().T) / 2, 0.3 * rng.normal(size=(4, 4))
    return {"hamiltonian": np.stack([h.real, h.imag], -1).tolist(),
            "jumps": [np.stack([jump, 0 * jump], -1).tolist()],
            "rho0": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                     for i in range(4)],
            "t_end": 20.0, "dt": 1e-3}


# kind, parameters, CSV rows and the tracemalloc bound in bytes a row.  A
# runner hands write_csv its path arrays as Columns and keeps no CSV rows;
# the writer's block array and tables take about 1.3 MB more.
# - gkls n = 4: the times (1 double), the fill's lifted states (16), the
#   traces (1), the spectra (4) and the ranks (1) are 184 bytes a row,
#   and the writer about 57 more at 20,001 rows: 241 measured;
# - pure state n = 2: 208, before the writer;
# - phase damping: 120, in the phase-damping-analytic invariant;
# - linear n = 2: the times and states (5 doubles) and the writer about
#   13 more at 100,001 rows: 48 measured.
# A runner that copies its path into (T, C) rows, C doubles a row, reads
# 289, 256, 136 and 80, past each bound.
# The closed-form contact route (rlc-coupled, rlc-single, and friction
# before its guard stops it) holds the four stacked RK4 stage points of
# every step and phi's temporaries on them at once, which set its peaks:
# 424, 184 and 189 measured.  Each bound sits just above, so the route
# cannot grow, and a change that steps fewer stages at once can tighten it.
PATH_PEAKS = {
    "gkls-n4": ("gkls", n4_gkls_parameters(), 20001, 262),
    "pure-state": ("pure-state", builtin_parameters(
        "bloch-gradient", t_end=100.0), 100001, 232),
    "phase-damping": ("gkls", builtin_parameters(
        "phase-damping", t_end=100.0), 100001, 124),
    "linear": ("contact-lagrangian", builtin_parameters(
        "coupled-damped-oscillators", t_end=100.0), 100001, 64),
    "rlc-coupled": ("circuit", builtin_parameters(
        "rlc-coupled", t_end=100.0), 100001, 430),
    "rlc-single": ("circuit", builtin_parameters(
        "rlc-single", t_end=100.0), 100001, 188),
    "friction": ("contact-lagrangian", builtin_parameters(
        "friction-lagrangian", t_end=40.0), 40001, 193),
}


@pytest.mark.parametrize("case", PATH_PEAKS)
def test_a_run_holds_its_path_once(case, tmp_path):
    kind, params, rows, bound = PATH_PEAKS[case]
    tracemalloc.start()
    try:
        report = cli.execute_scenario(tmp_path, kind, case, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(inv["passed"] for inv in report["invariants"])
    assert len((tmp_path / f"{case}.csv").read_bytes().splitlines()) \
        == rows + 1
    assert peak <= bound * rows


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
def test_write_csv_lays_out_columns(count, tmp_path, monkeypatch):
    # a float and an int column, a strided (T, k) view and a contiguous
    # (T, k) array write the rows of their column_stack
    rng = np.random.default_rng(count)
    floats = rng.normal(size=count)
    ints = rng.integers(-5, 5, size=count)
    wide = rng.normal(size=(count, 6))
    pieces = [floats, ints, wide[:, ::2], np.resize(CSV_EDGES, (count, 4))]
    header = [f"c{j}" for j in range(9)]
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", BLOCK)
    path = tmp_path / "columns.csv"
    write_csv(path, header, cli.Columns(pieces))
    stacked = np.column_stack(pieces)
    assert path.read_bytes() == per_value_csv(header, stacked)
    assert np.array_equal(np.asarray(cli.Columns(pieces)), stacked,
                          equal_nan=True)


def counted_blocks(monkeypatch):
    """The value count of every _csv_block_bytes call, in call order."""
    sizes, block_bytes = [], cli._csv_block_bytes

    def counting(block):
        sizes.append(block.size)
        return block_bytes(block)

    monkeypatch.setattr(cli, "_csv_block_bytes", counting)
    return sizes


def test_write_csv_caps_a_block_in_values(tmp_path, monkeypatch):
    # 19 columns (an n = 4 gkls run) take 215-row blocks, not 512
    rows = np.random.default_rng(19).normal(size=(10001, 19))
    header = [f"c{j}" for j in range(19)]
    sizes = counted_blocks(monkeypatch)
    write_csv(tmp_path / "wide.csv", header, rows)
    # 4,096 // 19 = 215 rows a block, then the 111 left
    assert sizes == [215 * 19] * 46 + [111 * 19]
    assert max(sizes) <= cli.CSV_BLOCK_VALUES
    assert (tmp_path / "wide.csv").read_bytes() == per_value_csv(header,
                                                                 rows)


def test_write_csv_writes_a_row_wider_than_the_budget(tmp_path, monkeypatch):
    # more columns than CSV_BLOCK_VALUES: a block is one row, never none
    rows = np.random.default_rng(5000).normal(size=(3, 5000))
    header = [f"c{j}" for j in range(5000)]
    sizes = counted_blocks(monkeypatch)
    write_csv(tmp_path / "wider.csv", header, rows)
    assert sizes == [5000] * 3
    assert (tmp_path / "wider.csv").read_bytes() == per_value_csv(header,
                                                                  rows)


class TestCommands:
    def test_list_shows_all_builtins(self, capsys):
        assert run_cli("list") == EXIT_OK
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "phase-damping", "bloch-gradient", "rlc-single", "rlc-coupled",
            "coupled-damped-oscillators", "friction-lagrangian"]

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_missing_command_is_usage_error(self, capsys):
        assert run_cli() == EXIT_USAGE

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "no-such-scenario",
                       "--out", str(tmp_path)) == EXIT_USAGE

    def test_invalid_schema_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "hydrodynamics"}))
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("case", sorted(BAD_VALUE_CONFIGS))
    def test_bad_config_value_is_usage_error(self, case, tmp_path, capsys):
        kind, params = BAD_VALUE_CONFIGS[case]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_TOP_LEVEL_CONFIGS))
    def test_bad_top_level_is_usage_error(self, case, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(BAD_TOP_LEVEL_CONFIGS[case]))
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # rejected before anything is written

    def test_run_out_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli("run", "phase-damping", "--out", str(out)) \
            == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_checks_out_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli("checks", "--filter", "algebra",
                       "--out", str(out)) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "phase-damping", "--t-end", "1", "--dt", "3"],
        ["checks", "--filter", "nonsense"]], ids=["run", "checks"])
    def test_config_error_leaves_no_out_directory(self, argv, tmp_path,
                                                  capsys):
        # --out is made when a file is written into it, not before
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_config_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path),
                       "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_unallocatable_grid_is_usage_error(self, tmp_path, monkeypatch,
                                               capsys):
        # an allocation that fails is a bad input too; the stand-in for
        # it raises without allocating
        def unallocatable(t_end, dt, width):
            raise MemoryError(f"no room for {round(t_end / dt) + 1} times")

        monkeypatch.setattr(integrators, "time_grid", unallocatable)
        assert run_cli("run", "phase-damping", "--dt", "1e-12",
                       "--out", str(tmp_path)) == EXIT_USAGE
        assert "config error: no room for" in capsys.readouterr().err

    def test_a_grid_past_the_cap_exits_before_allocating(self, tmp_path,
                                                         capsys):
        # 1e20 steps of 3 values: the grid is refused before any array of
        # the path exists, with the longest t_end at that dt
        tracemalloc.start()
        try:
            code = run_cli("run", "phase-damping", "--t-end", "1000",
                           "--dt", "1e-17", "--out", str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert "config error: 100000000000000000001 rows of 3 values pass " \
            "the cap of 10000000: at dt = 1e-17, t_end <= 3.333332e-11\n" \
            in capsys.readouterr().err
        assert peak < 1e6
        assert not (tmp_path / "phase-damping.csv").exists()

    @pytest.mark.parametrize("case", sorted(SHORT_PATH_CONFIGS))
    def test_short_path_is_usage_error(self, case, tmp_path, capsys):
        kind, params = SHORT_PATH_CONFIGS[case]
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "at least 5 rows" in err

    @pytest.mark.parametrize("case", sorted(FLOOR_CONFIGS))
    def test_dt_below_five_point_floor_is_usage_error(self, case, tmp_path,
                                                       capsys):
        kind, name, params = FLOOR_CONFIGS[case]
        cfg = tmp_path / "floor.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: {name}: dt = 1e-11" in err
        usable = float(re.search(r"use dt > (\S+)$", err.strip()).group(1))
        assert 1e-10 < usable < 1e-9
        # twice the named dt, over 20 steps, runs and passes
        dt = 2 * usable
        cfg.write_text(json.dumps({"kind": kind, "parameters": {
            **params, "t_end": 20 * dt, "dt": dt}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        assert f"[PASS] {name}" in capsys.readouterr().out

    def test_renormalize_is_no_parameter(self, tmp_path, capsys):
        # every row is on the unit sphere, so there is nothing to switch
        cfg = tmp_path / "renormalize.json"
        cfg.write_text(json.dumps({"kind": "pure-state", "parameters": {
            **PURE_STATE, "renormalize": False}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "'renormalize'" in err

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_config_runs(self, variant, tmp_path, capsys):
        kind, params = VARIANTS[variant]
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(config=malformed_configs())
    def test_malformed_config_exits_cleanly(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "mutant.json"
            cfg.write_text(json.dumps(config))
            code = run_cli("run", str(cfg), "--out", tmp)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=non_number_configs())
    def test_non_number_value_is_usage_error(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "mutant.json"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli("run", str(cfg), "--out", tmp)
        assert code == EXIT_USAGE
        assert "config error" in err.getvalue()

    def test_checks_unknown_filter_is_usage_error(self, capsys):
        assert run_cli("checks", "--filter", "nonsense") == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: unknown module 'nonsense'; choose from "
            "['algebra', 'contact', 'gkls', 'mechanics', 'purestate']\n")

    def test_checks_is_no_run_kind(self, tmp_path, capsys):
        kind, params = BAD_VALUE_CONFIGS["checks-kind"]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: unknown kind 'checks'; choose from "
            "['gkls', 'pure-state', 'circuit', 'contact-lagrangian']\n")

    def test_checks_filtered_pass(self, capsys):
        assert run_cli("checks", "--filter", "algebra") == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] algebra/basis-orthonormality" in out

    def test_checks_report_affine_observed_order(self, capsys):
        assert run_cli("checks", "--filter", "gkls") == EXIT_OK
        assert "[PASS] gkls/observed-order" in capsys.readouterr().out

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # unstable step size blows up the affine flow
        cfg = tmp_path / "unstable.json"
        cfg.write_text(json.dumps({
            "kind": "gkls",
            "parameters": {"model": "phase-damping", "gamma": 1.0,
                           "x0": [0.7, 0.0, 0.0], "t_end": 1e6, "dt": 1e4}}))
        assert run_cli("run", str(cfg),
                       "--out", str(tmp_path)) == EXIT_NUMERICAL
        # partial trajectory flushed before exit
        assert (tmp_path / "unstable_partial.csv").exists()

    def test_gkls_partial_csv_holds_t_and_x(self, tmp_path, capsys):
        # a general model (B != 0) at an unstable step: the partial path
        # holds t and the d = 3 coherences, not the lift's column of ones
        cfg = tmp_path / "unstable.json"
        cfg.write_text(json.dumps({"kind": "gkls", "parameters": {
            **VARIANTS["general-gkls"][1], "t_end": 1e5, "dt": 1e3}}))
        assert run_cli("run", str(cfg),
                       "--out", str(tmp_path)) == EXIT_NUMERICAL
        lines = (tmp_path / "unstable_partial.csv").read_text().splitlines()
        assert lines[0] == "t,y1,y2,y3"
        assert len(lines) > 2
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_nonlinear_divergence_is_quiet(self, tmp_path, capsys):
        # |a dt| = 1e79: the second RK4 step of the sphere flow overflows
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({
            "kind": "pure-state",
            "parameters": {
                "a": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e80, 0.0]]],
                "b": ZERO2, "psi0": [[1.0, 0.0], [1e-300, 0.0]],
                "t_end": 1.0, "dt": 0.1}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            assert run_cli("run", str(cfg),
                           "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert (tmp_path / "overflow_partial.csv").exists()

    @pytest.mark.parametrize("kind, params, code, message", [
        ("pure-state", builtin_parameters(
            "bloch-gradient", psi0=[[1e155, 0.0], [0.8, 0.0]]),
         EXIT_USAGE, "initial state must be normalized"),
        ("contact-lagrangian", builtin_parameters(
            "coupled-damped-oscillators", mass=[[1e155, 0.0], [0.0, 1.0]]),
         EXIT_NUMERICAL, "singular mass matrix"),
        ("contact-lagrangian", builtin_parameters(
            "friction-lagrangian", qd0=[1e155]),
         EXIT_NUMERICAL, "[FAIL] mechanics/friction-mechanical-dissipation"),
        ("gkls", general_gkls_x0(
            jumps=[[[[0.0, 0.0], [1e155, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
         EXIT_NUMERICAL, "integration diverged after t = 0"),
        ("gkls", general_gkls_x0(
            hamiltonian=[[[1.7e308, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [-1.7e308, 0.0]]]),
         EXIT_NUMERICAL, "integration diverged after t = 0"),
        ("contact-lagrangian", {
            **LINEAR, "mass": [[1e-300]], "damping": [[1e300]],
            "stiffness": [[1.0]], "x0": [1.0, 0.0]},
         EXIT_NUMERICAL, "integration diverged after t = 0")],
        ids=["psi0-1e155", "mass-1e155", "friction-qd0-1e155", "jump-1e155",
             "hamiltonian-1.7e308", "damping-over-mass-1e600"])
    def test_overflowing_squares_warn_of_nothing(self, kind, params, code,
                                                 message, tmp_path, capsys):
        # a finite config that overflows on the way (|psi|^2, max|m|^n,
        # q'^2, a jump's v^H v, a commutator, m^-1 gamma) exits 2 or 3 with
        # its message, no numpy warning escapes, and a run that diverged
        # leaves its partial CSV
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"kind": kind,
                                   "parameters": {**params, **SHORT}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            assert run_cli("run", str(cfg), "--out", str(tmp_path)) == code
        assert message in "".join(capsys.readouterr())
        assert (tmp_path / "huge_partial.csv").exists() \
            == ("diverged" in message)

    @pytest.mark.parametrize("kind, params, code, message", [
        ("circuit", builtin_parameters(
            "rlc-coupled", r1=1e200, r2=1e200, r_coupling=1e200),
         EXIT_NUMERICAL, "integration diverged after t = 0"),
        ("contact-lagrangian", {
            "system": "linear", "mass": np.eye(3).tolist(),
            "damping": np.zeros((3, 3)).tolist(),
            "stiffness": np.diag([1e30, 2e30, 3e30]).tolist(),
            "x0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "expect": {"hamiltonianity": "hamiltonian-admissible"},
            "t_end": 1e-14, "dt": 1e-16},
         EXIT_NUMERICAL, "[FAIL] mechanics/hamiltonianity-verdict"),
        ("gkls", {**PHASE_DAMPING, "x0": [0.0, 0.0, 0.5],
                  "t_end": 5e307, "dt": 1e307},
         EXIT_OK, "6/6 invariants passed")],
        ids=["r-coupling-squared-1e400", "odd-trace-bound-1e330",
             "expm-scale-2-to-1025"])
    def test_overflowing_float_powers_raise_nothing(self, kind, params, code,
                                                    message, tmp_path,
                                                    capsys):
        # a float's ** raises OverflowError where numpy's gives inf: the
        # Rayleigh test's r_coupling^2, the odd-trace bound |G|^(2k+1) and
        # expm's 2^s of a finite config exit 0 or 3 with their message
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            assert run_cli("run", str(cfg), "--out", str(tmp_path)) == code
        assert message in "".join(capsys.readouterr())

    def test_long_pure_state_oracle_is_finite(self, tmp_path, capsys):
        # exp(80 M) overflows for b = 10 sigma3; the oracle takes it in
        # normalised pieces, so a correct run passes and warns of nothing
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"kind": "pure-state", "parameters": {
            "a": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "b": [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-10.0, 0.0]]],
            "psi0": [[0.6, 0.0], [0.8, 0.0]], "t_end": 80.0, "dt": 1e-3}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            assert run_cli("run", str(cfg),
                           "--out", str(tmp_path)) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err
        report = json.loads((tmp_path / "long_report.json").read_text())
        oracle = {inv["name"]: inv for inv in report["invariants"]}[
            "purestate/exponential-oracle"]
        assert oracle["residual"] < 1e-12


    def test_fixed_point_below_the_top_passes_its_oracle(self, tmp_path,
                                                         capsys):
        # psi0 = e2 is a fixed point of b = sigma3 whose weight decays as
        # e^-2t against e1; at t = 400 the run stays there, and so must the
        # oracle, with no 0/0 and no numpy warning
        cfg = tmp_path / "fixed.json"
        cfg.write_text(json.dumps({"kind": "pure-state", "parameters": {
            "a": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "b": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            "psi0": [[0.0, 0.0], [1.0, 0.0]], "t_end": 400.0, "dt": 0.5}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            assert run_cli("run", str(cfg),
                           "--out", str(tmp_path)) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err
        report = json.loads((tmp_path / "fixed_report.json").read_text())
        oracle = {inv["name"]: inv for inv in report["invariants"]}[
            "purestate/exponential-oracle"]
        assert oracle["residual"] == 0.0


class TestScenarioRuns:
    def test_a_run_changes_neither_a_builtin_nor_the_callers_dict(
            self, tmp_path):
        # load_config hands out a copy of a builtin, and execute_scenario
        # reads t_end and dt as floats into a dict of its own
        builtins = copy.deepcopy(BUILTIN_SCENARIOS)
        config = cli.load_config("phase-damping")
        config["parameters"]["x0"][0] = 0.5
        params = {**config["parameters"], "t_end": 3, "dt": 1}
        given = copy.deepcopy(params)
        cli.execute_scenario(tmp_path, "gkls", "ints", params)
        assert params == given
        assert type(params["t_end"]) is int and type(params["dt"]) is int
        assert BUILTIN_SCENARIOS == builtins

    def test_every_builtin_round_trips(self, tmp_path, capsys):
        # short horizons keep the smoke test quick; invariants still run
        assert set(BUILTIN_INVARIANTS) == set(BUILTIN_SCENARIOS)
        for name in BUILTIN_SCENARIOS:
            assert run_cli("run", name, "--out", str(tmp_path / name),
                           "--t-end", "1.0") == EXIT_OK, name
            report = json.loads(
                (tmp_path / name / f"{name}_report.json").read_text())
            names = [inv["name"] for inv in report["invariants"]]
            assert names == BUILTIN_INVARIANTS[name]  # each invariant once
            assert all(inv["passed"] for inv in report["invariants"])
            assert abs(report["final_t"] - 1.0) < 1e-12, name
            assert report["stopped_early"] is False

    @pytest.mark.parametrize("argv", [
        ["run", name, "--t-end", "1.0"] for name in BUILTIN_SCENARIOS]
        + [["checks"]], ids=[*BUILTIN_SCENARIOS, "checks"])
    def test_every_report_names_each_invariant_once(self, argv, tmp_path,
                                                    capsys):
        # a report is read by invariant name, so no run may hold one twice
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
        (path,) = tmp_path.glob("*report.json")
        report = json.loads(path.read_text())
        names = [inv["name"] for inv in (
            report if argv[0] == "checks" else report["invariants"])]
        assert names and len(set(names)) == len(names)

    def test_checks_report_pins_every_invariant_in_order(self, tmp_path,
                                                         capsys):
        # a suite that drops, renames or reorders an invariant fails here
        assert run_cli("checks", "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "checks_report.json").read_text())
        assert [inv["name"] for inv in report] == CHECKS_INVARIANTS

    def test_csv_builtins_take_no_rk4_path_hand_off(self, tmp_path,
                                                     monkeypatch, capsys):
        # a fast route that hands a normal run to rk4_path passes every
        # other test and only loses speed; the guard stop of friction at
        # t = 46 stays on the closed form too
        def refuse(*args, **kwargs):
            raise AssertionError("rk4_path was called")

        # every module binding a run could call, imported today or not
        for module in (integrators, gkls, mechanics, purestate):
            monkeypatch.setattr(module, "rk4_path", refuse, raising=False)
        runs = [[name] for name in BUILTIN_SCENARIOS]
        runs.append(["friction-lagrangian", "--t-end", "60"])
        for i, args in enumerate(runs):
            assert run_cli("run", *args,
                           "--out", str(tmp_path / str(i))) == EXIT_OK, args

    def test_phase_damping_csv_value(self, tmp_path, capsys):
        assert run_cli("run", "phase-damping",
                       "--out", str(tmp_path)) == EXIT_OK
        lines = (tmp_path / "phase-damping.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["t", "x1", "x2", "x3"]
        row = dict(zip(header, map(float, lines[1001].split(","))))
        assert abs(row["t"] - 1.0) < 1e-12
        assert abs(row["x1"] - np.exp(-2.0) / np.sqrt(2.0)) < 1e-6

    @pytest.mark.parametrize("params", [
        builtin_parameters("phase-damping", **SHORT), random_gkls_x0(3, 39)],
        ids=["phase-damping", "general-n3"])
    def test_gkls_csv_starts_at_its_x0(self, params, tmp_path, capsys):
        # an x0 is stepped as given, with no round trip through rho, so
        # row 0 holds its bits
        cfg = tmp_path / "start.json"
        cfg.write_text(json.dumps({"kind": "gkls", "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        row = (tmp_path / "start.csv").read_text().splitlines()[1]
        assert [float(v) for v in row.split(",")[1:1 + len(params["x0"])]] \
            == params["x0"]

    def test_lossless_circuit_energy_invariant(self, tmp_path, capsys):
        cfg = tmp_path / "lc.json"
        cfg.write_text(json.dumps({
            "kind": "circuit",
            "parameters": {"circuit": "single", "resistance": 0.0,
                           "inductance": 1.0, "capacitance": 1.0,
                           "i0": [1.0], "di0": [0.0],
                           "t_end": 5.0, "dt": 1e-3}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "lc_report.json").read_text())
        names = {inv["name"]: inv for inv in report["invariants"]}
        energy = names["circuit/energy-conservation"]
        assert energy["passed"] and energy["residual"] < 1e-8

    def test_circuit_oracle_holds_the_final_current_rate(self, monkeypatch):
        integrate = cli.integrate_contact
        # the shift scales with the run: q' is relative to its own size,
        # its largest |q'| on the rows the oracle samples
        for scale in (1.0, 1e8):
            final_qd = []

            def shifted(*args):
                times, states, stopped_early = integrate(*args)
                steps = len(times) - 1
                rows = np.append(np.arange(
                    0, steps, steps // checks.ORACLE_ROWS), steps)
                final_qd.append(np.max(np.abs(states[rows, 1])))
                states[-1, 1:2] += 1e-3 * scale  # q(t_end) is left exact
                return times, states, stopped_early

            monkeypatch.setattr(cli, "integrate_contact", shifted)
            _, _, invariants, _ = RUNNERS["circuit"](
                **builtin_parameters("rlc-single", i0=[scale]))
            oracle = invariants[0]
            assert oracle.name == "circuit/linear-oracle"
            assert not oracle.passed
            assert oracle.residual == pytest.approx(
                1e-3 * scale / max(1.0, final_qd[0]), rel=1e-6)

    def test_exponential_oracle_sees_a_perturbed_path(self, monkeypatch):
        integrate = cli.integrate

        def shifted(*args):
            times, points, stopped_early = integrate(*args)
            points[-1, 0] += 1e-5  # rho moves by 1e-5 tau_1, far
            # beyond the path's own error at dt = 0.01
            return times, points, stopped_early

        monkeypatch.setattr(cli, "integrate", shifted)
        _, _, invariants, _ = RUNNERS["gkls"](**VARIANTS["general-gkls"][1])
        oracle = {inv.name: inv for inv in invariants}[
            "gkls/exponential-oracle"]
        assert not oracle.passed
        # tau_1 = sigma_1 / sqrt(2) for a qubit
        assert oracle.residual == pytest.approx(1e-5 * 2 ** -0.5, rel=1e-4)

    @pytest.mark.parametrize("builtin, module, flow, oracle", [
        ("phase-damping", cli, "integrate", "gkls/exponential-oracle"),
        ("bloch-gradient", purestate, "integrate_sphere_flow",
         "purestate/exponential-oracle"),
        ("rlc-single", cli, "integrate_contact", "circuit/linear-oracle"),
        ("coupled-damped-oscillators", cli, "rk4_linear_path",
         "mechanics/linear-oracle")],
        ids=["gkls", "pure-state", "circuit", "linear"])
    def test_every_oracle_reads_sampled_rows(self, builtin, module, flow,
                                             oracle, monkeypatch):
        # an interior row the oracle samples, row 32 s with
        # s = steps // ORACLE_ROWS, moved by 1e-3 while the last row stays
        # exact: an oracle of the last row alone passes the run
        config = BUILTIN_SCENARIOS[builtin]["config"]
        params = config["parameters"]
        row = 32 * (round(params["t_end"] / params["dt"])
                    // checks.ORACLE_ROWS)
        step = getattr(module, flow)

        def moved(*args):
            times, states, stopped_early = step(*args)
            states = states.copy()
            states[row] += 1e-3
            return times, states, stopped_early

        monkeypatch.setattr(module, flow, moved)
        _, _, invariants, _ = RUNNERS[config["kind"]](**params)
        named = {inv.name: inv for inv in invariants}[oracle]
        assert not named.passed and named.residual > 1e-4

    def test_linear_run_skips_verdicts_it_does_not_expect(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a verdict no expect block asks for")

        monkeypatch.setattr(checks, "hamiltonianity_criterion", refuse)
        monkeypatch.setattr(cli, "bivector_span_dimension", refuse)
        params = dict(BUILTIN_SCENARIOS["coupled-damped-oscillators"][
            "config"]["parameters"], t_end=0.1)
        del params["expect"]
        _, _, invariants, _ = RUNNERS["contact-lagrangian"](**params)
        assert [inv.name for inv in invariants] == ["mechanics/linear-oracle"]

    def test_fast_phase_damping_passes_its_identities(self, tmp_path, capsys):
        # A has entries of 2e4: absolute residuals of 1e-12 read rounding
        # as failure, relative ones pass this exact, finite path
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps({
            "kind": "gkls",
            "parameters": {"model": "phase-damping", "gamma": 1e4,
                           "x0": [0.0, 0.0, 0.5], "t_end": 1.0,
                           "dt": 0.01}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "fast_report.json").read_text())
        assert all(inv["passed"] for inv in report["invariants"])

    def test_microhenry_coupled_circuit_runs(self, tmp_path, capsys):
        # velocity Hessian diag(1e-5, 1e-5): determinant 1e-10, condition
        # number 1, so the scale-free singularity test lets it run
        cfg = tmp_path / "uh.json"
        cfg.write_text(json.dumps({
            "kind": "circuit",
            "parameters": {"circuit": "coupled", "l1": 1e-5, "l2": 1e-5,
                           "c1": 1e-3, "c2": 1e-3, "r1": 0.05, "r2": 0.03,
                           "r_coupling": 0.02, "i0": [1.0, 0.0],
                           "di0": [0.0, 0.0], "t_end": 2e-4, "dt": 1e-6}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "uh_report.json").read_text())
        assert [inv["passed"] for inv in report["invariants"]] == [True] * 2

    @pytest.mark.parametrize("case", sorted(SMALL_SCALE_CONFIGS))
    def test_small_scale_system_runs(self, case, tmp_path, capsys):
        # the singular-mass test is scale-free, like the Hessian test
        kind, params = SMALL_SCALE_CONFIGS[case]
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "small_report.json").read_text())
        assert all(inv["passed"] for inv in report["invariants"])

    @pytest.mark.parametrize("case", sorted(LARGE_SCALE_CONFIGS))
    def test_large_scale_system_runs(self, case, tmp_path, capsys):
        kind, params = LARGE_SCALE_CONFIGS[case]
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "large_report.json").read_text())
        assert all(inv["passed"] for inv in report["invariants"])

    def test_main_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        # the parser is built once, at import
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli("list") == EXIT_OK
        assert run_cli("run", "phase-damping", "--t-end", "0.1",
                       "--out", str(tmp_path)) == EXIT_OK
        assert run_cli("checks", "--filter", "algebra") == EXIT_OK
        assert run_cli("run") == EXIT_USAGE
        assert built == []

    def test_an_override_does_not_carry_to_the_next_run(self, tmp_path,
                                                         capsys):
        assert run_cli("run", "phase-damping", "--dt", "0.01",
                       "--out", str(tmp_path / "a")) == EXIT_OK
        assert run_cli("run", "phase-damping",
                       "--out", str(tmp_path / "b")) == EXIT_OK
        times = np.loadtxt(tmp_path / "b" / "phase-damping.csv",
                           delimiter=",", skiprows=1, usecols=0)
        params = BUILTIN_SCENARIOS["phase-damping"]["config"]["parameters"]
        assert len(times) == round(params["t_end"] / params["dt"]) + 1
        assert times[1] == params["dt"]

    def test_a_filter_does_not_carry_to_the_next_checks(self, tmp_path,
                                                        capsys):
        assert run_cli("checks", "--filter", "gkls",
                       "--out", str(tmp_path / "a")) == EXIT_OK
        assert run_cli("checks", "--out", str(tmp_path / "b")) == EXIT_OK
        report = json.loads((tmp_path / "b" / "checks_report.json")
                            .read_text())
        assert [inv["name"] for inv in report] == CHECKS_INVARIANTS

    def test_usage_error_after_a_run_prints_its_usage(self, tmp_path,
                                                      capsys):
        assert run_cli("run", "phase-damping", "--t-end", "0.1",
                       "--out", str(tmp_path)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("run") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: dissipgeo run")
        assert "required: config" in err

    def test_dt_override_changes_output(self, tmp_path, capsys):
        assert run_cli("run", "phase-damping", "--out", str(tmp_path / "a"),
                       "--dt", "0.01", "--t-end", "1.0") == EXIT_OK
        lines = (tmp_path / "a" / "phase-damping.csv").read_text().splitlines()
        assert len(lines) == 102  # header + 101 points

    def test_domain_guard_stop_is_reported(self, tmp_path, capsys):
        # q' decays below the friction guard's 1e-10 near t = 46
        assert run_cli("run", "friction-lagrangian", "--out", str(tmp_path),
                       "--t-end", "60", "--dt", "0.01") == EXIT_OK
        report = json.loads(
            (tmp_path / "friction-lagrangian_report.json").read_text())
        assert report["stopped_early"] is True
        assert 40.0 < report["final_t"] < 60.0
        lines = (tmp_path / "friction-lagrangian.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == report["final_t"]
        out = capsys.readouterr().out
        assert "stopped early" in out and "domain guard" in out

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the grid has "
                       "round(t_end / dt) steps, so its last time misses a "
                       "t_end off the grid and the report does not say so")
    @pytest.mark.parametrize("t_end", ["1.054", "1.056"])
    def test_a_t_end_off_the_grid_is_the_last_row(self, t_end, tmp_path,
                                                 capsys):
        # today the run exits 0 with final_t 1.05 and 1.0600000000000001
        assert run_cli("run", "friction-lagrangian", "--out", str(tmp_path),
                       "--t-end", t_end, "--dt", "0.01") == EXIT_OK
        report = json.loads(
            (tmp_path / "friction-lagrangian_report.json").read_text())
        lines = (tmp_path / "friction-lagrangian.csv").read_text().splitlines()
        assert report["final_t"] == float(t_end)
        assert float(lines[-1].split(",")[0]) == float(t_end)

    @pytest.mark.parametrize("variant, module, flow", [
        ("phase-damping", cli, "integrate"),
        ("pure-state", purestate, "integrate_sphere_flow"),
        ("single-circuit", cli, "integrate_contact"),
        ("friction", cli, "integrate_contact"),
        ("linear", cli, "rk4_linear_path")],
        ids=["gkls", "pure-state", "circuit", "friction", "linear"])
    def test_the_report_flag_is_the_flows_flag(self, variant, module, flow,
                                               monkeypatch, tmp_path,
                                               capsys):
        # each runner reports the flag its flow returns: a flow that
        # returns half its path, flagged, makes a report that stopped early
        kind, params = VARIANTS[variant]
        step = getattr(module, flow)
        cut_times = []

        def cut(*args, **kwargs):
            times, states, _ = step(*args, **kwargs)
            half = len(times) // 2
            cut_times.append(times[half - 1])
            return times[:half], states[:half], True

        monkeypatch.setattr(module, flow, cut)
        cfg = tmp_path / "cut.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": {
            **params, "t_end": 0.2}}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "cut_report.json").read_text())
        assert report["stopped_early"] is True
        assert [report["final_t"]] == cut_times

    def test_readme_config_example_runs(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        examples = re.findall(r"```json\n(.*?)```", readme.read_text(),
                              re.DOTALL)
        assert examples
        for i, text in enumerate(examples):
            cfg = tmp_path / f"readme{i}.json"
            cfg.write_text(text)
            assert run_cli("run", str(cfg),
                           "--out", str(tmp_path)) == EXIT_OK

    def test_readme_python_examples_run(self, capsys):
        # the blocks build on each other, so they share one namespace
        readme = Path(__file__).resolve().parents[1] / "README.md"
        examples = re.findall(r"```python\n(.*?)```", readme.read_text(),
                              re.DOTALL)
        assert examples
        namespace = {}
        for text in examples:
            exec(compile(text, "README.md", "exec"), namespace)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for out in ("r1", "r2"):
            assert run_cli("run", "friction-lagrangian",
                           "--out", str(tmp_path / out),
                           "--t-end", "2.0") == EXIT_OK
        b1 = (tmp_path / "r1" / "friction-lagrangian.csv").read_bytes()
        b2 = (tmp_path / "r2" / "friction-lagrangian.csv").read_bytes()
        assert b1 == b2
        # every suite draws its cases afresh from its own seed
        for out in ("c1", "c2"):
            assert run_cli("checks", "--out", str(tmp_path / out)) == EXIT_OK
        c1 = (tmp_path / "c1" / "checks_report.json").read_bytes()
        c2 = (tmp_path / "c2" / "checks_report.json").read_bytes()
        assert c1 == c2

    def test_checks_report_written(self, tmp_path, capsys):
        assert run_cli("checks", "--filter", "contact",
                       "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "checks_report.json").read_text())
        assert all(entry["passed"] for entry in report)


def edge_run(kind, params):
    """(exit code, report or None) of `dissipgeo run` on one config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "edge.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        code = run_cli("run", str(cfg), "--out", tmp)
        report = Path(tmp) / "edge_report.json"
        return code, (json.loads(report.read_text()) if report.exists()
                      else None)


def numeric_leaves(value, path=()):
    """The key path of each number in nested dicts and lists."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict)
                          else enumerate(value)):
            yield from numeric_leaves(item, path + (key,))
    elif is_numeric(value):
        yield path


# the magnitude sweep of the exit-code contract: each number scaled by
# 10^k, negated or set to 0
MAGNITUDES = {**{f"x1e{k}": 10.0 ** k
                 for k in (8, -8, 20, -20, 100, -100, 300, -300)},
              "negated": -1.0, "zero": 0.0}


def step_count(params):
    """round(t_end / dt), the steps a config asks for, or 0 where that is
    no finite positive count."""
    t_end, dt = params["t_end"], params["dt"]
    if not (t_end > 0 and dt > 0 and t_end / dt < float("inf")):
        return 0
    return round(t_end / dt)


class CountedProducts(np.ndarray):
    """A step of an oracle whose products with a state are counted, a
    stacked product of b of its powers with one state as b products; a
    product past ``limit`` fails at once, so an oracle that would take
    far more ends."""

    count = limit = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul and inputs[1].ndim == 1:
            CountedProducts.count += math.prod(inputs[0].shape[:-2])
            assert CountedProducts.count <= CountedProducts.limit
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_magnitude_exits_with_a_code(variant, monkeypatch):
    # the pure-state oracle once took k = ceil(t ||M||_1 / 300) products,
    # about 1.7e16 for a00 scaled by 1e20 on its 5-step run, which never
    # ended; checks.flow_oracle caps each span's products at its steps,
    # so every oracle, of every kind, takes at most the run's step count,
    # and every config exits 0, 2 or 3, and 0 only with every invariant
    # passing; t_end and dt are scaled too, and bound the products by the
    # changed config's own step count (flow_oracle's power stack keeps
    # the step's class, so each stacked product counts its batch); no
    # invariant passes with a NaN residual
    expm = checks.expm
    monkeypatch.setattr(checks, "expm",
                        lambda a: expm(a).view(CountedProducts))
    kind, params = VARIANTS[variant]
    codes, products = {}, 0
    for path in numeric_leaves(params):
        for label, factor in MAGNITUDES.items():
            changed = copy.deepcopy(params)
            holder = changed
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] *= factor
            CountedProducts.count, CountedProducts.limit = 0, step_count(
                changed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, report = edge_run(kind, changed)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)
            if code == EXIT_OK:
                assert all(inv["passed"] for inv in report["invariants"])
            if report is not None:
                assert not [inv["name"] for inv in report["invariants"]
                            if inv["passed"] and np.isnan(inv["residual"])]
            assert CountedProducts.count <= step_count(changed)
            products = max(products, CountedProducts.count)
            if path in (("t_end",), ("dt",)):
                # past the time_grid cap or short of one step
                assert code == EXIT_USAGE
            codes[path, label] = code
    if variant == "pure-state":
        # a00 scaled by 1e20 fails its oracle; psi0 = e1 never reads a11
        assert codes[("a", 0, 0, 0), "x1e20"] == EXIT_NUMERICAL
        assert codes[("a", 1, 1, 0), "x1e20"] == EXIT_OK
    # the count is not vacuous: a run of each kind but friction, which has
    # no exponential oracle, reaches its oracle's products
    assert (products > 0) == (variant != "friction")


@st.composite
def across_zero(draw, zero_inside):
    """(value, inside): 0 or -0, inside when zero_inside, or a value of
    either sign from the least subnormal to 2, inside when positive."""
    side = draw(st.sampled_from(["zero", "above", "below"]))
    if side == "zero":
        return draw(st.sampled_from([0.0, -0.0])), zero_inside
    size = draw(st.just(5e-324) | st.floats(5e-324, 2.0))
    return (size, True) if side == "above" else (-size, False)


@st.composite
def coupled_resistances(draw):
    """(r1, r2, r_coupling, inside) about the bound r_coupling**2 <= r1 r2:
    on it exactly, within 0.999 of sqrt(r1 r2), or beyond 1.001 of it
    and at least 1e-6 from 0, with either sign of r_coupling."""
    r1, r2 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    side = draw(st.sampled_from(["edge", "inside", "outside"]))
    bound = np.sqrt(r1 * r2)
    if side == "edge":
        return r1, r1, sign * r1, True
    if side == "inside":
        return r1, r2, sign * draw(st.floats(0.0, 0.999)) * bound, True
    return (r1, r2, sign * (draw(st.floats(1.001, 3.0)) * bound
                            + draw(st.floats(1e-6, 1.0))), False)


class TestDomainEdges:
    """Each builder's domain, walked from both sides through the CLI: a
    value outside exits 2 before any step, and one inside, on the bound
    included, runs to t_end at dt = 0.01 with every invariant passing."""

    def check(self, kind, params, inside):
        code, report = edge_run(kind, params)
        if not inside:
            assert (code, report) == (EXIT_USAGE, None)
            return
        assert code == EXIT_OK
        assert report["invariants"]
        assert all(inv["passed"] for inv in report["invariants"])
        assert report["stopped_early"] is False
        assert report["final_t"] == params["t_end"]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(resistances=coupled_resistances())
    def test_coupled_rayleigh_matrix_is_semidefinite(self, resistances):
        r1, r2, r_coupling, inside = resistances
        self.check("circuit", {**COUPLED, "r1": r1, "r2": r2,
                               "r_coupling": r_coupling}, inside)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(edge=across_zero(zero_inside=True))
    def test_friction_gamma_is_not_negative(self, edge):
        gamma, inside = edge
        self.check("contact-lagrangian", {**FRICTION, "gamma": gamma},
                   inside)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(edge=across_zero(zero_inside=True))
    def test_single_resistance_is_not_negative(self, edge):
        resistance, inside = edge
        self.check("circuit", {**RLC_SINGLE, "resistance": resistance},
                   inside)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(edge=across_zero(zero_inside=False))
    def test_phase_damping_gamma_is_positive(self, edge):
        gamma, inside = edge
        self.check("gkls", {**PHASE_DAMPING, "gamma": gamma}, inside)
