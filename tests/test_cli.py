import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

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
    "contact-homomorphism": ["contact/reeb-defining-equations",
                             "contact/nondegeneracy",
                             "contact/exact-chart-consistency",
                             "contact/eta-contraction",
                             "contact/jacobi-antisymmetry",
                             "contact/alpha-df-degeneracy",
                             "contact/bracket-homomorphism"],
}

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
    "checks-t_end": ("checks", {"filter": "contact", "t_end": 1.0}),
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
    "integer-overflowing-a-float": ("circuit", {
        **RLC_SINGLE, "inductance": 10 ** 400}),
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
        from dissipgeo.cli import ConfigError
        with pytest.raises(ConfigError):
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


class TestCommands:
    def test_list_shows_all_builtins(self, capsys):
        assert run_cli("list") == EXIT_OK
        out = capsys.readouterr().out
        assert len(BUILTIN_SCENARIOS) >= 7
        for name in BUILTIN_SCENARIOS:
            assert name in out

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
        # dt = 1e-12 asks np.arange for 21.8 TiB; the stand-in for that
        # allocation raises without allocating
        def unallocatable(t_end, dt):
            raise MemoryError(f"no room for {round(t_end / dt) + 1} times")

        monkeypatch.setattr(integrators, "time_grid", unallocatable)
        assert run_cli("run", "phase-damping", "--dt", "1e-12",
                       "--out", str(tmp_path)) == EXIT_USAGE
        assert "config error: no room for" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(SHORT_PATH_CONFIGS))
    def test_short_path_is_usage_error(self, case, tmp_path, capsys):
        kind, params = SHORT_PATH_CONFIGS[case]
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert run_cli("run", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "at least 5 rows" in err

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


class TestScenarioRuns:
    def test_every_builtin_round_trips(self, tmp_path, capsys):
        # short horizons keep the smoke test quick; invariants still run
        assert set(BUILTIN_INVARIANTS) == set(BUILTIN_SCENARIOS)
        for name, entry in BUILTIN_SCENARIOS.items():
            args = ["run", name, "--out", str(tmp_path / name)]
            if entry["config"]["kind"] != "checks":
                args += ["--t-end", "1.0"]
            assert run_cli(*args) == EXIT_OK, name
            report = json.loads(
                (tmp_path / name / f"{name}_report.json").read_text())
            names = [inv["name"] for inv in report["invariants"]]
            assert names == BUILTIN_INVARIANTS[name]  # each invariant once
            assert all(inv["passed"] for inv in report["invariants"])
            if entry["config"]["kind"] == "checks":
                assert "final_t" not in report
            else:
                assert abs(report["final_t"] - 1.0) < 1e-12, name
                assert report["stopped_early"] is False

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
        runs = [[name] for name, entry in BUILTIN_SCENARIOS.items()
                if entry["config"]["kind"] != "checks"]
        assert len(runs) == 6
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
        # the shift scales with the run: q' is relative to its own size
        for scale in (1.0, 1e8):
            final_qd = []

            def shifted(*args):
                traj = integrate(*args)
                final_qd.append(abs(traj.qd[-1, 0]))
                traj.qd[-1] += 1e-3 * scale  # q(t_end) is left exact
                return traj

            monkeypatch.setattr(cli, "integrate_contact", shifted)
            _, _, invariants = RUNNERS["circuit"](
                **builtin_parameters("rlc-single", i0=[scale]))
            oracle = invariants[0]
            assert oracle.name == "circuit/linear-oracle"
            assert not oracle.passed
            assert oracle.residual == pytest.approx(
                1e-3 * scale / max(1.0, final_qd[0]), rel=1e-6)

    def test_exponential_oracle_sees_a_perturbed_path(self, monkeypatch):
        integrate = cli.integrate

        def shifted(*args):
            traj = integrate(*args)
            traj.points[-1, 0] += 1e-5  # rho moves by 1e-5 tau_1, far
            # beyond the path's own error at dt = 0.01
            return traj

        monkeypatch.setattr(cli, "integrate", shifted)
        _, _, invariants = RUNNERS["gkls"](**VARIANTS["general-gkls"][1])
        oracle = {inv.name: inv for inv in invariants}[
            "gkls/exponential-oracle"]
        assert not oracle.passed
        # tau_1 = sigma_1 / sqrt(2) for a qubit
        assert oracle.residual == pytest.approx(1e-5 * 2 ** -0.5, rel=1e-4)

    def test_linear_run_skips_verdicts_it_does_not_expect(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a verdict no expect block asks for")

        monkeypatch.setattr(checks, "hamiltonianity_criterion", refuse)
        monkeypatch.setattr(cli, "bivector_span_dimension", refuse)
        params = dict(BUILTIN_SCENARIOS["coupled-damped-oscillators"][
            "config"]["parameters"], t_end=0.1)
        del params["expect"]
        _, _, invariants = RUNNERS["contact-lagrangian"](**params)
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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for out in ("r1", "r2"):
            assert run_cli("run", "friction-lagrangian",
                           "--out", str(tmp_path / out),
                           "--t-end", "2.0") == EXIT_OK
        b1 = (tmp_path / "r1" / "friction-lagrangian.csv").read_bytes()
        b2 = (tmp_path / "r2" / "friction-lagrangian.csv").read_bytes()
        assert b1 == b2

    def test_checks_report_written(self, tmp_path, capsys):
        assert run_cli("checks", "--filter", "contact",
                       "--out", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "checks_report.json").read_text())
        assert all(entry["passed"] for entry in report)
