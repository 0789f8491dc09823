"""Every module-level name in ``src/dissipgeo`` is read by the package
itself, so a run or a ``checks`` suite reaches it: API that only the
tests call is deleted together with those tests, and a constant or an
import that nothing reads goes."""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import dissipgeo
from dissipgeo import checks, cli, contact, mechanics

SOURCE = Path(dissipgeo.__file__).parent

# name -> why it stays although no src module refers to it
ALLOWED = {
    "integrate_coherence_field": "bench/spans.py traces it by name, so it "
    "goes with the benchmark change that drops it from the traced layers",
}


def referenced_names(node):
    """Every name a subtree reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def bound_names(stmt):
    """The module-level names a top-level statement binds, dunders and
    __future__ features aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [n.id for target in stmt.targets for n in ast.walk(target)
                 if isinstance(n, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign):
        names = [stmt.target.id]
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)) \
            and getattr(stmt, "module", None) != "__future__":
        names = [(alias.asname or alias.name).split(".")[0]
                 for alias in stmt.names]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def exported_names(stmt):
    """The strings of an ``__all__ = [...]`` statement, which re-export."""
    if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets):
        return {elt.value for elt in stmt.value.elts}
    return set()


def test_every_definition_is_used_by_the_package():
    statements = [(path.stem, stmt) for path in sorted(SOURCE.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    # each statement is walked once; its own reads do not count as a use
    # of what it binds
    reads = [referenced_names(stmt) | exported_names(stmt)
             for _, stmt in statements]
    readers = Counter(name for names in reads for name in names)
    unused = {name: f"{module}.{name}"
              for (module, stmt), own in zip(statements, reads)
              for name in bound_names(stmt)
              if readers[name] == (name in own)}
    assert sorted(unused) == sorted(ALLOWED), \
        f"no src module reads {sorted(unused.values())}"


def test_rk4_path_has_one_hand_off():
    """A fast route fills the step grid or declines, and
    integrators.fast_path alone hands a declined run to rk4_path; the
    only other use is gkls.integrate_coherence_field, rk4_path on a
    coherence field under the name bench/spans.py traces, which no src
    module calls."""
    uses = [f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            for path in sorted(SOURCE.glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == "rk4_path"
            or isinstance(node, ast.Attribute) and node.attr == "rk4_path"]
    assert uses == ["gkls.integrate_coherence_field", "integrators.fast_path"]


def test_no_flow_converts_its_initial_state():
    """gkls.integrate steps the coherence vector it is given, as every
    flow steps the state it is given, so gkls makes no
    to_coherence_vector call: a caller holding a density matrix converts
    it once."""
    assert calls_in("gkls", lambda call: "to_coherence_vector"
                    in referenced_names(call.func)) == []


def test_integrators_knows_no_flow():
    """integrators holds the RK4 contract and the one linear fill; each
    flow module builds its fill on linear_fill, and hands it to fast_path
    itself or steps through rk4_linear_path."""
    tree = ast.parse((SOURCE / "integrators.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("dissipgeo"))
                or isinstance(node, ast.Import) and any(
                    alias.name.startswith("dissipgeo")
                    for alias in node.names)]
    assert sorted(stmt.name for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))) \
        == ["DivergenceError", "fast_path", "linear_fill", "linear_stages",
            "recurrence_fill", "rk4_increment", "rk4_linear_path", "rk4_path",
            "time_grid"]

    def fast_path(call):
        return "fast_path" in referenced_names(call.func)

    assert sorted(call for path in SOURCE.glob("*.py")
                  for call in calls_in(path.stem, fast_path)) \
        == ["gkls.integrate", "integrators.rk4_linear_path",
            "mechanics.integrate_contact"]


def test_only_integrators_names_check_rows():
    """integrators fills z (linear_fill) and S (recurrence_fill) in blocks
    of CHECK_ROWS rows, so no other module keeps a loop over blocks of
    step powers."""
    assert [path.stem for path in sorted(SOURCE.glob("*.py"))
            if "CHECK_ROWS" in path.read_text()] == ["integrators"]


def test_rk4_has_one_home():
    """integrators alone holds RK4's tableau: the stage coefficients RK4_C
    and the 1/6-weighted sum of rk4_increment, with which rk4_path and the
    closed form of mechanics both step.  linear_fill's other division by
    6 is the Taylor coefficient of its step matrix."""
    def stage_coefficients(node):
        return isinstance(node, ast.Tuple) and [
            getattr(elt, "value", None) for elt in node.elts] \
            == [0.5, 0.5, 1.0]

    def sixth(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
            and getattr(node.right, "value", None) == 6

    def increment(node):
        return isinstance(node, ast.Name) and node.id == "rk4_increment"

    modules = sorted(SOURCE.glob("*.py"))
    assert [site for path in modules
            for site in sites_in(path.stem, stage_coefficients)] \
        == [f"integrators.{integrators_line('RK4_C')}"]
    assert [site for path in modules for site in sites_in(path.stem, sixth)] \
        == ["integrators.rk4_increment", "integrators.linear_fill"]
    assert sorted({site for path in modules
                   for site in sites_in(path.stem, increment)}) \
        == ["integrators.rk4_path", "mechanics._closed_form_fill"]
    assert not {"_STAGE_C", "_s_step"} & set(vars(mechanics))


def integrators_line(name):
    """The line of the top-level statement of integrators that binds name."""
    return next(stmt.lineno for stmt in ast.parse(
        (SOURCE / "integrators.py").read_text()).body
        if name in bound_names(stmt))


def sites_in(module, accept):
    """module.function for every node of a module that accept(node)
    holds, once per node, by the top-level definition it sits in (its
    line for a statement that defines no function or class)."""
    return [f"{module}.{getattr(stmt, 'name', stmt.lineno)}"
            for stmt in ast.parse((SOURCE / f"{module}.py").read_text()).body
            for node in ast.walk(stmt)
            if accept(node)]


def calls_in(module, accept):
    """module.function for every call in a module that accept(call) holds,
    once per call, by the top-level definition it sits in."""
    return sites_in(module, lambda node: isinstance(node, ast.Call)
                    and accept(node))


def test_no_runner_builds_csv_rows():
    """A runner hands write_csv its path arrays as Columns, which alone lay
    out CSV rows, so cli stacks no columns into rows."""
    assert calls_in("cli", lambda call: "column_stack"
                    in referenced_names(call.func)) == []


def test_the_writer_keeps_no_working_storage():
    """write_csv's blocks and their digits are plain numpy temporaries, so
    no call in cli writes into an array it was handed: none passes out."""
    assert calls_in("cli", lambda call: any(
        keyword.arg == "out" for keyword in call.keywords)) == []


def test_only_integrators_derives_the_grid():
    """fast_path owns the step grid and says whether the path stopped
    short of it, so no flow module and not the CLI builds it again."""
    def grid(call):
        return "time_grid" in referenced_names(call.func)

    assert sorted(call for path in SOURCE.glob("*.py")
                  for call in calls_in(path.stem, grid)) \
        == ["integrators.fast_path", "integrators.rk4_path"]


def test_one_singularity_test_in_mechanics():
    """mechanics._singular alone takes a determinant, so the mass of
    representative_matrix and the velocity Hessian share one scale-free
    rule, under which a non-finite matrix is singular."""
    assert calls_in("mechanics", lambda call: "det"
                    in referenced_names(call.func)) == ["mechanics._singular"]


def test_one_callback_shape_check():
    """algebra.shaped alone reads a callback's value as floats and raises
    ValueError on a shape its caller does not accept, for a ScalarField
    and a ContactLagrangianSystem alike, so neither contact nor mechanics
    keeps a shape helper of its own."""
    field = contact.ScalarField(value=lambda p: p,
                                gradient=lambda p: p[..., 0])
    system = dataclasses.replace(mechanics.rlc_single(0.3, 0.7, 0.45),
                                 d_l_dq=lambda q, qd: q[..., 0])
    raisers = set()
    for call in (partial(field, np.zeros(3)), partial(field.grad, np.zeros(3)),
                 partial(mechanics.contact_el_field, system, np.zeros(3))):
        with pytest.raises(ValueError, match="returned shape") as info:
            call()
        raisers.add(f"{Path(info.traceback[-1].path).stem}."
                    f"{info.traceback[-1].name}")
    assert raisers == {"algebra.shaped"}
    assert not {"_shaped"} & (set(vars(contact)) | set(vars(mechanics)))


def test_every_contact_system_has_a_domain_guard():
    """domain_guard defaults to a guard that holds everywhere, as h to 0,
    so no src statement compares it with None: integrate_contact and the
    closed form call it on every system."""
    def against_none(node):
        return isinstance(node, ast.Compare) \
            and "domain_guard" in referenced_names(node) and any(
                isinstance(side, ast.Constant) and side.value is None
                for side in [node.left, *node.comparators])

    assert [site for path in sorted(SOURCE.glob("*.py"))
            for site in sites_in(path.stem, against_none)] == []


def test_contact_el_field_tests_singularity_once():
    """contact_el_field asks one state's Hessian verdict and a stack's the
    same question, singular.any(), with no branch on its ndim."""
    field = next(stmt for stmt in ast.parse(
        (SOURCE / "mechanics.py").read_text()).body
        if getattr(stmt, "name", None) == "contact_el_field")
    assert [ast.unparse(node.test) for node in ast.walk(field)
            if isinstance(node, (ast.If, ast.IfExp))
            and "singular" in referenced_names(node.test)] \
        == ["singular.any()"]


def test_a_singular_hessian_names_its_state_in_its_message():
    """ImplicitSystemError is a plain RuntimeError subclass, like every
    error src defines but DivergenceError: no __init__ and no payload, so
    the (q, q', S) of a singular Hessian is in its message, which cli.main
    prints."""
    assert "__init__" not in vars(mechanics.ImplicitSystemError)


def test_no_contact_function_calls_reeb_field():
    """A contact field or bracket is one bordered solve whose multiplier
    is the eta term, so no function in contact asks for the Reeb field
    first."""
    assert calls_in("contact", lambda call: "reeb_field"
                    in referenced_names(call.func)) == []


def test_only_bordered_reads_the_chart_forms():
    """In contact, _bordered alone evaluates a chart's omega or eta, so
    the Reeb field is the bordered solve with right-hand side (0, 1) and
    no function repeats a check of its defining equations."""
    readers = {f"contact.{getattr(stmt, 'name', stmt.lineno)}"
               for stmt in ast.parse((SOURCE / "contact.py").read_text()).body
               for node in ast.walk(stmt)
               if isinstance(node, ast.Attribute)
               and node.attr in ("omega", "eta")}
    assert readers == {"contact._bordered"}


def test_one_residual_scale_and_one_hamiltonianity_verdict():
    """In cli and checks, checks._scale alone scales a residual by
    max(1, ...), as Python's max or numpy's maximum, and
    checks.hamiltonianity_verdict alone reads the verdict of
    hamiltonianity_criterion for an invariant, besides the one call of
    mechanics/odd-trace-soundness in the mechanics suite."""
    def scale(call):
        return referenced_names(call.func) & {"max", "maximum"} \
            and any(isinstance(arg, ast.Constant) and arg.value == 1
                    for arg in call.args)

    def criterion(call):
        return "hamiltonianity_criterion" in referenced_names(call.func)

    assert calls_in("checks", scale) + calls_in("cli", scale) \
        == ["checks._scale"]
    assert calls_in("checks", criterion) + calls_in("cli", criterion) \
        == ["checks.hamiltonianity_verdict", "checks.mechanics_suite"]


def test_one_exponential_oracle():
    """checks.flow_oracle alone makes the rows of every exponential
    oracle, the GKLS, pure-state and linear flows alike, so in checks and
    cli it alone calls expm, the per-flow helpers it replaced are gone,
    and neither it nor linear_residual takes a stride: every oracle, of
    a run or a suite, reads the rows of the one rule, s = steps //
    ORACLE_ROWS or 1."""
    def expm_call(call):
        return "expm" in referenced_names(call.func)

    assert calls_in("checks", expm_call) + calls_in("cli", expm_call) \
        == ["checks.flow_oracle"]
    assert not {"gkls_flow", "sphere_flow", "linear_oracle"} \
        & set(vars(checks))
    assert str(inspect.signature(checks.flow_oracle)) \
        == "(gen, y0, t, steps, unit=False)"
    assert str(inspect.signature(checks.linear_residual)) == "(g, states, t)"


def test_gradient_field_has_one_home():
    """Of the functions in src, gkls.evaluate_component_fields alone names
    V_vec, as an attribute or a local, so e_V and the Gradient field Y_V
    are written once: the jump-free field of any (H, V) is xh - yv of a
    decompose_field split."""
    readers = {f"{path.stem}.{stmt.name}"
               for path in sorted(SOURCE.glob("*.py"))
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, ast.FunctionDef)
               and "V_vec" in referenced_names(stmt)}
    assert readers == {"gkls.evaluate_component_fields"}


def test_no_bare_runtime_error_or_exception_is_raised():
    """cli.main maps the package's own errors to exit codes 2 and 3 and
    lets a bare RuntimeError or Exception out as exit 1 with a
    traceback, so no src statement raises either; a numerical failure
    raises one of the RuntimeError subclasses main maps."""
    def bare(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) \
            and exc.id in ("RuntimeError", "Exception")

    raises = [f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
              for path in sorted(SOURCE.glob("*.py"))
              for stmt in ast.parse(path.read_text()).body
              for node in ast.walk(stmt)
              if isinstance(node, ast.Raise) and node.exc is not None
              and bare(node)]
    assert raises == []


def test_every_package_error_has_an_exit_code():
    """A bad input is a ValueError, which cli.main maps to exit 2, so src
    defines no subclass of it; the exception classes src defines are
    exactly the failed computations that main's exit-3 clause names, and
    none leaves main as exit 1 with a traceback."""
    main = next(stmt for stmt in ast.parse((SOURCE / "cli.py").read_text())
                .body if getattr(stmt, "name", None) == "main")
    numerical = next(
        handler for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler)
        and any("EXIT_NUMERICAL" in referenced_names(stmt)
                for stmt in handler.body))
    caught = eval(ast.unparse(numerical.type), vars(cli))
    defined = {obj for path in sorted(SOURCE.glob("*.py"))
               for obj in vars(importlib.import_module(
                   f"dissipgeo.{path.stem}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"dissipgeo.{path.stem}"}
    assert defined == {cls for cls in caught
                       if cls.__module__.startswith("dissipgeo.")}
    assert sorted(cls.__name__ for cls in defined) == [
        "BasisCorruptionError", "DegenerateContactError",
        "DivergenceError", "ImplicitSystemError"]


def test_errstate_is_entered_in_four_functions():
    """cli.main runs every command with numpy's floating-point warnings
    off, so an overflow is an exit code, never a warning; besides it only
    the library routes whose callers rely on silence enter np.errstate:
    rk4_path and fast_path, whose diverging path raises DivergenceError,
    and mechanics._singular, whose non-finite matrix reads singular."""
    def errstate(call):
        return "errstate" in referenced_names(call.func)

    assert sorted(call for path in sorted(SOURCE.glob("*.py"))
                  for call in calls_in(path.stem, errstate)) \
        == ["cli.main", "integrators.fast_path", "integrators.rk4_path",
            "mechanics._singular"]
