"""Every module-level name in ``src/dissipgeo`` is read by the package
itself, so a run or a ``checks`` suite reaches it: API that only the
tests call is deleted together with those tests, and a constant or an
import that nothing reads goes."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import dissipgeo
from dissipgeo import cli

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
    only other use is gkls.integrate_coherence_field, which has no fast
    route."""
    uses = [f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            for path in sorted(SOURCE.glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == "rk4_path"
            or isinstance(node, ast.Attribute) and node.attr == "rk4_path"]
    assert uses == ["gkls.integrate_coherence_field", "integrators.fast_path"]


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
        == ["DivergenceError", "fast_path", "linear_fill", "rk4_linear_path",
            "rk4_path", "time_grid"]

    def fast_path(call):
        return "fast_path" in referenced_names(call.func)

    assert sorted(call for path in SOURCE.glob("*.py")
                  for call in calls_in(path.stem, fast_path)) \
        == ["gkls.integrate", "integrators.rk4_linear_path",
            "mechanics.integrate_contact"]


def test_check_rows_sizes_the_z_and_s_blocks_alone():
    """Only integrators, whose linear_fill fills z, and mechanics, whose
    closed form fills S in blocks of that size, name CHECK_ROWS, so no
    other module keeps a loop over blocks of step powers."""
    assert [path.stem for path in sorted(SOURCE.glob("*.py"))
            if "CHECK_ROWS" in path.read_text()] == ["integrators",
                                                      "mechanics"]


def calls_in(module, accept):
    """module.function for every call in a module that accept(call) holds,
    once per call, by the top-level definition it sits in."""
    return [f"{module}.{getattr(stmt, 'name', stmt.lineno)}"
            for stmt in ast.parse((SOURCE / f"{module}.py").read_text()).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and accept(node)]


def test_one_singularity_test_in_mechanics():
    """mechanics._singular alone takes a determinant, so the mass of
    representative_matrix and the velocity Hessian share one scale-free
    rule, under which a non-finite matrix is singular."""
    assert calls_in("mechanics", lambda call: "det"
                    in referenced_names(call.func)) == ["mechanics._singular"]


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
    """In cli and checks, checks.relative alone scales a residual by
    max(1, ...), and checks.hamiltonianity_verdict alone reads the
    verdict of hamiltonianity_criterion for an invariant, besides the one
    call of mechanics/odd-trace-soundness in the mechanics suite."""
    def scale(call):
        return isinstance(call.func, ast.Name) and call.func.id == "max" \
            and any(isinstance(arg, ast.Constant) and arg.value == 1
                    for arg in call.args)

    def criterion(call):
        return "hamiltonianity_criterion" in referenced_names(call.func)

    assert calls_in("checks", scale) + calls_in("cli", scale) \
        == ["checks.relative"]
    assert calls_in("checks", criterion) + calls_in("cli", criterion) \
        == ["checks.hamiltonianity_verdict", "checks.mechanics_suite"]


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
    """Each exception class src defines subclasses one that an except
    clause of cli.main maps to exit 2 or 3, so no error of the package
    leaves main as exit 1 with a traceback."""
    main = next(stmt for stmt in ast.parse((SOURCE / "cli.py").read_text())
                .body if getattr(stmt, "name", None) == "main")
    mapped = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught = eval(ast.unparse(handler.type), vars(cli))
            mapped.extend(caught if isinstance(caught, tuple) else [caught])
    defined = [obj for path in sorted(SOURCE.glob("*.py"))
               for obj in vars(importlib.import_module(
                   f"dissipgeo.{path.stem}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"dissipgeo.{path.stem}"]
    assert len(defined) >= 5
    assert [cls.__name__ for cls in defined
            if not issubclass(cls, tuple(mapped))] == []


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
