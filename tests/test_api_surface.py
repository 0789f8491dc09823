"""Every top-level function and class in ``src/dissipgeo`` is used by the
package itself, so a run or a ``checks`` suite reaches it: API that only
the tests call is deleted together with those tests."""

import ast
from pathlib import Path

import dissipgeo

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
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_used_by_the_package():
    definitions, statements = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt))
    # a definition's own body does not count as a use of it
    unused = {stmt.name: f"{module}.{stmt.name}"
              for module, stmt in definitions if not any(
                  stmt.name in referenced_names(other)
                  for other in statements if other is not stmt)}
    assert sorted(unused) == sorted(ALLOWED), \
        f"no src module uses {sorted(unused.values())}"


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


def test_linear_fill_is_the_one_block_loop():
    """Only integrators names CHECK_ROWS, the block size of linear_fill,
    so no module keeps a second loop over blocks of step powers."""
    assert [path.stem for path in sorted(SOURCE.glob("*.py"))
            if "CHECK_ROWS" in path.read_text()] == ["integrators"]


def calls_in(module, accept):
    """module.function for every call in a module that accept(call) holds,
    once per call, by the top-level definition it sits in."""
    return [f"{module}.{getattr(stmt, 'name', stmt.lineno)}"
            for stmt in ast.parse((SOURCE / f"{module}.py").read_text()).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and accept(node)]


def test_no_contact_function_calls_reeb_field():
    """A contact field or bracket is one bordered solve whose multiplier
    is the eta term, so no function in contact asks for the Reeb field
    first."""
    assert calls_in("contact", lambda call: "reeb_field"
                    in referenced_names(call.func)) == []


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
