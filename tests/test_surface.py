"""The package's surface is what the program reads: every module-level name
and every non-dunder method defined under ``src/rindler_ferm`` must be read,
by a name or an attribute, somewhere in ``src/`` or ``perfbench/``. A name
only the tests read belongs in the tests, or nowhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rindler_ferm"


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(path):
    """(qualified name, bare name) of every module-level name and every
    non-dunder method defined in the module at ``path``."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if not is_dunder(name):
                yield f"{module}.{name}", name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


def reads(paths):
    """Every identifier loaded as a name or an attribute in ``paths``."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_every_definition_is_read_by_the_program():
    program = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/**/*.py"))
    read = reads(program)
    unread = [
        qualified
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in definitions(path)
        if name not in read
    ]
    assert not unread, f"read only by tests, or by nothing: {', '.join(unread)}"


def test_a_scenario_is_a_kind_on_a_field():
    # the kinds take the field, so no per-family factory is left, and the
    # block checks' families come as they are, with nothing to regroup
    gone = {"vac_one_dirac", "bell_dirac", "vac_one_spinless", "_families"}
    program = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in program for _, name in definitions(path)}
    assert not gone & (defined | reads(program))


def test_a_rob_mode_is_a_slot():
    # below the command line a mode is its slot index: no label type, and
    # nothing left that turns a label into a slot or back
    gone = {"ModeLabel", "Spin", "slot_index", "label_at", "validate_label", "labels"}
    program = sorted(PACKAGE.glob("*.py"))
    defined = {name for path in program for _, name in definitions(path)}
    assert not gone & (defined | reads(program))


#: Where the builtin ``sum`` may be called, by module or module.function.
#: The integer sums: every count of ``combinatorics``, the excited-mode
#: masks and the entry count of ``density.analytic_layout``, the
#: reserved-mode counts of ``entanglement.block_row`` and
#: ``verify.check_combinatorics``. The float sums ``fock.norm`` and
#: ``rindler.annihilation_residuals`` reach only the ``verify`` report.
SUM_ALLOWED = {
    "combinatorics",
    "density.analytic_layout",
    "entanglement.block_row",
    "verify.check_combinatorics",
    "fock.norm",
    "rindler.annihilation_residuals",
}


def calls(path, callee):
    """(scope, line) of every call of the bare name ``callee`` in the module
    at ``path``. The scope is the enclosing module-level function
    (``module.function``) or method (``module.Class.method``), else the
    module; a nested function counts as part of its enclosing one."""

    def walk(node, scope, named):
        # ``named``: the definitions that still name a scope at this depth
        for child in ast.iter_child_nodes(node):
            if isinstance(child, named):
                inner = (ast.FunctionDef,) if isinstance(child, ast.ClassDef) else ()
                yield from walk(child, f"{scope}.{child.name}", inner)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == callee
            ):
                yield scope, child.lineno
            yield from walk(child, scope, named)

    yield from walk(ast.parse(path.read_text()), path.stem, (ast.FunctionDef, ast.ClassDef))


def test_builtin_sum_only_where_allowed():
    # sum() over floats is compensated from Python 3.12 on, so on a CSV path
    # it would move bytes with the interpreter; the CSV paths add in order
    found = [
        (name, line) for path in sorted(PACKAGE.glob("*.py")) for name, line in calls(path, "sum")
    ]
    assert found, "the walk found no call at all"
    # a call is allowed by its function's entry or by its whole module's
    allowed = [name if name in SUM_ALLOWED else name.split(".")[0] for name, _ in found]
    stray = [f"{name}:{line}" for (name, line), entry in zip(found, allowed)
             if entry not in SUM_ALLOWED]
    assert not stray, f"builtin sum() outside the allowlist: {', '.join(stray)}"
    # every entry of the allowlist still holds a call
    assert set(allowed) == SUM_ALLOWED


def test_only_the_two_density_paths_build_a_density_matrix():
    # every DensityMatrix is a stack of density matrices: the partial
    # transpose, the adjoint and the entry difference are read off rho's
    # arrays, never built as a second matrix
    found = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, _ in calls(path, "DensityMatrix")
    }
    assert found == {"density.trace_out_region_iv", "density.analytic_density"}
