"""No dead code at module level: every module-level function and class in
shiftlab is named by product code outside its own definition, except those
listed here with the reason they stay. Exporting a name in shiftlab.__all__
does not count as a use: __init__ is not read. Every module-level constant
(an assigned name that is not a dunder) is read the same way, with no
exception."""

import ast
import pathlib

import shiftlab

# module.name -> why it stays with no caller in the package, citing the
# open ROADMAP item that decides it
ALLOWED = {
    "langkit.hereditary_check": "the heredity search behind the verdicts of ROADMAP item 4",
    "langkit.max_density_word": "the witness of a maximal density, ROADMAP item 3",
    "langkit.mixing_probe": "an acceptor-queries bench op; ROADMAP item 8 decides it",
    "beta.count_beta_language": "bound by name in perfbench/spans.py (ROADMAP item 8)",
    "langkit.binary_entropy": "read by an acceptance test (ROADMAP item 10)",
}


def _names(node):
    """Every Name, Attribute and import alias under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _assigned(stmt):
    """The names a module-level assignment binds, dunder names left out."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))}


def _unreached():
    """(definitions, constants): the module.name of each module-level def or
    class, and of each assigned name, that nothing outside its own statement
    names."""
    defined, constants, named = {}, {}, set()
    for path in sorted(pathlib.Path(shiftlab.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
                defined[path.stem + "." + stmt.name] = stmt.name
            for name in _assigned(stmt):
                own.add(name)
                constants[path.stem + "." + name] = name
            if path.stem != "__init__":
                named |= _names(stmt) - own

    def unread(table):
        return {q for q, name in table.items() if name not in named}

    return unread(defined), unread(constants)


def test_every_module_level_definition_is_reached():
    assert _unreached()[0] == set(ALLOWED)


def test_every_module_level_constant_is_read():
    assert _unreached()[1] == set()


def test_no_exported_name_is_unreached():
    unreached = {q.split(".", 1)[1] for q in _unreached()[0]}
    assert unreached.isdisjoint(shiftlab.__all__)
