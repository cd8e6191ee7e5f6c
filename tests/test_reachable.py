"""No dead code at module level: every module-level function and class in
shiftlab is named by product code outside its own definition, or exported in
shiftlab.__all__, except those listed here with the reason they stay."""

import ast
import pathlib

import shiftlab

# module.name -> why it stays with no caller in the package
ALLOWED = {
    "beta.word_in_beta_language": "the suffix-rule reference for beta membership (ROADMAP item 1)",
    "beta.count_beta_language": "bound by name in perfbench/spans.py (ROADMAP item 8)",
    "langkit.binary_entropy": "read by an acceptance test (ROADMAP item 10)",
    "spacing.difference_subset_witness": "read by acceptance tests (ROADMAP item 22)",
    "chaos.diff_equal_densities": "read by acceptance tests (ROADMAP item 22)",
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


def _unreached():
    defined, named = {}, set()
    for path in sorted(pathlib.Path(shiftlab.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[path.stem + "." + own] = own
            if path.stem != "__init__":
                named |= _names(stmt) - {own}
    return {q for q, name in defined.items()
            if name not in named and name not in shiftlab.__all__}


def test_every_module_level_definition_is_reached():
    assert _unreached() == set(ALLOWED)
