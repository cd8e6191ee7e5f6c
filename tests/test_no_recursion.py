"""No search in shiftlab is bounded by the interpreter's recursion limit: no
function in the package calls itself by name, except those listed here with
the bound on their depth."""

import ast
import pathlib

import shiftlab

# module.qualified.name -> why its recursion stays shallow
ALLOWED = {
    "sets.parse_set_expr": "one level per parenthesis, at most sets.MAX_SET_EXPR_PARENS",
}


def _self_calling_functions():
    found = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, qual + "." + child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = qual + "." + child.name
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, qual)

    for path in sorted(pathlib.Path(shiftlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_no_function_calls_itself():
    assert _self_calling_functions() == set(ALLOWED)
