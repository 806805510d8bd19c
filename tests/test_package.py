"""The package's export list matches what ``alphaforge/__init__.py`` binds,
and every kd-tree query goes through ``loss._query``."""

import ast
import inspect
from pathlib import Path

import alphaforge


def test_all_lists_every_public_name_bound_by_init():
    tree = ast.parse(inspect.getsource(alphaforge))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert set(alphaforge.__all__) == public
    assert len(alphaforge.__all__) == len(public)  # no name listed twice


def _query_calls(node, where):
    """(where, line) of every ``.query(`` call under node, where being the
    name of the innermost enclosing function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "query"):
        yield where, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _query_calls(child, where)


def test_every_kdtree_query_is_in_loss_query():
    package = Path(alphaforge.__file__).parent
    outside = [(path.name, where, line) for path in sorted(package.glob("*.py"))
               for where, line in _query_calls(ast.parse(path.read_text()), None)
               if (path.name, where) != ("loss.py", "_query")]
    assert outside == []
