"""The package's export list matches what ``alphaforge/__init__.py`` binds."""

import ast
import inspect

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
