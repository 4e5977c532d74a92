import ast
import inspect
from pathlib import Path

import disconet


def test_all_lists_every_public_import():
    """``disconet.__all__`` is kept by hand: every name in it resolves, none
    repeats, and every public class or function ``__init__.py`` imports is
    listed."""
    names = disconet.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(disconet, n)] == []
    tree = ast.parse(Path(disconet.__file__).read_text(encoding="utf8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        n for n in imported
        if not n.startswith("_")
        and (inspect.isclass(getattr(disconet, n)) or inspect.isfunction(getattr(disconet, n)))
    }
    assert sorted(public - set(names)) == []
