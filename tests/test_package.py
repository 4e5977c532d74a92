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


def test_oracle_and_singularity_rule_stay_in_place():
    """Only ``__init__.py`` imports the graph oracle ``autodiff``, so the
    training code never depends on it; and ``SINGULARITY_EPS``, the zero
    rule of every loss slope, is assigned in ``scoring.py`` alone."""
    importers, assigners = [], []
    for path in sorted(Path(disconet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, ast.ImportFrom):
                names = {node.module or ""} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                names = set()
            if any(n.split(".")[-1] == "autodiff" for n in names):
                importers.append(path.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "SINGULARITY_EPS"
                       for t in targets):
                    assigners.append(path.name)
    assert sorted(set(importers)) == ["__init__.py"]
    assert assigners == ["scoring.py"]


def test_json_is_read_in_one_place():
    """Every JSON document the package reads, a config or a checkpoint
    header, goes through ``strictjson.read_json``, which refuses a repeated
    key: no other ``src/`` module calls ``json.load`` or ``json.loads``."""
    callers = []
    for path in sorted(Path(disconet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                callers.append(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                callers.append(path.name)
    assert callers == ["strictjson.py"]
