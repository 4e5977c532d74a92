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


def test_candidate_scorer_stays_in_scoring():
    """The MEU pick and the pair term of a candidate set come from one
    module: ``sorted_pairs``, which selects the one-output sorted form, and
    ``_median_pick``, that form's MEU pick, are defined, called and imported
    in ``scoring.py`` alone."""
    seen = {"sorted_pairs": set(), "_median_pick": set()}
    for path in sorted(Path(disconet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            for name in (getattr(node, key, None) for key in ("id", "attr", "name")):
                if name in seen:
                    seen[name].add(path.name)
    assert seen == {"sorted_pairs": {"scoring.py"}, "_median_pick": {"scoring.py"}}


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


def _opens_for_reading(call):
    """Whether `call` is ``open(...)`` or ``<path>.open(...)`` in a mode that
    reads: one with 'r' or '+', or one that is not a literal."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("r+"))


# the number rule and the one-pass parse of a row file, and the file readers
_INPUT_NAMES = {"read_float", "plain_text", "fromiter", "read_text", "read_bytes"}


def test_input_is_read_in_one_place():
    """Every file the package reads, a config, a data CSV or a checkpoint,
    is read by ``strictjson``: no other ``src/`` module opens a file for
    reading, calls ``read_text`` or ``read_bytes``, or names the rule for a
    number in text (``read_float``, ``plain_text``) or ``np.fromiter``, with
    which a second parse of rows would begin."""
    readers = []
    for path in sorted(Path(disconet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in _INPUT_NAMES or isinstance(node, ast.Call) and _opens_for_reading(node):
                readers.append(path.name)
    assert sorted(set(readers)) == ["strictjson.py"]
