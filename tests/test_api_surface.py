"""The package holds only what runs.

Every module-level function and class of `src/qstrings`, and every
method of its classes, must be used as code somewhere in `src/`,
`perfbench/` or `bench/`: named in an expression, read as an attribute,
imported, or named in one of the tracer's patch points.  A word in a
docstring, a comment or a string label does not count.  A name only
tests reach belongs in `tests/`, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "perfbench", "bench")
# Criterion-3 API: the acceptance suite runs the unique-occurrence search
# through match_unique; criterion 8 fits its slopes with fit_loglog_slope,
# and the sweep's slope summary will.
ALLOWED = {"fit_loglog_slope", "match_unique"}


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level function and class names, and method names, in `tree`."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _used_names(tree: ast.Module, patch_points: bool) -> set[str]:
    """Names, attributes and imported names used in `tree`; with
    `patch_points`, also every part of the attribute path of each
    ("module", "Class.method") pair of string constants, the form the
    tracer patches."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif patch_points and isinstance(node, ast.Tuple):
            parts = [elt.value for elt in node.elts if isinstance(elt, ast.Constant)]
            if len(parts) == len(node.elts) == 2 and all(isinstance(p, str) for p in parts):
                used.update(parts[1].split("."))
    return used


def unused_names(root: Path) -> list[str]:
    """Names defined in the package at `root` that no code there uses."""
    defined = {
        name
        for path in sorted((root / "src" / "qstrings").glob("*.py"))
        for name in _defined_names(ast.parse(path.read_text()))
    }
    used = set()
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text()), patch_points=top == "perfbench")
    return sorted(defined - used - ALLOWED)


def test_every_definition_is_named_where_the_program_runs():
    assert unused_names(ROOT) == []


def test_a_name_only_its_definition_mentions_is_flagged(tmp_path):
    package = tmp_path / "src" / "qstrings"
    package.mkdir(parents=True)
    (package / "core.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.run()\n"
        "    def run(self):\n"
        "        return helper()\n"
        "    def orphan_method(self):\n"
        "        pass\n"
        "def helper():\n"
        "    def nested():\n"
        "        pass\n"
        "    return nested\n"
        "def orphan():\n"
        "    return Used\n"
        "def fit_loglog_slope():\n"
        "    pass\n"
        "def documented():\n"
        "    pass\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "use.py").write_text(
        '"""Only this docstring names documented(), and a label: orphan."""\n'
        "from qstrings.core import Used\n"
        'LABEL = "orphan_method"\n'
    )
    assert unused_names(tmp_path) == ["documented", "orphan", "orphan_method"]
