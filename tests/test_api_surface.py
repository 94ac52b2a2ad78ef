"""The package holds only what runs.

Every module-level function and class of `src/qstrings`, and every
method of its classes, must be named somewhere in `src/`, `perfbench/`
or `bench/` besides its own definition (a word match over the Python
sources).  A name only tests reach belongs in `tests/`, or nowhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qstrings"
SEARCHED = ("src", "perfbench", "bench")
# Criterion 8 fits its slopes with it, and the sweep's slope summary will.
ALLOWED = {"fit_loglog_slope"}


def _defined_names(source: str) -> list[str]:
    """Module-level function and class names, and method names, in `source`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unused_names(root: Path) -> list[str]:
    """Names defined in the package at `root` that nothing there names."""
    definitions = Counter(
        name
        for path in sorted((root / "src" / "qstrings").glob("*.py"))
        for name in _defined_names(path.read_text())
    )
    text = "\n".join(
        path.read_text() for top in SEARCHED for path in sorted((root / top).rglob("*.py"))
    )
    return sorted(
        name
        for name, count in definitions.items()
        if name not in ALLOWED and len(re.findall(rf"\b{name}\b", text)) <= count
    )


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
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "use.py").write_text("from qstrings.core import Used\n")
    assert unused_names(tmp_path) == ["orphan", "orphan_method"]
