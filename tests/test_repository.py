"""Repository hygiene: nothing that .gitignore excludes is tracked, and no
function in the package recurses on the Python stack."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert result.stdout == ""


# Functions allowed to call themselves, each for a reason that bounds its
# depth by something other than the input's nesting.
_RECURSION_ALLOWED = {
    # the self-call shifts with an empty environment, which cannot recurse
    ("_kernel.py", "inst"),
    # depth is the telescope length, and each level multiplies the output
    ("derived.py", "_beta_witness"),
}
# test references, not part of the checker
_RECURSION_EXEMPT_FILES = {"oracle.py", "testing.py"}


def _self_calls(tree):
    """(qualified name, line) of each call a function makes to itself by
    bare name or as ``self.<name>``, nested functions included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for sub in ast.walk(child):
                    if not isinstance(sub, ast.Call):
                        continue
                    f = sub.func
                    if isinstance(f, ast.Name) and f.id == child.name or (
                        isinstance(f, ast.Attribute) and f.attr == child.name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"
                    ):
                        found.append((name, sub.lineno))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_no_recursion_on_the_python_stack():
    """Deep input must not meet the interpreter's recursion limit: no
    function in the package calls itself, apart from the allowed ones."""
    offenders = []
    for path in sorted((ROOT / "src" / "ott").glob("*.py")):
        if path.name in _RECURSION_EXEMPT_FILES:
            continue
        for name, line in _self_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, name) not in _RECURSION_ALLOWED:
                offenders.append(f"{path.name}:{line} {name}")
    assert offenders == []


def test_recursion_scan_finds_self_calls():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def m(self):\n        def go(x):\n            return go(x)\n"
        "        return self.m()\n"
        "def g():\n    return h()\n"
    )
    assert sorted(_self_calls(tree)) == [("C.m", 9), ("C.m.go", 8), ("f", 2)]
