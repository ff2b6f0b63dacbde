"""Repository hygiene: nothing that .gitignore excludes is tracked, no
function in the package recurses on the Python stack, only the kernel
enters judgements into its certificate index, and only the checker's rule
table dispatches on a term rule's tag."""

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


# Only ``ott.checker`` may make a Certificate or write the index of them, so
# every indexed judgement is one the kernel accepted.
_CERTIFICATE_OWNER = ROOT / "src" / "ott" / "checker.py"
_INDEX = "_certificates"
_MUTATORS = {"__setitem__", "__delitem__", "setdefault", "update", "pop",
             "popitem", "clear"}


def _names(node):
    """The names, attribute names and strings that ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _certificate_writes(tree):
    """(what, line) of each construction of a Certificate and each write to
    the certificate index: a store into or deletion from it, a rebinding of
    it, a mutating method call on it, or a ``setattr`` that names it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else (
                f.attr if isinstance(f, ast.Attribute) else None)
            if name == "Certificate" or name == "__new__" and "Certificate" in _names(f):
                found.append(("Certificate", node.lineno))
            elif name in _MUTATORS and isinstance(f, ast.Attribute) and _INDEX in _names(f.value):
                found.append((_INDEX, node.lineno))
            elif name == "setattr" and any(_INDEX in _names(a) for a in node.args):
                found.append((name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            if any(_INDEX in _names(t) for t in targets):
                found.append((_INDEX, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_only_the_kernel_issues_certificates():
    offenders = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == _CERTIFICATE_OWNER:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for what, line in _certificate_writes(tree):
                offenders.append(f"{path.relative_to(ROOT)}:{line} {what}")
    assert offenders == []


def test_certificate_scan_finds_writes():
    tree = ast.parse(
        "from ott.checker import Certificate\n"
        "c = Certificate(sig, j)\n"
        "d = ott.checker.Certificate.__new__(Certificate)\n"
        "ott.checker._certificates[1] = c\n"
        "del checker._certificates[1]\n"
        "_certificates.setdefault(1, c)\n"
        "checker._certificates = {}\n"
        "monkeypatch.setattr(ott.checker, '_certificates', {})\n"
        "ok = ott.checker._certificates.get(1) is None and isinstance(c, Certificate)\n"
        "report, cert = certify(sig, j)\n"
    )
    assert _certificate_writes(tree) == [
        ("Certificate", 2), ("Certificate", 3), (_INDEX, 4), (_INDEX, 5),
        (_INDEX, 6), (_INDEX, 7), ("setattr", 8),
    ]


# The checker has one rule table, the term branch of ``_run``: no other
# function in it dispatches on a term rule's tag.  ``VAR`` and ``CONST`` are
# exempt, since leaves are tested outside the rules, and so is ``CLO``,
# which no rule has.
_CHECKER = ROOT / "src" / "ott" / "checker.py"
_RULE_TABLE = "_run"
_TERM_RULE_TAGS = {
    "PI", "LAM", "APP", "BETA", "ID", "REFL", "IDREC", "IDCONV", "NAT", "ZERO",
    "SUCC", "NATREC", "NATCONVZERO", "NATCONVSUCC",
}


def _tag_comparisons(tree):
    """(function, line) of each ``==`` or ``!=`` comparison with a term-rule
    tag, by bare name or as an attribute, in a function other than the rule
    table; a nested function counts as the function it is in."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    tops = [n for n in tree.body if isinstance(n, functions)]
    tops += [m for n in tree.body if isinstance(n, ast.ClassDef)
             for m in n.body if isinstance(m, functions)]
    found = []
    for top in tops:
        if top.name == _RULE_TABLE:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Compare) or not any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in (node.left, *node.comparators):
                name = side.id if isinstance(side, ast.Name) else (
                    side.attr if isinstance(side, ast.Attribute) else None)
                if name in _TERM_RULE_TAGS:
                    found.append((top.name, node.lineno))
                    break
    return sorted(found, key=lambda item: item[1])


def test_only_the_rule_table_dispatches_on_term_rules():
    tree = ast.parse(_CHECKER.read_text(encoding="utf-8"))
    assert _tag_comparisons(tree) == []


def test_tag_comparison_scan_finds_dispatch():
    tree = ast.parse(
        "def _run(t):\n    return t[0] == PI\n"
        "def conclusion(a):\n"
        "    tag = a[0]\n"
        "    if tag == VAR or tag == CONST or a[0] == CLO:\n        return None\n"
        "    if tag == LAM:\n        return (PI, a[1], a[2])\n"
        "    if _k.NATREC != tag:\n        return None\n"
        "class C:\n"
        "    def certify(self, t):\n"
        "        def leaf():\n            return len(t) == 1 or t[0] == ZERO\n"
        "        return leaf()\n"
    )
    assert _tag_comparisons(tree) == [("conclusion", 7), ("conclusion", 9), ("certify", 14)]
