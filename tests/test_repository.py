"""Repository hygiene: nothing that .gitignore excludes is tracked, no
function in the package recurses on the Python stack, only the kernel
enters judgements into its certificate index, only the checker's rule
table dispatches on a term rule's tag, only ``checker._decide`` runs an
obligation stack, no module of the package or the tests
imports a name it does not use, the public surface the README shows exists
and runs, and the grammar doc names every keyword and elaborator the parser
knows."""

import ast
import re
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
    # the self-call passes no index, so it makes no call of its own
    ("_kernel.py", "eq_lazy"),
}
# a test reference, not part of the checker
_RECURSION_EXEMPT_FILES = {"oracle.py"}


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
    function in the package calls itself, apart from the allowed ones, and
    each allowed one still does, so the list cannot go stale."""
    offenders, recursive = [], set()
    for path in sorted((ROOT / "src" / "ott").glob("*.py")):
        if path.name in _RECURSION_EXEMPT_FILES:
            continue
        for name, line in _self_calls(ast.parse(path.read_text(encoding="utf-8"))):
            recursive.add((path.name, name))
            if (path.name, name) not in _RECURSION_ALLOWED:
                offenders.append(f"{path.name}:{line} {name}")
    assert offenders == []
    assert _RECURSION_ALLOWED <= recursive


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
# the dict's mutating methods, and those of the lists it holds
_MUTATORS = {"__setitem__", "__delitem__", "setdefault", "update", "pop",
             "popitem", "clear", "append", "extend", "insert", "remove"}


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
    it, a mutating method call on it or on a list it holds, or a
    ``setattr`` that names it."""
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
        "checker._certificates[(id(entry), 1)].append(ref)\n"
    )
    assert _certificate_writes(tree) == [
        ("Certificate", 2), ("Certificate", 3), (_INDEX, 4), (_INDEX, 5),
        (_INDEX, 6), (_INDEX, 7), ("setattr", 8), (_INDEX, 11),
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


# ``checker._decide`` is the one place the package runs an obligation stack:
# it runs a copy of its seeds and finds a rejection's locus, so no other
# function reads ``_run``.
_RUNNER = ("checker.py", "_decide")


def _reads(tree, name):
    """(enclosing function, line) of each read of ``name``, by bare name or
    as an attribute, with methods and nested functions named by their
    qualified name and module-level code by ""."""
    found = []

    def visit(node, prefix, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", where)
                continue
            read = child.id if isinstance(child, ast.Name) else (
                child.attr if isinstance(child, ast.Attribute) else None)
            if read == name and isinstance(child.ctx, ast.Load):
                found.append((where, child.lineno))
            visit(child, prefix, where)

    visit(tree, "", "")
    return found


def test_only_decide_runs_a_stack():
    """No function in the package but ``checker._decide`` reads ``_run``,
    and ``_decide`` still calls it, so the scan cannot go stale."""
    offenders, runs = [], 0
    for path in sorted((ROOT / "src" / "ott").glob("*.py")):
        for where, line in _reads(ast.parse(path.read_text(encoding="utf-8")), "_run"):
            if (path.name, where) == _RUNNER:
                runs += 1
            else:
                offenders.append(f"{path.name}:{line} {where or '<module>'}")
    assert offenders == []
    assert runs


def test_run_scan_finds_other_runners():
    tree = ast.parse(
        "def _decide(sig, seeds):\n    return _run(sig, list(seeds))\n"
        "def check(sig, j):\n    return _run(sig, [j])\n"
        "class C:\n"
        "    def m(self):\n"
        "        def go(stack):\n            return checker._run(None, stack)\n"
        "        return go\n"
        "runner = partial(_run, None)\n"
        "_run = None\n"
    )
    assert _reads(tree, "_run") == [("_decide", 2), ("check", 4), ("C.m.go", 8), ("", 10)]


# No module in the package or the tests imports a name it does not use.
# ``kernel.py`` exists to re-export, a name in a module's ``__all__`` is exported, and an
# import statement with a line marked ``# noqa: F401`` is kept on purpose.
_IMPORT_EXEMPT_FILES = {"kernel.py"}


def _unused_imports(source):
    """(name, line) of each name that a module-level or nested import binds
    and no other code of the module reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_no_unused_imports():
    offenders = []
    paths = sorted((ROOT / "src" / "ott").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name in _IMPORT_EXEMPT_FILES:
            continue
        for name, line in _unused_imports(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert offenders == []


def test_unused_import_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import time\n"
        "from .kernel import CLO, VAR as V, size\n"
        "from .checker import check  # noqa: F401\n"
        "from .terms import (\n    Pi,\n    Var,  # noqa: F401\n)\n"
        "from .subst import shift\n"
        "__all__ = ['shift']\n"
        "def f(t):\n"
        "    import json\n"
        "    return os.getcwd(), V, size(t)\n"
    )
    assert _unused_imports(source) == [("time", 4), ("CLO", 5), ("json", 14)]


def test_every_exported_name_resolves():
    import importlib

    missing = []
    for path in sorted((ROOT / "src" / "ott").glob("*.py")):
        name = "ott" if path.stem == "__init__" else f"ott.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_example_runs():
    from ott import Const, Id, Var

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["report"].verdict == "accept"
    assert scope["result"].stated_type == Id(Const("A"), Var(1), Var(1))


def test_grammar_doc_quotes_every_keyword_and_elaborator():
    """docs/grammar.ebnf quotes, outside its comments, every keyword the
    lexer knows and every elaborator the parser accepts, so the doc cannot
    fall behind the parser."""
    from ott.surface import _ELAB_OPS, KEYWORDS

    text = (ROOT / "docs" / "grammar.ebnf").read_text(encoding="utf-8")
    quoted = set(re.findall(r'"([^"]*)"', re.sub(r"\(\*.*?\*\)", "", text, flags=re.S)))
    assert sorted(set(KEYWORDS) - quoted) == []
    assert sorted(set(_ELAB_OPS) - quoted) == []
