"""Every public function, class, method and property of the package has a caller.

A public module-level function or class in `src/sdpi`, and a public method or
property of any of its classes, must be referenced somewhere besides its own
definition: elsewhere in the package, in `perfbench/*.py` (whose tracer names
some of them in strings) or in the acceptance tests.  A member counts as
referenced when its name is, on any object.  The names kept for a planned
caller are listed in `ALLOWED`, members as `Class.member`, with the reason,
and the list may not go stale.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdpi"

ALLOWED = {
    "lmmse": "ROADMAP item 21; I-MMSE reference for mi_additive in tests/test_channels.py",
    "mmse_numeric": "ROADMAP item 21; I-MMSE reference for mi_additive in tests/test_channels.py",
    "tv_distance": "test reference",
}


def _names(node: ast.AST) -> Counter:
    """Every name a node reads, imports or spells out as a whole string, with
    the number of times it does."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def _definitions(module: ast.Module):
    """(key, node) of the module's public functions and classes, keyed by name,
    and of the public methods and properties of all its classes, keyed
    `Class.member`."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _scan() -> tuple[dict[str, str], set[str]]:
    """The package's public definitions (key -> module file) and the keys whose
    name is referenced outside their own definition."""
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    referenced = sum((_names(tree) for tree in trees.values()), Counter())
    defined, called = {}, set()
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            for key, node in _definitions(tree):
                defined[key] = path.name
                if referenced[node.name] > _names(node)[node.name]:
                    called.add(key)
    return defined, called


def test_every_public_name_has_a_caller():
    defined, called = _scan()
    uncalled = sorted(f"{module}:{key}" for key, module in defined.items()
                      if key not in called and key not in ALLOWED)
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_allow_list_is_current():
    defined, called = _scan()
    assert sorted(set(ALLOWED) - set(defined)) == [], "allow-listed names that are gone"
    assert sorted(set(ALLOWED) & called) == [], "allow-listed names that now have a caller"
