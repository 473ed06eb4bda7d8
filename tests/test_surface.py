"""Every public function and class of the package has a caller.

A public module-level function or class in `src/sdpi` must be referenced
somewhere besides its own definition: elsewhere in the package, in
`perfbench/*.py` (whose tracer names some of them in strings) or in the
acceptance tests.  The names kept for a planned caller are listed in
`ALLOWED` with the reason, and the list may not go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdpi"

ALLOWED = {
    "lmmse": "ROADMAP item 2",
    "mmse_numeric": "ROADMAP item 2",
    "ks_from_mmse_gap": "ROADMAP item 2",
    "ks_from_capacity_gap": "ROADMAP item 2",
    "ks_talagrand": "ROADMAP item 2",
    "concentration_radius": "ROADMAP item 2",
    "dobrushin_dmc": "ROADMAP item 5",
    "tv_distance": "test reference",
}


def _names(node: ast.AST) -> set[str]:
    """Every name a node reads, imports or spells out as a whole string."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def _scan() -> tuple[dict[str, str], set[str]]:
    """The package's public module-level definitions (name -> module file)
    and the names referenced outside their own definition."""
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    defined, referenced = {}, set()
    for path in sources:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            public = (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and path.parent == PACKAGE and not node.name.startswith("_"))
            if public:
                defined[node.name] = path.name
            referenced |= _names(node) - ({node.name} if public else set())
    return defined, referenced


def test_every_public_name_has_a_caller():
    defined, referenced = _scan()
    uncalled = sorted(f"{module}:{name}" for name, module in defined.items()
                      if name not in referenced and name not in ALLOWED)
    assert not uncalled, f"public names with no caller: {uncalled}"


def test_allow_list_is_current():
    defined, referenced = _scan()
    assert sorted(set(ALLOWED) - set(defined)) == [], "allow-listed names that are gone"
    assert sorted(set(ALLOWED) & referenced) == [], "allow-listed names that now have a caller"
