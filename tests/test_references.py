"""Every function and class in the package is reached from the package.

An `ast` scan lists the module-level functions and classes of
`src/multimult`, and the methods of those classes, that nothing anywhere in
`src/multimult` refers to.  A function or class is referred to by a name, an
attribute or an import alias; a method only by an attribute or an import
alias, since a bare name of the same spelling is some other variable.
Dunder methods are left out: Python calls them itself.  What is left is code
only the tests reach; it must be a constructor or primitive the tests build
objects with, and nothing a refactor left behind.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multimult"

#: Definitions only the tests use, each on purpose.
ALLOWED = {
    "RingContext.variable",
    "RingContext.one",
    "RingContext.monomial",
    "Monomial.divides",
    "QuotientModule.free",
}


def unreferenced(package: Path) -> set[str]:
    defined, names, attributes = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name)
    return {
        name for name in defined
        if name.rsplit(".", 1)[-1] not in (attributes if "." in name else names | attributes)
    }


def test_only_the_allowlist_is_unreferenced():
    assert unreferenced(PACKAGE) == ALLOWED


def test_the_scan_sees_a_new_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def shadowed(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def helper():\n"
        "    shadowed = K().used()\n"
        "    return shadowed\n"
        "def orphan():\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from a import K as Alias\n")
    # A local variable spelled like a method does not refer to it.
    assert unreferenced(tmp_path) == {"K.unused", "K.shadowed", "orphan"}
