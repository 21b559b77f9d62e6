"""Every function, class and method in src/roqsim serves the program.

A definition that no code in src/roqsim or perfbench refers to exists only
for the tests, which can build what they need themselves.  A reference is
any name or attribute of that spelling; perfbench also names what it patches
in strings, so its string constants count too.  Dunders, ``main`` and the
public names in ``roqsim.__all__`` are entry points and need no reference.
"""

import ast
from pathlib import Path

import roqsim

REPO = Path(__file__).resolve().parent.parent
SRC = sorted((REPO / "src" / "roqsim").glob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(qualified name, name) of module-level defs and of their classes' methods."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS):
                    yield "%s.%s" % (node.name, item.name), item.name


def references(tree, strings):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_definition_in_src_serves_only_the_tests():
    used = set()
    defined = []
    for path in SRC + PERFBENCH:
        tree = ast.parse(path.read_text(), str(path))
        used.update(references(tree, strings=path in PERFBENCH))
        if path in SRC:
            defined += [(path.stem, qualified, name) for qualified, name in definitions(tree)]
    exempt = set(roqsim.__all__) | {"main"}
    unused = ["%s.%s" % (module, qualified) for module, qualified, name in defined
              if name not in used and name not in exempt
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == [], "defined in src/roqsim, referenced only by tests: %s" % unused
