"""Every function, class and method of the library has a caller outside
the tests: code that only tests reach belongs in a test reference module,
such as reference_kernel.py or reference_polyhedra.py."""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "grobfan")
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import spans  # noqa: E402

# documented in the README as API of its own
ALLOWED = {"saturate_h"}


def _trees(directory, skip=()):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name not in skip:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _references(tree):
    """The names a module reads, imports, or looks up as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_library_code_has_a_caller_outside_the_tests():
    used = set(ALLOWED)
    used.update(t[1].split(".")[-1] for t in spans.TARGETS)
    for _, tree in (list(_trees(SRC, skip=("__init__.py",)))
                    + list(_trees(BENCH))):
        used.update(_references(tree))
    unused = []
    for module, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")
                        or name in used):
                    unused.append("%s:%d %s" % (module, node.lineno, name))
    assert unused == []
