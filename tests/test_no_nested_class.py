"""No function under src/ defines a class in its body.  Each call of such
a function makes a new class object, and a class refers to itself
through its __dict__ and __mro__, so every one is a reference cycle that
only the cyclic garbage collector frees.  A per-call class belongs at
module level, taking per-call state in __init__ (as witness._Steps
does)."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _nested_classes(tree):
    """(line, class name, enclosing function name) of every class
    statement inside a function body, at any depth."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and func is not None:
                out.append((child.lineno, child.name, func))
            inner = (getattr(child, "name", "<lambda>")
                     if isinstance(child, _FUNCTIONS) else func)
            visit(child, inner)

    visit(tree, None)
    return out


def test_nested_classes_are_found():
    tree = ast.parse("class A:\n"
                     "    def f(self):\n"
                     "        class B: pass\n"
                     "def g():\n"
                     "    if True:\n"
                     "        class C: pass\n"
                     "    def h():\n"
                     "        class D: pass\n")
    assert _nested_classes(tree) == [(3, "B", "f"), (6, "C", "g"),
                                     (8, "D", "h")]
    assert _nested_classes(ast.parse("class A:\n    class B: pass\n")) == []


def test_no_class_statement_inside_a_function():
    found = []
    sources = 0
    for root, _dirs, files in os.walk(SRC):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                sources += 1
                found += ["%s:%d: class %s in %s()" % (
                    os.path.relpath(path, SRC), line, name, func)
                    for line, name, func in _nested_classes(tree)]
    assert sources, "no sources found under src/"
    assert not found, "classes defined per call: %s" % found
