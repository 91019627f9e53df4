"""A module-level private function or class of the package, and a
private method of one of its classes, must be named somewhere in src/
besides its own def: one that nothing names is dead code and should be
deleted."""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
PKG = os.path.join(SRC, "routerlab")


def _sources():
    out = {}
    for root, _dirs, files in os.walk(SRC):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                with open(path, encoding="utf-8") as fh:
                    out[path] = fh.read()
    return out


def _private_defs(text):
    """Names of the module-level functions and classes of one source
    that start with an underscore and are not dunders."""
    return [node.name for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _private_methods(text):
    """Names of the functions defined in the body of a class of one
    source that start with an underscore and are not dunders."""
    return [item.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name.startswith("_") and not item.name.endswith("__")]


def _named_once(find):
    """The private names find(text) yields for the package's modules
    that src/ names only in their own def, as "module: name"."""
    sources = _sources()
    defs = [(os.path.basename(path), name)
            for path, text in sources.items()
            if os.path.dirname(path) == PKG
            for name in find(text)]
    assert defs, "no private definitions found under src/routerlab"
    dead = []
    for module, name in defs:
        word = re.compile(r"\b%s\b" % re.escape(name))
        # the def (or class) line itself names it once
        if sum(len(word.findall(t)) for t in sources.values()) < 2:
            dead.append("%s: %s" % (module, name))
    return dead


def test_every_private_module_def_is_named_elsewhere():
    dead = _named_once(_private_defs)
    assert not dead, "named nowhere but their own def: %s" % dead


def test_every_private_method_is_named_elsewhere():
    dead = _named_once(_private_methods)
    assert not dead, "named nowhere but their own def: %s" % dead
