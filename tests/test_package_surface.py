"""The package defines only what the package itself runs.

A function, method or class that no module of the package reads is code
only the tests run: it belongs under ``tests/``, or nowhere.  Re-exports
in ``__init__.py`` are not reads.  A read is matched by name, as a bare
name or an attribute, anywhere in a package module outside the
definition's own body, so a recursive call does not count and two
definitions sharing a name share their reads.
"""

import ast
from collections import Counter
from pathlib import Path

import framedvertex

PACKAGE = Path(framedvertex.__file__).parent

# read from outside the package: perfbench/tracer.py reports the largest
# coefficient degree of a table through FPolynomial.degree
EXEMPT = {"ratfunc.FPolynomial.degree"}


def _reads(node):
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_read_by_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = Counter()
    for stem, tree in trees.items():
        if stem != "__init__":
            reads.update(_reads(tree))
    unread = []
    for stem, tree in trees.items():
        for qualname, node in _definitions(tree, stem + "."):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or qualname in EXEMPT):
                continue
            if reads[name] <= _reads(node)[name]:
                unread.append(qualname)
    assert not unread, ("defined in the package but read by no package "
                        "module: %s" % ", ".join(unread))
