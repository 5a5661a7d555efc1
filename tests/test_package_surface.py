"""The package defines only what the package itself runs.

A function, method or class that no module of the package reads is code
only the tests run: it belongs under ``tests/``, or nowhere.  Re-exports
in ``__init__.py`` are not reads, nor is a store: ``self.x = ...`` does
not read ``x``.  A read is matched by name anywhere in
a package module outside the definition's own body, so a recursive call
does not count and two definitions sharing a name share their reads.  A
function or class is read as a bare name or an attribute; a method only
as an attribute, since a bare name of the same spelling is a local
variable, not the method.
"""

import ast
from collections import Counter
from pathlib import Path

import framedvertex

PACKAGE = Path(framedvertex.__file__).parent

# read from outside the package: perfbench/tracer.py reports the largest
# degree and coefficient size of a table's values through FRational.num
# (and .den, which the package reads too), FPolynomial.degree and
# FPolynomial.coefficients (in table_size)
EXEMPT = {"ratfunc.FPolynomial.coefficients", "ratfunc.FPolynomial.degree",
          "ratfunc.FRational.num"}


def _reads(node):
    """Counters of the bare names and of the attribute names loaded."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if not isinstance(getattr(sub, "ctx", None), ast.Load):
            continue
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def test_a_store_is_not_a_read():
    # obj is loaded to store into it; the attribute and the name stored
    # count nothing
    assert _reads(ast.parse("obj.attr = 1\nname = 2")) == (
        Counter({"obj": 1}), Counter())


def _definitions(node, prefix, in_class=False):
    """(qualified name, node, is a method) for every definition."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            yield name, child, in_class
            yield from _definitions(child, name + ".",
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def _count(reads, name, method):
    names, attrs = reads
    return attrs[name] + (0 if method else names[name])


def test_every_definition_is_read_by_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for stem, tree in trees.items():
        if stem != "__init__":
            got = _reads(tree)
            names.update(got[0])
            attrs.update(got[1])
    unread = []
    for stem, tree in trees.items():
        for qualname, node, method in _definitions(tree, stem + "."):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or qualname in EXEMPT):
                continue
            if (_count((names, attrs), name, method)
                    <= _count(_reads(node), name, method)):
                unread.append(qualname)
    assert not unread, ("defined in the package but read by no package "
                        "module: %s" % ", ".join(unread))
