"""Spans and counters around the layers of framedvertex, installed from outside.

``Tracer.install()`` replaces public functions and methods of the package
with wrappers for the rest of the process.  A module-level function is
replaced under every name that refers to it in any loaded ``framedvertex``
module, because callers look it up where they imported it (``cli`` binds
``kernel_I_via_involution`` at import, ``KernelWorkspace`` calls the
``kernels`` globals, ``cutjoin`` binds ``assemble_H`` and
``euler_field``).  Methods are replaced on their class, together with
aliases such as ``__radd__ = __add__``.  A renamed target raises, so a
layer cannot go silently dark.

Three kinds of wrapper:

* span: records ``(name, start, end, parent)`` in memory; structural
  calls such as a kernel, a recursion step or a cut-and-join term;
* count: increments a counter; hot structural arithmetic (series and
  multivariate products, embeds, cached powers of t);
* Q(f) arithmetic: counts every call and adds the wall time of the
  outermost ``FRational`` operation to ``ratfunc_s``.  There are about a
  million of these per run, too many to keep as spans, so their time is
  not subtracted from the self time of the enclosing span.

Run as a script it executes the command line under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json TABLE.json -- verify --suite cutjoin ...

and writes the spans, the counters and the coefficient size of the table
file TABLE.json (read after the counters are taken) to OUT.json.
The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # calls per layer name
        self.totals = Counter()  # summed result sizes
        self.ratfunc_s = 0.0
        self._stack = []
        self._in_ratfunc = False

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def ratfunc(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            if self._in_ratfunc:
                return fn(*args)
            self._in_ratfunc = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.ratfunc_s += perf_counter() - start
                self._in_ratfunc = False
        return wrapper

    # -- patching ---------------------------------------------------------

    def _function(self, module, attr, make):
        """Replace ``module.attr`` under every name bound to it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _method(self, cls, attr, make):
        """Replace ``cls.attr`` and every alias of it in the class body."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(raw.__func__))
        else:
            wrapper = make(raw)
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapper)

    def install(self):
        from framedvertex import (curve, curvefun, cutjoin, engine, kernels,
                                  ratfunc, tpoly, vseries)

        def span(name, on_result=None):
            return lambda fn: self.span(name, fn, on_result)

        def count(name):
            return lambda fn: self.count(name, fn)

        def arith(name):
            return lambda fn: self.ratfunc(name, fn)

        def add_terms(h):
            self.totals["engine.assemble_H.terms"] += len(h)

        def add_residual(report):
            self.totals["cutjoin.residual_terms"] += report.residual_terms

        self._method(curve.CurveSeries, "__init__", span("curve.build"))
        self._method(curve.CurveSeries, "t_power", count("curve.t_power"))

        self._method(curvefun.EtaFamily, "__init__",
                     span("curvefun.eta_family"))
        self._method(curvefun.PhiTower, "__init__",
                     span("curvefun.phi_tower"))
        self._function(curvefun, "plus_part", span("curvefun.plus_part"))
        self._function(curvefun, "phi_prime_decompose",
                       span("curvefun.phi_prime_decompose"))
        self._function(curvefun, "phi_prime_decompose_pair",
                       span("curvefun.phi_prime_decompose_pair"))
        self._function(curvefun, "euler_field", span("curvefun.euler_field"))

        # products count every __mul__, scaling by a Q(f) constant included
        self._method(vseries.VSeries, "__mul__", count("vseries.mul"))
        self._method(vseries.VSeries, "reciprocal",
                     count("vseries.reciprocal"))
        self._function(vseries, "compose_polynomial",
                       span("vseries.compose_polynomial"))

        self._function(kernels, "kernel_I", span("kernels.kernel_I"))
        self._function(kernels, "kernel_II", span("kernels.kernel_II"))
        self._function(kernels, "kernel_I_via_involution",
                       span("kernels.kernel_I_via_involution"))
        self._function(kernels, "kernel_II_symmetrized",
                       span("kernels.kernel_II_symmetrized"))
        for attr in WORKSPACE_MISS:
            self._method(kernels.KernelWorkspace, attr,
                         span("kernels.workspace." + attr))

        self._function(engine, "recursion_step", span("engine.recursion_step"))
        self._function(engine, "assemble_H",
                       span("engine.assemble_H", add_terms))
        self._method(engine.BracketTable, "from_json", span("engine.from_json"))
        self._method(engine.BracketTable, "to_json", span("engine.to_json"))

        for attr in ("lhs", "t1", "t2_t3", "t4"):
            self._method(cutjoin.CutJoinVerifier, attr,
                         span("cutjoin." + attr))
        self._method(cutjoin.CutJoinVerifier, "verify",
                     span("cutjoin.cell", add_residual))

        self._method(tpoly.TPolynomial, "__mul__", count("tpoly.mul"))
        self._method(tpoly.TPolynomial, "embed", count("tpoly.embed"))
        # the module-level exact_divide_difference calls this method
        self._method(tpoly.TPolynomial, "exact_divide_difference",
                     span("tpoly.exact_divide_difference"))

        for attr, name in RATFUNC_OPS.items():
            self._method(ratfunc.FRational, attr, arith("ratfunc." + name))

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "totals": dict(self.totals), "ratfunc_s": self.ratfunc_s}


# workspace method -> the module function it reaches on a cache miss
WORKSPACE_MISS = {
    "kernel_I": "kernels.kernel_I",
    "kernel_II": "kernels.kernel_II",
    "decompose_pair_kernel": "curvefun.phi_prime_decompose",
    "decompose_point_kernel": "curvefun.phi_prime_decompose_pair",
}

# FRational method -> counter name (aliases such as __radd__ follow)
RATFUNC_OPS = {
    "__add__": "add", "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow", "derivative": "derivative",
}


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "framedvertex"
                                  or n.startswith("framedvertex."))]


def table_size(path):
    """Largest degree and coefficient bit length over a table's values,
    read through the public ``num``/``den`` of each parsed value."""
    from framedvertex.ratfunc import FRational
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    degree = bits = 0
    for text in entries.values():
        value = FRational.from_text(text)
        for poly in (value.num, value.den):
            degree = max(degree, poly.degree)
            for c in poly.coefficients:
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return {"max_degree": degree, "max_bits": bits}


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py OUT.json TABLE.json -- CLI-ARGS...")
    out_path, table_path = argv[:2]
    from framedvertex import cli
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv[3:])
    sys.stdout.flush()
    # taken before table_size, whose parsing would add to the counts
    result = tracer.dump()
    result["exit_code"] = code
    try:
        result["table"] = table_size(table_path)
    except (OSError, ValueError, KeyError):
        result["table"] = None
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
