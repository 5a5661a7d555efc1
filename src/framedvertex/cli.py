"""Command-line front end.

Subcommands: ``compute`` fills the bracket table to a complexity budget
and writes the canonical cache file; ``verify`` runs invariant suites and
exits nonzero on any failure; ``export`` emits cells or kernels as JSON
or CSV, optionally specialized at a rational framing value.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .curvefun import PhiTower
from .cutjoin import CutJoinVerifier, psi_oracle
from .engine import (BracketTable, assemble_H, budget_cells, make_workspace,
                     run_to_budget, seed_initial_data, support_bound)
from .errors import (ConfigError, FramedVertexError, InternalInvariantError,
                     PoleAtFraming)
from .kernels import kernel_I, kernel_I_via_involution, kernel_II_symmetrized
from .ratfunc import FRational

CACHE_ENV = "FRAMEDVERTEX_CACHE"
TABLE_FILE = "brackets.json"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framedvertex",
        description="Exact bracket tables for the framed vertex, with "
                    "independent verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--chi-max", type=int, default=3,
                       help="complexity budget 2g-2+n (default 3)")
        p.add_argument("--truncation-margin", type=int, default=0,
                       help="extra series truncation margin")
        p.add_argument("--cache", type=Path, default=None,
                       help="cache directory (default $%s or .framedvertex)"
                            % CACHE_ENV)
        p.add_argument("--config", type=Path, default=None,
                       help="optional JSON config file; flags win")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized spot checks")

    p_compute = sub.add_parser("compute", help="fill the bracket table")
    common(p_compute)
    p_compute.add_argument("--framing", default="symbolic",
                           help="'symbolic' or a rational value p/q; a "
                                "rational framing also writes a specialized "
                                "table next to the symbolic cache")

    p_verify = sub.add_parser("verify", help="run invariant suites")
    common(p_verify)
    p_verify.add_argument("--suite", default="all",
                          choices=("cutjoin", "kernels", "symmetry",
                                   "oracle", "all"))

    p_export = sub.add_parser("export", help="emit cells or kernels")
    common(p_export)
    p_export.add_argument("--cell", default=None, metavar="G,N",
                          help="bracket cell to export, e.g. 1,1")
    p_export.add_argument("--kernel", default=None, metavar="A,B",
                          help="pair kernel to export, e.g. 0,0")
    p_export.add_argument("--kernel2", default=None, metavar="B", type=int,
                          help="point kernel to export")
    p_export.add_argument("--at-f", default=None, metavar="P/Q",
                          help="specialize values at a rational framing")
    p_export.add_argument("--out", type=Path, default=None,
                          help="output file (default stdout)")
    return parser


def _config_argv(args):
    """The settings of ``--config`` as ``--option=value`` tokens.

    The parser checks them like flags; placed before the command-line
    flags, they lose to any flag given there (the last occurrence wins).
    """
    if args.config is None:
        return []
    try:
        overrides = json.loads(args.config.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    options = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise ConfigError("unknown config key %r" % key)
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError("config key %r needs a string or a number" % key)
        tokens.append("--%s=%s" % (attr.replace("_", "-"), value))
    return tokens


def _write_atomic(path, text):
    """Replace ``path`` by ``text`` whole: readers see the old or the new file."""
    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cache_dir(args):
    if args.cache is not None:
        path = args.cache
    elif os.environ.get(CACHE_ENV):
        path = Path(os.environ[CACHE_ENV])
    else:
        path = Path(".framedvertex")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_rational(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("bad %s value %r (expected p/q)" % (what, text))


def _load_or_compute(args, extra_cells=()):
    if args.chi_max < 1:
        raise ConfigError("--chi-max must be >= 1")
    for g, n in extra_cells:
        if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
            raise ConfigError("cell (%d, %d) is unstable" % (g, n))
    cache = _cache_dir(args)
    path = cache / TABLE_FILE
    table = None
    if path.exists():
        try:
            table = BracketTable.from_json(path.read_text())
        except ValueError as exc:
            raise ConfigError("unreadable cache file %s: %s" % (path, exc))
    table = run_to_budget(args.chi_max, args.truncation_margin,
                          extra_cells=extra_cells, table=table)
    _write_atomic(path, table.to_json())
    return table, path


def cmd_compute(args):
    framing = args.framing
    at_f = None
    if framing != "symbolic":
        at_f = _parse_rational(framing, "--framing")
    table, path = _load_or_compute(args)
    print("table: %s" % path)
    for g, n in table.cells():
        print("cell g=%d n=%d entries=%d" % (g, n, len(table.cell_entries(g, n))))
    if at_f is not None:
        spec_path = path.with_name("brackets.at_%d_%d.json"
                                   % (at_f.numerator, at_f.denominator))
        entries = {}
        for g, n in table.cells():
            for key, value in table.cell_entries(g, n).items():
                label = "%d|%s" % (g, ",".join(map(str, key)))
                entries[label] = str(value.evaluate(at_f))
        _write_atomic(spec_path, json.dumps(
            {"framing": str(at_f), "entries": entries},
            sort_keys=True, separators=(",", ": "), indent=1) + "\n")
        print("specialized table: %s" % spec_path)
    return EXIT_OK


def _table_tower(table):
    """The phi tower up to one past the largest support bound of the table."""
    return PhiTower(max(support_bound(g, n) for g, n in table.cells()) + 1)


def _suite_cutjoin(args, table):
    verifier = CutJoinVerifier(table, _table_tower(table))
    results = []
    for g, n in table.cells():
        if 2 * g - 2 + n < 2:
            continue
        report = verifier.verify(g, n)
        results.append(report.to_json_obj())
    return results


def _partitions_with_length(total, length):
    """Sorted non-decreasing tuples of ``length`` non-negatives summing to total."""
    def rec(rest, slots, minimum):
        if slots == 1:
            if rest >= minimum:
                yield (rest,)
            return
        for first in range(minimum, rest // slots + 1):
            for tail in rec(rest - first, slots - 1, first):
                yield (first,) + tail
    yield from rec(total, length, 0)


def _suite_oracle(args, table):
    results = []
    for g, n in table.cells():
        if g != 0:
            continue
        entries = table.cell_entries(g, n)
        ok = all(value == FRational.from_fraction(psi_oracle(0, key))
                 for key, value in entries.items())
        # every on-shell index set must be present with the oracle value
        if n >= 4:
            for key in _partitions_with_length(n - 3, n):
                want = psi_oracle(0, key)
                got = entries.get(key)
                if (got or FRational.from_int(0)) != FRational.from_fraction(want):
                    ok = False
        results.append({"g": g, "n": n, "passed": ok,
                        "entries": len(entries)})
    anchor = seed_initial_data().value(1, (1,))
    f = FRational.variable()
    anchored = anchor == -f * (f + 1) * FRational.from_fraction(psi_oracle(1, (1,)))
    results.append({"check": "one-point anchor", "passed": bool(anchored)})
    return results


def _suite_kernels(args, table):
    cells = budget_cells(args.chi_max)
    ws = make_workspace(cells, args.truncation_margin)
    results = []
    top = min(3, ws.pair_budget)
    for a in range(top + 1):
        for b in range(a, top + 1):
            # the workspace sorts its key, so the swapped order is
            # computed afresh by the module function
            direct = ws.kernel_I(a, b)
            ok = (direct == kernel_I(b, a, ws.eta, ws.curve)
                  and direct == kernel_I_via_involution(a, b, ws.curve, ws.tower))
            results.append({"kernel": "pair", "a": a, "b": b, "passed": ok})
    for b in range(min(2, ws.point_budget) + 1):
        ok = ws.kernel_II(b) == kernel_II_symmetrized(b, ws.curve, ws.tower)
        results.append({"kernel": "point", "b": b, "passed": ok})
    rng = random.Random(args.seed)
    for _ in range(2):
        a = rng.randint(0, ws.pair_budget)
        b = rng.randint(0, ws.pair_budget - a) if ws.pair_budget > a else 0
        ok = ws.kernel_I(a, b) == kernel_I(b, a, ws.eta, ws.curve)
        results.append({"kernel": "pair-symmetry-sample", "a": a, "b": b,
                        "passed": ok})
    return results


def _suite_symmetry(args, table):
    # support bound plus a seeded sample of permutation invariance of the
    # assembled polynomials
    rng = random.Random(args.seed)
    tower = _table_tower(table)
    results = []
    for g, n in table.cells():
        ok = all(sum(key) <= support_bound(g, n)
                 for key in table.cell_entries(g, n))
        results.append({"check": "support", "g": g, "n": n, "passed": ok})
    cells = [c for c in table.cells() if c[1] >= 2 and 2 * c[0] - 2 + c[1] <= 3]
    for g, n in cells:
        h = assemble_H(g, n, table, tower)
        perm = list(range(n))
        rng.shuffle(perm)
        swapped = h.embed(n, perm)
        results.append({"check": "h-symmetry", "g": g, "n": n,
                        "perm": perm, "passed": swapped == h})
    return results


def cmd_verify(args):
    table, _ = _load_or_compute(args)
    suites = (("cutjoin", _suite_cutjoin), ("kernels", _suite_kernels),
              ("symmetry", _suite_symmetry), ("oracle", _suite_oracle))
    selected = [s for s in suites if args.suite in ("all", s[0])]
    report = {}
    failed = []
    for name, fn in selected:
        results = fn(args, table)
        report[name] = results
        for row in results:
            if not row.get("passed", False):
                failed.append((name, row))
    cache = _cache_dir(args)
    report_path = cache / ("report_%s.json" % args.suite)
    _write_atomic(report_path, json.dumps(report, sort_keys=True,
                                          separators=(",", ": "), indent=1) + "\n")
    for name, results in report.items():
        for row in results:
            print("%s %s %s" % ("PASS" if row.get("passed") else "FAIL",
                                name, json.dumps(row, sort_keys=True)))
    if failed:
        name, row = failed[0]
        print("first failure in suite %r: %s"
              % (name, json.dumps(row, sort_keys=True)), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _rows_to_output(rows, header, fmt, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows],
                          sort_keys=True, separators=(",", ": "),
                          indent=1) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out_path, text)


def cmd_export(args):
    picks = [x is not None for x in (args.cell, args.kernel, args.kernel2)]
    if sum(picks) != 1:
        raise ConfigError("export needs exactly one of --cell, --kernel, --kernel2")
    at_f = _parse_rational(args.at_f, "--at-f") if args.at_f else None

    def render(value):
        if at_f is None:
            return value.as_text()
        return str(value.evaluate(at_f))

    if args.cell:
        try:
            g, n = (int(x) for x in args.cell.split(","))
        except ValueError:
            raise ConfigError("bad --cell %r (expected G,N)" % args.cell)
        table, _ = _load_or_compute(args, extra_cells=[(g, n)])
        rows = [(g, " ".join(map(str, key)), render(value))
                for key, value in sorted(table.cell_entries(g, n).items())]
        _rows_to_output(rows, ("g", "b", "value"), args.output, args.out)
        return EXIT_OK

    cells = budget_cells(args.chi_max)
    ws = make_workspace(cells, args.truncation_margin)
    if args.kernel:
        try:
            a, b = (int(x) for x in args.kernel.split(","))
        except ValueError:
            raise ConfigError("bad --kernel %r (expected A,B)" % args.kernel)
        poly = ws.kernel_I(a, b)
        rows = [(e[0], render(c)) for e, c in sorted(poly.terms())]
        _rows_to_output(rows, ("exponent", "value"), args.output, args.out)
        return EXIT_OK

    poly = ws.kernel_II(args.kernel2)
    rows = [(e[0], e[1], render(c)) for e, c in sorted(poly.terms())]
    _rows_to_output(rows, ("exponent_t", "exponent_ti", "value"),
                    args.output, args.out)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        config = _config_argv(args)
        if config:
            # argv[0] is the subcommand; its options follow it
            args = parser.parse_args(argv[:1] + config + argv[1:])
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_export(args)
    except (ConfigError, PoleAtFraming, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except FramedVertexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
