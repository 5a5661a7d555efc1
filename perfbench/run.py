"""Benchmark of the framedvertex command line, cold, one fresh process per run.

    python3 perfbench/run.py --workload build-chi5 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src``
and writes only under ``.bench_work``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Workloads (closed loop: one client, one command at a time, serial, so
never more than one child process alive):

  build-chi5       ``compute --chi-max 5`` on an empty cache
  verify-chi4      ``verify --suite cutjoin --chi-max 4`` on a cache
                   holding the reference chi <= 4 table
  crosscheck-chi4  ``verify --suite kernels --chi-max 4`` on the same cache

Every command gets ``--seed SEED``; only the kernels suite reads it (it
picks the randomised pair-symmetry samples).  Children run with
``PYTHONHASHSEED=0``, so every repetition does the same work.

Each repetition is a new interpreter against a new cache directory.  The
curve series, the kernel caches and the psi oracle are process-wide, so an
in-process loop would time warm caches, which users, who start one
process per command, never get.  The set-ups and repetitions run until
the next repetition would end after ``--seconds`` (at least one).  Each
repetition is checked against the
reference outputs under ``reference/``: exit code 0, no ``FAIL`` line,
the sha256 of ``brackets.json``, and for the verify suites the exact
PASS lines and ``report_<suite>.json``.  A repetition that fails a check
counts in ``failed`` and is left out of the timings; when none passes,
the metrics timed on repetitions are left out of the result.

Metric names and units are those of ``BENCHMARK.json``.  With
``--trace 0`` the metrics are end to end, medians over the repetitions:

  wall_s       wall time of the command in its fresh process, table load
               and write included
  setup_s      median of 48 set-ups (about 3.5 s): a fresh cache
               directory (holding the reference table for the verify
               workloads) and a fresh interpreter importing framedvertex
  peak_rss_mb  peak resident memory of the command's process, read per
               child with os.wait4

With ``--trace 1`` the same repetitions run untraced, then one more runs
under ``tracer.py``; the metrics are the per-layer ones, taken from that
run if it passes its checks, and ``trace.overhead_s`` (traced wall time
minus the untraced median).  The spans of the traced run go to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict, namedtuple
from pathlib import Path
from time import perf_counter

from tracer import WORKSPACE_MISS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"
PREFILL_TABLE = REFERENCE / "brackets_chi4.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]

# one set-up takes about 70 ms; the median of 15 spread by a third of
# itself over ten runs
SETUP_SAMPLES = 48
# a run must end within 180 s; children still alive at this point are
# killed and count as failed
RUN_LIMIT_S = 165.0

Workload = namedtuple("Workload", "argv prefill suite table")

WORKLOADS = {
    "build-chi5": Workload(["compute", "--chi-max", "5"], False, None, "chi5"),
    "verify-chi4": Workload(["verify", "--suite", "cutjoin", "--chi-max", "4"],
                            True, "cutjoin", "chi4"),
    "crosscheck-chi4": Workload(
        ["verify", "--suite", "kernels", "--chi-max", "4"],
        True, "kernels", "chi4"),
}

B, V, C = "build-chi5", "verify-chi4", "crosscheck-chi4"
ALL = (B, V, C)

# per-layer metric -> (workloads where it must be nonzero, where exactly 0).
# "_s" is self time: span time not covered by child spans.  Q(f)
# arithmetic is not a span, so its time stays in the caller's self time
# and ratfunc.self_s overlaps it.  ".max_s" is the longest single call.
Layer = namedtuple("Layer", "fires zero")
PER_LAYER = {
    "curve.build_s": Layer((B, C), (V,)),
    "curve.t_power.calls": Layer((B, C), (V,)),
    "curvefun.eta_family_s": Layer((B,), (V,)),
    "curvefun.phi_tower_s": Layer((B,), ()),
    "curvefun.plus_part_s": Layer((B,), (V,)),
    "curvefun.plus_part.calls": Layer((B,), (V,)),
    "curvefun.phi_prime_decompose_s": Layer((B,), (V, C)),
    "curvefun.phi_prime_decompose_pair_s": Layer((B,), (V, C)),
    "curvefun.euler_field_s": Layer((V,), ()),
    "curvefun.euler_field.calls": Layer((V,), ()),
    "vseries.mul.calls": Layer((B,), (V,)),
    "vseries.reciprocal.calls": Layer((B,), (V,)),
    "vseries.compose_polynomial_s": Layer((B,), (V,)),
    "vseries.compose_polynomial.calls": Layer((B,), (V,)),
    "kernels.kernel_I_s": Layer((B,), (V,)),
    "kernels.kernel_I.calls": Layer((B,), (V,)),
    "kernels.kernel_II_s": Layer((B,), (V,)),
    "kernels.kernel_II.calls": Layer((B,), (V,)),
    "kernels.kernel_II.max_s": Layer((B,), (V,)),
    "kernels.kernel_I_via_involution_s": Layer((C,), (B, V)),
    "kernels.kernel_II_symmetrized_s": Layer((C,), (B, V)),
    # share of workspace kernel/decompose calls answered from its cache;
    # the base is kernels.workspace.calls
    "kernels.workspace_hit_ratio": Layer((B,), (V,)),
    "kernels.workspace.calls": Layer((B, C), (V,)),
    "engine.recursion_step_s": Layer((B,), (V, C)),
    "engine.recursion_step.calls": Layer((B,), (V, C)),
    "engine.recursion_step.max_s": Layer((B,), (V, C)),
    "engine.from_json_s": Layer((V, C), (B,)),
    "engine.to_json_s": Layer(ALL, ()),
    "engine.assemble_H_s": Layer((V,), (B, C)),
    "engine.assemble_H.terms": Layer((V,), (B, C)),
    "cutjoin.lhs_s": Layer((V,), (B, C)),
    "cutjoin.t1_s": Layer((V,), (B, C)),
    "cutjoin.t2_t3_s": Layer((V,), (B, C)),
    "cutjoin.t4_s": Layer((V,), (B, C)),
    "cutjoin.cell_max_s": Layer((V,), (B, C)),
    "cutjoin.residual_terms": Layer((), ALL),
    "tpoly.mul.calls": Layer((V,), ()),
    "tpoly.embed.calls": Layer((V,), (B, C)),
    "tpoly.exact_divide_difference_s": Layer((V,), (B, C)),
    "tpoly.exact_divide_difference.calls": Layer((V,), (B, C)),
    "ratfunc.add.calls": Layer(ALL, ()),
    "ratfunc.mul.calls": Layer(ALL, ()),
    "ratfunc.div.calls": Layer((B, C), ()),
    "ratfunc.derivative.calls": Layer((V,), (B, C)),
    "ratfunc.self_s": Layer(ALL, ()),
    "ratfunc.max_degree": Layer(ALL, ()),
    "ratfunc.max_bits": Layer(ALL, ()),
    "trace.overhead_s": Layer((), ()),
}

EXPECTED = json.loads((REFERENCE / "expected.json").read_text())

Rep = namedtuple("Rep", "wall_s rss_mb problems")


# -- children -----------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("FRAMEDVERTEX_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, env, stdout_path, deadline):
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The wall time runs from just before the spawn to the reap.  A child
    still running at ``deadline`` (a perf_counter value) is killed.
    """
    with open(stdout_path, "w") as out:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def prepare_cache(workload, path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    if WORKLOADS[workload].prefill:
        shutil.copyfile(PREFILL_TABLE, path / "brackets.json")


def setup_once(workload, path, deadline):
    start = perf_counter()
    prepare_cache(workload, path)
    code, _, _ = run_child([sys.executable, "-c", "import framedvertex"],
                           child_env(), path.with_suffix(".out"), deadline)
    elapsed = perf_counter() - start
    if code != 0:
        raise SystemExit("perfbench: cannot import framedvertex from %s:\n%s"
                         % (SRC, path.with_suffix(".out").read_text()))
    return elapsed


# -- reference outputs ----------------------------------------------------------

def expected_rows(suite, seed):
    if suite == "cutjoin":
        return EXPECTED["cutjoin_rows"]
    # the kernels suite adds two pair-symmetry samples drawn from the seed
    rows = list(EXPECTED["kernels_rows"])
    top = EXPECTED["kernels_pair_budget"]
    rng = random.Random(seed)
    for _ in range(2):
        a = rng.randint(0, top)
        b = rng.randint(0, top - a) if top > a else 0
        rows.append({"a": a, "b": b, "kernel": "pair-symmetry-sample",
                     "passed": True})
    return rows


def check_outputs(workload, seed, cache, code, stdout):
    """Everything that differs from the reference, as a list of strings."""
    w = WORKLOADS[workload]
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    lines = stdout.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        problems.append("FAIL line on stdout")
    table = cache / "brackets.json"
    digest = (hashlib.sha256(table.read_bytes()).hexdigest()
              if table.exists() else None)
    if digest != EXPECTED["brackets_sha256"][w.table]:
        problems.append("brackets.json sha256 %s" % digest)
    if w.suite:
        rows = expected_rows(w.suite, seed)
        want = ["PASS %s %s" % (w.suite, json.dumps(r, sort_keys=True))
                for r in rows]
        got = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        if got != want:
            problems.append("verdict lines differ from the reference")
        report = cache / ("report_%s.json" % w.suite)
        want_report = json.dumps({w.suite: rows}, sort_keys=True,
                                 separators=(",", ": "), indent=1) + "\n"
        if not report.exists() or report.read_text() != want_report:
            problems.append("%s differs from the reference" % report.name)
    return problems


# -- repetitions ------------------------------------------------------------------

def repetition(workload, seed, rep_dir, deadline, trace_out=None):
    cache = rep_dir / "cache"
    prepare_cache(workload, cache)
    args = WORKLOADS[workload].argv + ["--cache", str(cache),
                                       "--seed", str(seed)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "framedvertex.cli"] + args
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out),
               str(cache / "brackets.json"), "--"] + args
    stdout_path = rep_dir / "stdout.txt"
    code, wall, rss = run_child(cmd, child_env(), stdout_path, deadline)
    problems = check_outputs(workload, seed, cache, code,
                             stdout_path.read_text())
    return Rep(wall, rss, problems)


def layer_metrics(dump):
    """Per-layer metrics from one traced run's spans and counters."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    child_names = defaultdict(set)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
            child_names[parent].add(name)
    values = Counter()
    longest = Counter()
    hits = calls = 0
    for i, (name, start, end, _) in enumerate(spans):
        values[name + "_s"] += end - start - covered[i]
        values[name + ".calls"] += 1
        longest[name] = max(longest[name], end - start)
        if name.startswith("kernels.workspace."):
            calls += 1
            miss = WORKSPACE_MISS[name[len("kernels.workspace."):]]
            hits += miss not in child_names[i]
    for name, n in dump["counts"].items():
        values[name + ".calls"] += n
    values.update(dump["totals"])
    values["kernels.kernel_II.max_s"] = longest["kernels.kernel_II"]
    values["engine.recursion_step.max_s"] = longest["engine.recursion_step"]
    values["cutjoin.cell_max_s"] = longest["cutjoin.cell"]
    values["kernels.workspace.calls"] = calls
    values["kernels.workspace_hit_ratio"] = hits / calls if calls else 0.0
    values["ratfunc.self_s"] = dump["ratfunc_s"]
    table = dump["table"] or {}
    values["ratfunc.max_degree"] = table.get("max_degree", 0)
    values["ratfunc.max_bits"] = table.get("max_bits", 0)
    return {name: values[name] for name in LAYER_NAMES}


def traced_repetition(workload, seed, rep_dir, deadline):
    """One traced repetition: (Rep, per-layer metrics, raw trace dump)."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    trace_out = rep_dir / "trace.json"
    rep = repetition(workload, seed, rep_dir, deadline, trace_out)
    if not trace_out.exists():
        problems = rep.problems + ["no trace written"]
        return rep._replace(problems=problems), None, None
    dump = json.loads(trace_out.read_text())
    return rep, layer_metrics(dump), dump


def measure(workload, seed, seconds, trace, work):
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [setup_once(workload, work / ("setup%d" % i), deadline)
              for i in range(SETUP_SAMPLES)]
    reps = []
    while True:
        rep_dir = work / ("rep%d" % len(reps))
        rep_dir.mkdir()
        reps.append(repetition(workload, seed, rep_dir, deadline))
        typical = statistics.median(r.wall_s for r in reps)
        if perf_counter() - start + typical > seconds:
            break
    attempted = list(reps)
    if trace:
        traced, layers, dump = traced_repetition(workload, seed,
                                                 work / "traced", deadline)
        attempted.append(traced)
        if dump is not None:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / ("%s-seed%d.json" % (workload, seed))).write_text(
                json.dumps(dump))
    failed = sum(1 for r in attempted if r.problems)
    for i, r in enumerate(attempted):
        print("rep %d: wall %.3f s, rss %.1f MB%s"
              % (i, r.wall_s, r.rss_mb,
                 "; FAILED: " + "; ".join(r.problems) if r.problems else ""))
    good = [r for r in reps if not r.problems]
    samples = {"setup_s": setups}
    if good:
        samples["wall_s"] = [r.wall_s for r in good]
        samples["peak_rss_mb"] = [r.rss_mb for r in good]
    for name, vals in samples.items():
        print("%s: median %.4f over %d samples (min %.4f, max %.4f)"
              % (name, statistics.median(vals), len(vals), min(vals),
                 max(vals)))
    if trace:
        values = {} if traced.problems else dict(layers)
        values.pop("trace.overhead_s", None)
        if values and good:
            untraced = statistics.median(samples["wall_s"])
            values["trace.overhead_s"] = traced.wall_s - untraced
        names = LAYER_NAMES
    else:
        values = {name: statistics.median(vals)
                  for name, vals in samples.items()}
        names = END_TO_END
    metrics = {name: {"value": values[name], "unit": UNITS[name]}
               for name in names if name in values}
    return {"correct": failed == 0, "attempted": len(attempted),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "framedvertex" / "cli.py").is_file():
        raise SystemExit("perfbench: no framedvertex sources under %s" % SRC)
    # compile once up front so no timed child pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "framedvertex")], check=True,
                   stdout=subprocess.DEVNULL)
    work = WORK / ("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
