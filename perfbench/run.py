"""Benchmark of the revolutio pipeline through its public entry point.

Run from the repository root:

    python3 perfbench/run.py --workload verdict-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the timed pass (tracing off) and prints the end-to-end
metrics; ``--trace 1`` runs one untraced round and two traced rounds and
prints the per-layer metrics. Both check every output outside the timed
region and print one JSON object as the last line of stdout. Progress and
check failures go to stderr. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from workloads import OUT, WORKLOADS

SETUP_FIRST = 6       # fresh starts measured before the timed pass,
SETUP_PER_ROUND = 3   # after each round, so set-up samples span the run,
SETUP_STARTS = 15     # and after the pass, up to this many in all
SETUP_SNIPPET = "import revolutio.cli as cli; cli.build_parser()"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def fresh_start(src: str) -> float:
    """Seconds from spawning an interpreter to revolutio.cli imported and its parser built."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # starts use bytecode caches, as an installed package does
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def run_block(cli, case):
    """case.reps back-to-back calls of main; (seconds per call, exit code, stdout, failures)."""
    failures = 0
    code, out = None, ""
    sink = io.StringIO()
    times = []
    for _ in range(case.reps):
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                code = cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash of the benchmark
            failures += 1
            code = f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        out = buf.getvalue()
    return times, code, out, failures


class Pass:
    """Rounds over the workload's inputs, with the first round's outputs kept for checking."""

    def __init__(self, cases):
        self.cases = cases
        self.first = None          # per case: (exit code, stdout, failures) of round one
        self.samples = []          # (case index, [seconds of each call in the block])
        self.round_seconds = []
        self.attempted = 0
        self.failed = 0
        self.mismatch = []         # cases whose output changed between rounds

    def round(self, cli, tracer=None):
        results = []
        total = 0.0
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.input_id = i  # spans of one input share its index
            times, code, out, failures = run_block(cli, case)
            total += sum(times)
            self.attempted += case.reps
            self.failed += failures
            if not failures:
                self.samples.append((i, times))
            results.append((code, out, failures))
        if self.first is None:
            self.first = results
        else:
            self.mismatch += [self.cases[i].label for i, (a, b) in enumerate(zip(self.first, results))
                              if a[:2] != b[:2]]
        self.round_seconds.append(total)
        return total


def check_outputs(cases, first, seed) -> list:
    """Independent checks of round one; a list of (label, problem)."""
    import checks  # sympy is imported only after the timed pass

    rng = random.Random(seed * 7919 + 17)
    problems = []
    for case, (code, out, failures) in zip(cases, first):
        if failures:
            continue
        try:
            checks.check_case(case, code, out, rng)
        except checks.Mismatch as exc:
            problems.append((case.label, str(exc)))
        except Exception as exc:  # a malformed output must not crash the checker
            problems.append((case.label, f"{type(exc).__name__}: {exc}"))
    return problems


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


def timed_run(cases, seconds, src):
    starts = [fresh_start(src) for _ in range(1 + SETUP_FIRST)][1:]  # the first writes bytecode caches
    import revolutio.cli as cli

    p = Pass(cases)
    t0 = perf_counter()
    while True:
        p.round(cli)
        log(f"round {len(p.round_seconds)}: {p.round_seconds[-1]:.2f} s")
        starts += [fresh_start(src) for _ in range(SETUP_PER_ROUND)]
        if perf_counter() - t0 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    starts += [fresh_start(src) for _ in range(SETUP_STARTS - len(starts))]

    # each input's time is the median of all its calls in the run
    calls = {}
    for i, t in p.samples:
        calls.setdefault(i, []).extend(t)
    per_input = [statistics.median(t) for t in calls.values()]
    mesh = [i for i in calls if cases[i].argv[0] == "mesh" and cases[i].expect["exit"] == 0]
    completed = p.attempted - p.failed
    metrics = {
        "setup_s": (statistics.median(starts), "s"),
        "inputs_per_s": (completed / sum(p.round_seconds), "1/s"),
        "input_s.p50": (statistics.median(per_input), "s"),
        "input_s.tail": (tail(per_input), "s"),
        "vertices_per_s": (sum(cases[i].expect["grid"] ** 2 * len(calls[i]) for i in mesh)
                           / sum(sum(calls[i]) for i in mesh), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rounds": p.round_seconds, "samples": p.samples, "setup_starts": starts}
    return p, metrics, detail


def traced_run(cases, seed, workload):
    import revolutio.cli as cli
    from tracing import EXPECTED_NONZERO, STAGE_NAMES, Tracer

    p = Pass(cases)
    untraced = p.round(cli)
    tracer = Tracer()
    tracer.install()
    layers = []
    traced = []
    try:
        for _ in range(2):
            tracer.reset()
            traced.append(p.round(cli, tracer))
            layers.append(tracer.layer_metrics())
            if len(layers) == 1:
                tracer.write(OUT / f"trace-{workload}-seed{seed}.json", [c.label for c in cases])
    finally:
        tracer.uninstall()
    first, second = layers
    calls_mismatch = [n for n in first if first[n]["calls"] != second[n]["calls"]]
    missing = [n for n in EXPECTED_NONZERO[workload] if first.get(n, {}).get("calls", 0) == 0]
    missing += [n for n in tracer.missing if n not in missing]
    for n in calls_mismatch:
        log(f"trace: {n}.calls differs between traced rounds: {first[n]['calls']} vs {second[n]['calls']}")
    for n in missing:
        log(f"trace: {n} was expected to be called on {workload} but was not")
    main_s = first["cli.main"]["s"]
    metrics = {}
    for name, m in first.items():
        metrics[f"{name}.calls"] = (m["calls"], "count")
        if "s" in m:
            metrics[f"{name}.s"] = (m["s"], "s")
        if name in STAGE_NAMES:
            metrics[f"{name}.self_s"] = (m["self_s"], "s")
    metrics["trace.overhead_share"] = (min(traced) / untraced - 1, "share")
    metrics["trace.coverage_share"] = (1 - first["cli.main"]["self_s"] / main_s if main_s else 0.0, "share")
    metrics["trace.missing_layers"] = (len(missing), "count")
    metrics["trace.calls_mismatch"] = (len(calls_mismatch), "count")
    detail = {"rounds": p.round_seconds, "untraced_s": untraced, "traced_s": traced}
    return p, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "revolutio", "cli.py")):
        log("perfbench: run from the repository root; src/revolutio is missing here")
        return 2
    sys.path.insert(0, src)
    OUT.mkdir(exist_ok=True)

    cases = workloads.build(args.workload, args.seed)
    log(f"{args.workload}: {len(cases)} inputs, seed {args.seed}")
    if args.trace:
        p, metrics, detail = traced_run(cases, args.seed, args.workload)
    else:
        p, metrics, detail = timed_run(cases, args.seconds, src)

    problems = check_outputs(cases, p.first, args.seed)
    problems += [(label, "output changed between rounds") for label in p.mismatch]
    for label, msg in problems:
        log(f"CHECK FAILED {label}: {msg}")
    for case, (code, _, failures) in zip(cases, p.first):
        if failures:
            log(f"FAILED {case.label}: {code}")

    result = {
        "correct": not problems,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(result)
    mode = "trace" if args.trace else "timed"
    with open(OUT / f"result-{args.workload}-seed{args.seed}-{mode}.json", "w") as fh:
        json.dump(detail, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
