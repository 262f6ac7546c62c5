"""The otrisk benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload eval_csv_1e6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  The run writes the workload's inputs, generated from the seed,
under ``perfbench/work/<workload>/``, then calls ``otrisk.cli.main``
in-process with the argv a user would type, in interleaved passes over
the workload's fixed list of operations until ``--seconds`` are used
(at least three passes).  Every report goes to its own file; after the
timed phase each is read back, parsed strictly and checked against
reference computations made apart from otrisk (see reference.py).

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``: operations in one pass divided by the sum, over the
  operations, of each one's fastest repeat.  Whole-pass wall time follows
  the host's speed from minute to minute; the fastest repeat does not.
* ``peak_rss_mb``: the process's peak resident set after the timed phase.
* ``setup_s``: the fastest ``import otrisk.cli`` in fresh interpreters,
  two started before the first pass and two after each pass; this is
  what a CLI user pays on every invocation.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics that BENCHMARK.json lists (see spans.py), counts from the
first traced pass and self times from the fastest one, plus
``trace.overhead_s``: the traced minus the untraced sum of fastest
repeats.  Spans of the first traced pass and the metrics go to
``perfbench/trace/<workload>-seed<seed>/``.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
check fails, 2 when the program cannot be found or imported.
"""

import os

# pinned before numpy is imported, here and in the setup interpreters
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# so that every operation's fastest repeat is taken over at least three
MIN_PASSES = 3
# fresh-interpreter imports at the start and after every pass; the host's
# speed changes from second to second, so trials spread over the run
SETUP_TRIALS = 2


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def setup_trial() -> float:
    """One cold ``import otrisk.cli`` in a fresh interpreter, in seconds."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import otrisk.cli\n"
        "t = time.perf_counter() - t\n"
        "print(otrisk.cli.__file__)\n"
        "print(repr(t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not lines[0].startswith(SRC + os.sep):
        fail(f"cannot import otrisk.cli from {SRC}: {out.stderr.strip()[-500:]}")
    return float(lines[1])


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "otrisk", "cli.py")):
        fail(f"no otrisk sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import otrisk.cli
    except Exception:
        fail("importing otrisk.cli failed:\n" + traceback.format_exc())
    if not otrisk.cli.__file__.startswith(SRC + os.sep):
        fail(f"otrisk.cli was imported from {otrisk.cli.__file__}, not from {SRC}")
    return otrisk.cli


def strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite number {token} in the report")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=reject)


class Runner:
    """Runs a plan's operations in passes and keeps each repeat's time."""

    def __init__(self, cli, plan, report_dir):
        self.cli = cli
        self.plan = plan
        self.report_dir = report_dir
        self.times = {op.name: [] for op in plan.ops}
        self.traced_times = {op.name: [] for op in plan.ops}
        self.results = []  # (op, report path, exit code or exception text)
        self.passes = 0

    def run_pass(self, tracer=None):
        times = self.traced_times if tracer else self.times
        for op in self.plan.ops:
            out = os.path.join(self.report_dir, f"{op.name}.{self.passes}.json")
            argv = op.argv + ["--out", out]
            gc.collect()
            start = time.perf_counter()
            try:
                if tracer:
                    code = tracer.span("cli.main", self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                code = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            times[op.name].append(time.perf_counter() - start)
            self.results.append((op, out, code))
        self.passes += 1

    def run_timed(self, seconds, make_tracer=None, between=lambda: None):
        """Passes until the next one would overrun ``seconds`` (at least
        MIN_PASSES), calling ``between`` after each.  With make_tracer, odd
        passes are traced."""
        tracers = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            tracer = None
            if make_tracer and self.passes % 2 == 1:
                tracer = make_tracer(record=not tracers)
                tracers.append(tracer)
                tracer.install()
            try:
                self.run_pass(tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            between()
            now = time.perf_counter()
            if self.passes >= MIN_PASSES and now - start + (now - t0) > seconds:
                return tracers


def min_sum(times):
    return sum(min(ts) for ts in times.values())


def check_results(runner):
    """(failed count, problems, parsed reports by path).  An operation fails
    when its command does not exit 0 or its report is an error or an
    unconverged certificate."""
    failed = 0
    problems = []
    reports = {}
    for op, path, code in runner.results:
        try:
            report = strict_json(path)
        except (OSError, ValueError) as exc:
            failed += 1
            problems.append(f"{op.name}: unreadable report ({exc}); exit {code!r}")
            continue
        reports[path] = report
        if code != 0 or "error" in report:
            failed += 1
            problems.append(f"{op.name}: exit {code!r}, {report.get('error')}")
            continue
        if report.get("status", "converged") != "converged":
            failed += 1
        for problem in op.check(report):
            problems.append(f"{op.name}: {problem}")
    problems += runner.plan.final_check()
    return failed, problems, reports


def layer_metrics(runner, tracers, reports):
    first = tracers[0]
    for other in tracers[1:]:
        if other.counts != first.counts:
            print("perfbench: traced passes counted different work", file=sys.stderr)
    values = Counter(first.counts)
    for name in {k for t in tracers for k in t.self_s}:
        values[name + ".self_s"] = min(t.self_s.get(name, 0.0) for t in tracers)
    # solver iterations, from the reports of the first traced pass (pass 1)
    n_ops = len(runner.plan.ops)
    for _, path, _ in runner.results[n_ops : 2 * n_ops]:
        iterations = reports.get(path, {}).get("iterations", {})
        values["dualsolver.frank_wolfe_iters"] += iterations.get("frank_wolfe", 0)
        values["dualsolver.subgradient_iters"] += iterations.get("subgradient", 0)
    values["trace.overhead_s"] = min_sum(runner.traced_times) - min_sum(runner.times)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        layers = json.load(fh)["per_layer"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in layers}


def write_trace(workload, seed, tracers, metrics):
    out_dir = os.path.join(HERE, "trace", f"{workload}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans.jsonl"), "w") as fh:
        for span_id, parent, name, start, end in sorted(tracers[0].spans):
            span = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
            fh.write(json.dumps(span) + "\n")
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1)
    return out_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup_times = [] if args.trace else [setup_trial() for _ in range(SETUP_TRIALS)]
    cli = import_cli()

    workdir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    report_dir = os.path.join(workdir, "reports")
    os.makedirs(report_dir)
    plan = WORKLOADS[args.workload](workdir, args.seed)
    gc.collect()

    runner = Runner(cli, plan, report_dir)
    make_tracer = None
    if args.trace:
        from spans import Tracer

        def make_tracer(record):
            return Tracer(plan.rows, record)

    def more_setup_trials():
        if not args.trace:
            setup_times.extend(setup_trial() for _ in range(SETUP_TRIALS))

    tracers = runner.run_timed(args.seconds, make_tracer, more_setup_trials)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, reports = check_results(runner)
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    attempted = len(runner.results)

    print(f"workload {args.workload}, seed {args.seed}: {runner.passes} passes of {len(plan.ops)} operations")
    for op in plan.ops:
        ts = runner.times[op.name]
        print(f"  {op.name:28s} fastest {min(ts):.4f} s  median {statistics.median(ts):.4f} s  of {len(ts)}")
    passes = [sum(pass_times) for pass_times in zip(*runner.times.values())]
    print(
        f"  whole pass: mean {statistics.mean(passes):.4f} s over {len(passes)}; "
        f"sum of fastest repeats {min_sum(runner.times):.4f} s"
    )
    if args.trace:
        metrics = layer_metrics(runner, tracers, reports)
        print(f"trace written to {write_trace(args.workload, args.seed, tracers, metrics)}")
    else:
        metrics = {
            "ops_per_s": {"value": len(plan.ops) / min_sum(runner.times), "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": min(setup_times), "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {attempted}, failed {failed}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
