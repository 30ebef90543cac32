"""Run one gasloss benchmark workload and print its metrics.

    python3 bench/run.py --workload single_lp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src.
One process, one client, no threads: each job is one in-process call to
gasloss.cli.main([... "--json"]) with stdout captured, and each answer
is checked by check.py after the timed jobs.  With --trace 0 the last
line holds the end-to-end metrics; with --trace 1 every round runs once
untraced and once with spans around the public functions of each
gasloss module, and the last line holds the per-layer metrics.  See
README.md in this directory for the metrics and workloads.
"""

import os
import time

# One client, no threads: BLAS must not start worker threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Stay on one CPU for the whole run, the last one: CPU 0 usually takes
# the interrupts.  Unpinned runs landed on either CPU and their speeds
# differed by 10-25% on a 2-core machine.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# setup_s is the median over several fresh interpreters of the import
# part plus the median over several in-process set-ups of the rest.  The
# machine's speed changes by up to half from one second to the next, so
# the set-ups repeat until they span SETUP_SPAN_S, not just 3 times.
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
SETUP_SPAN_S = 1.5
TAIL_BEYOND = 10     # job_tail_ms has this many jobs above it
EXIT_NUMERICAL = 3   # the CLI's exit code for a refused answer

UNITS = {"setup_s": "s", "answers_per_s": "1/s", "job_p50_ms": "ms",
         "job_tail_ms": "ms", "failed_frac": "ratio",
         "certified_frac": "ratio", "peak_rss_mb": "MB"}
# failed_frac is 0 on two workloads, and a metric compared by its relative
# change must never be 0; its complement certified_frac is reported instead.
REPORTED = ("setup_s", "answers_per_s", "job_p50_ms", "job_tail_ms",
            "certified_frac", "peak_rss_mb")


def import_program():
    """The gasloss modules from ./src of this checkout, by layer name."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gasloss", "cli.py")):
        sys.exit(f"error: no gasloss sources under {src}")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"gasloss.{name}")
               for name in spans.LAYERS}
    if not modules["cli"].__file__.startswith(src + os.sep):
        sys.exit(f"error: gasloss was imported from outside {src}")
    return modules


def import_seconds():
    """Median wall time of a fresh interpreter that imports numpy and every
    gasloss layer, then exits: the import part of setup_s."""
    code = ("import sys; sys.path.insert(0, 'src'); import numpy; "
            + "; ".join(f"import gasloss.{name}" for name in spans.LAYERS))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_job(cli, argv):
    """One timed CLI call: (exit code, seconds, stdout, stderr).  Garbage
    left by earlier jobs is collected first, outside the timed region."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crash is a failed job, not a failed run
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class References:
    """alpha and partition losses for the hist and factorize checks, from
    approx and partition answers that pass their own checks."""

    def __init__(self, cli):
        self.cli = cli
        self.cache = {}

    def _answer(self, argv):
        code, _, out, err = run_job(self.cli, argv + ["--json"])
        if code != 0:
            raise check.CheckFailed(
                f"reference {' '.join(argv[:1] + argv[2:])} exited {code}: "
                f"{err.strip()[-200:]}")
        return json.loads(out)

    def alpha(self, path, inst):
        if path not in self.cache:
            ans = self._answer(["approx", path])
            self.cache[path] = check.check_approx(inst, ans)
        return self.cache[path]

    def partition_loss(self, path, inst, k):
        """A greedy k-partition's loss: alternating factorization starts
        from the optimal partition, whose loss is no larger."""
        k = min(k, len(inst.resources))
        if (path, k) not in self.cache:
            ans = self._answer(["partition", path, "--k", str(k),
                                "--mode", "greedy"])
            self.cache[path, k] = check.check_partition(inst, ans, k)
        return self.cache[path, k]


def verdict(job, code, out, err, refs, instances, may_refuse):
    """(correct, certified, text) for one job's outcome.  A clean refusal
    is a failed job; it is also a wrong one unless may_refuse."""
    if code == EXIT_NUMERICAL and not out.strip():
        lines = err.strip().splitlines()
        return may_refuse, False, f"refused: {lines[-1] if lines else ''}"
    if code != 0:
        return False, False, f"exit {code}: {err.strip()[-200:]}"
    if job.instance not in instances:
        instances[job.instance] = check.Instance.load(job.instance)
    inst = instances[job.instance]
    c = job.check
    try:
        ans = json.loads(out)
        if job.verb == "measure":
            check.check_measure(inst, ans)
        elif job.verb == "approx":
            check.check_approx(inst, ans)
        elif job.verb == "partition":
            check.check_partition(inst, ans, c["k"], c.get("expect"))
        elif job.verb == "factorize":
            check.check_factorize(
                inst, ans, refs.alpha(job.instance, inst),
                refs.partition_loss(job.instance, inst, c["k"]))
        else:
            def mapping(name):
                if name not in c:
                    return None
                with open(c[name], encoding="utf-8") as fh:
                    return json.load(fh)
            check.check_hist(inst, ans, refs.alpha(job.instance, inst),
                             low=mapping("low"), high=mapping("high"),
                             profile=mapping("profile"),
                             full=c.get("full", False))
    except (check.CheckFailed, ArithmeticError, ValueError, KeyError,
            TypeError) as exc:
        return False, False, f"check failed: {type(exc).__name__}: {exc}"
    return True, True, "certified"


def by_round(jobs):
    rounds = {}
    for job in jobs:
        rounds.setdefault(job.round, []).append(job)
    return list(rounds.values())


def run_untraced(cli, jobs):
    """Every job in order; returns results and each round's wall time."""
    results, walls = [], []
    for batch in by_round(jobs):
        start = time.perf_counter()
        for job in batch:
            results.append((job, False) + run_job(cli, job.argv))
        walls.append(time.perf_counter() - start)
    return results, walls


def run_traced(jobs, modules):
    """Each round once untraced and once traced, alternating which goes
    first; returns results, spans and the traced/untraced time ratio - 1."""
    tracer = spans.Tracer([modules[name] for name in spans.LAYERS],
                          time.perf_counter)
    results = []
    wall = {False: 0.0, True: 0.0}
    for round_, batch in enumerate(by_round(jobs)):
        for traced in ((False, True) if round_ % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                for job in batch:
                    tracer.job = job.job_id
                    results.append(
                        (job, traced) + run_job(modules["cli"], job.argv))
                wall[traced] += time.perf_counter() - start
            finally:
                tracer.remove()
    return results, tracer.spans, wall[True] / wall[False] - 1.0


def end_to_end(results, verdicts, walls, setup_s, rss_mb):
    """The end-to-end metrics; answers_per_s is the median over rounds,
    so that one slow job does not decide a whole run."""
    ms = sorted((r[3] * 1e3 for r in results), reverse=True)
    certified = [0] * len(walls)
    for (job, *_), v in zip(results, verdicts):
        certified[job.round] += v[1]
    failed_frac = sum(1 for v in verdicts if not v[1]) / len(ms)
    return {
        "setup_s": setup_s,
        "answers_per_s": statistics.median(
            c / w for c, w in zip(certified, walls)),
        "job_p50_ms": statistics.median(ms),
        "job_tail_ms": ms[min(TAIL_BEYOND, len(ms) - 1)],
        "failed_frac": failed_frac,
        "certified_frac": 1.0 - failed_frac,
        "peak_rss_mb": rss_mb,
    }


def write_results(name, record, span_list):
    outdir = os.path.join(BENCH_DIR, "results")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if span_list:
        with gzip.open(os.path.join(outdir, name + "-spans.jsonl.gz"),
                       "wt", encoding="utf-8") as fh:
            for s in span_list:
                fh.write(json.dumps([s.span_id, s.parent, s.name, s.start,
                                     s.end, s.job, s.ok]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_program()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
           "python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "machine": platform.machine()}
    print("env " + json.dumps(env))

    workdir = os.path.join(BENCH_DIR, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        import_s = import_seconds()
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SPAN_S:
            start = time.perf_counter()
            jobs = workloads.build(args.workload, modules["formats"],
                                   args.seed, rounds, workdir)
            for argv in workloads.warmup_argvs(modules["formats"], workdir):
                run_job(modules["cli"], argv)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        span_list = []
        if args.trace:
            results, span_list, overhead = run_traced(jobs, modules)
        else:
            results, walls = run_untraced(modules["cli"], jobs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        refs = References(modules["cli"])
        instances = {}
        may_refuse = args.workload in workloads.MAY_REFUSE
        verdicts = [verdict(job, code, out, err, refs, instances, may_refuse)
                    for job, _, code, _, out, err in results]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = []
    for (job, traced, code, seconds, _, _), v in zip(results, verdicts):
        mark = " traced" if traced else ""
        print(f"job {job.job_id} round {job.round}{mark}: {job.label()}: "
              f"exit {code}, {seconds * 1e3:.3f} ms, {v[2]}")
        rows.append({"job": job.job_id, "round": job.round, "traced": traced,
                     "verb": job.verb, "size": job.size,
                     "density": job.density, "seed": job.seed,
                     "args": [os.path.basename(a) for a in job.argv[1:]],
                     "exit": code, "ms": seconds * 1e3, "verdict": v[2]})

    failed = sum(1 for v in verdicts if not v[1])
    notes = {}
    if args.trace:
        table = spans.per_function(span_list)
        for name, row in table.items():
            print(f"function {name}: calls {row['calls']}, "
                  f"total {row['total_s']:.6f} s, self {row['self_s']:.6f} s")
        shown = metrics = spans.layer_metrics(span_list, overhead)
        units = {name: spans.unit_of(name) for name in metrics}
    else:
        table = None
        shown = end_to_end(results, verdicts, walls, setup_s, rss_mb)
        metrics = {name: shown[name] for name in REPORTED}
        units = UNITS
        notes = {"job_tail_ms": f" ({TAIL_BEYOND + 1}th slowest of "
                                f"{len(results)} jobs)",
                 "failed_frac": f" ({failed} of {len(results)} jobs)",
                 "certified_frac": f" ({len(results) - failed} of "
                                   f"{len(results)} jobs)"}
    for name, value in shown.items():
        print(f"metric {args.workload} {name} = {value:.6g} {units[name]}"
              f"{notes.get(name, '')}")

    correct = all(v[0] for v in verdicts)
    write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                  {"env": env, "jobs": rows, "metrics": metrics,
                   "functions": table}, span_list)
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
