"""pertkit benchmark: seeded CLI job streams, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-spectral --seed 1 --seconds 25 --trace 0

One client runs the workload's fixed job list in a closed loop, in this
process, through ``pertkit.cli.main`` (plus a few library calls no CLI command
reaches): the next job starts only when the previous one has finished.  Every
job is timed on its own; its output is checked against the CLI's own
residual checks and the bytes of its first run, and after the last timed pass
against the benchmark's oracles.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is the result as one JSON object.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Wall time of one untraced pass on a 2-core Xeon with OpenBLAS, used only to
#: turn ``--seconds`` into a fixed number of passes, so every run of a
#: workload measures the same work.
NOMINAL_PASS_S = {"dense-spectral": 4.2, "time-evolution": 5.7, "diagram-enumeration": 1.2}
MIN_PASSES = 3
SETUP_PROBES = 2  # extra cold set-ups in child processes; the median of all is reported
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_pertkit():
    """Import pertkit from this checkout's ``src``; return the import time."""
    if not os.path.isfile(os.path.join(SRC, "pertkit", "__init__.py")):
        raise ImportError(f"no pertkit sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pertkit  # noqa: F401
    import pertkit.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(pertkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pertkit imported from {pertkit.__file__}, not from {SRC}")
    return elapsed


#: The residual check of ``adiabatic`` that random ramped schedules are known
#: to fail (see NOTES.md): a report whose only failed check is this one is a
#: failed job, but a faithful output.
SLOPE_CHECK = "adiabatic_slope_in_window"


def failed_checks(text):
    """Names of the residual checks that a CSV report marks as failed."""
    lines = text.splitlines()
    if "# residuals" not in lines:
        return set()
    rows = lines[lines.index("# residuals") + 2:]
    return {r.split(",")[0] for r in rows if r.rsplit(",", 1)[-1] == "0"}


class Runner:
    """Runs jobs, keeps their first output and decides which runs failed.

    A run fails when the job raises, exits nonzero (a failed residual check),
    writes other bytes than its first run or, once :meth:`check_oracles` has
    run, disagrees with its oracle.  Every failure except the known adiabatic
    slope-window one also makes the output wrong, and ``correct`` false.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.first = {}  # label -> (job, body, value) of the first run
        self.problems = {}  # label -> set of messages
        self.wrong = set()  # labels with a wrong output

    def _problem(self, label, msg, wrong=True):
        self.problems.setdefault(label, set()).add(msg)
        if wrong:
            self.wrong.add(label)

    def run(self, job, tag):
        """Run ``job`` once; return ``(seconds, ok)``."""
        from pertkit import cli

        out = os.path.join(self.workdir, "out", f"{tag}-{job.label}.csv")
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                code = cli.main(["--out", out] + job.argv)
            else:
                body, value = job.call()
                code = 0
        except Exception as exc:  # a crashing job is a failed job; the run goes on
            elapsed = time.perf_counter() - t0
            self._problem(job.label, f"raised {type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter() - t0
        if job.argv is not None:
            body = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    body = fh.read()
                os.remove(out)
            value = body.decode()
        first = self.first.setdefault(job.label, (job, body, value))
        same = body == first[1]
        if not same:
            self._problem(job.label, "output bytes differ from the first run")
        return elapsed, self._exit_ok(job, code, body) and same

    def _exit_ok(self, job, code, body):
        if job.argv is None or (code == 0 and body):
            return True
        if not body:
            self._problem(job.label, f"exit code {code}, no report written")
            return False
        failed = failed_checks(body.decode())
        known = job.kind == "adiabatic" and failed == {SLOPE_CHECK}
        self._problem(job.label, f"exit code {code}, failed checks: {', '.join(sorted(failed))}", wrong=not known)
        return False

    def check_oracles(self):
        """Run each job's oracle on its first output; return the labels that disagree."""
        bad = set()
        for label, (job, _body, value) in self.first.items():
            msg = job.oracle(value) if job.oracle is not None else None
            if msg:
                bad.add(label)
                self._problem(label, f"oracle: {msg}")
        return bad


def _warmup_jobs(jobs):
    """The lightest job of every kind, in first-seen order."""
    best = {}
    for job in jobs:
        if job.kind not in best or job.weight < best[job.kind].weight:
            best[job.kind] = job
    return list(best.values())


def _warm_up(runner, jobs):
    """Run the lightest job of every kind once, untimed by the metrics; return its seconds."""
    t0 = time.perf_counter()
    for job in _warmup_jobs(jobs):
        runner.run(job, "warmup")
    return time.perf_counter() - t0


def _workdir(args):
    return os.path.join(WORK, f"{args.workload}-s{args.seed}-trace{args.trace}")


def _setup_only(args, import_s):
    """One cold set-up in this fresh process, in a directory of its own."""
    import workloads

    runner = Runner(os.path.join(_workdir(args), f"probe-{os.getpid()}"))
    w = workloads.build(args.workload, args.seed, runner.workdir)
    os.makedirs(os.path.join(runner.workdir, "out"), exist_ok=True)
    setup = import_s + _warm_up(runner, w.jobs)
    shutil.rmtree(runner.workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup}))


def _probe_setup(args):
    """Cold set-up times measured in fresh child processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", str(args.trace), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _passes(runner, jobs, count, tag, runs, tr=None):
    """Run ``count`` passes over ``jobs``; append ``(label, seconds, ok)`` to
    ``runs`` and return the pass wall times."""
    walls = []
    for p in range(count):
        t0 = time.perf_counter()
        for job in jobs:
            if tr is not None:
                tr.job = f"{tag}{p}/{job.label}"
            elapsed, ok = runner.run(job, f"{tag}{p}")
            runs.append((job.label, elapsed, ok))
        walls.append(time.perf_counter() - t0)
    return walls


def tail(samples, beyond=TAIL_BEYOND):
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``; the percentile is the share
    of samples at or below the value.  With ``beyond`` or fewer samples no
    such statistic exists and the minimum is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(0, n - beyond - 1)
    return xs[k], 100.0 * (k + 1) / n, n


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def machine_metadata(seed, input_hash):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
        "input_sha256": input_hash,
    }


def main(argv=None):
    args = _parse_args(argv)
    threads = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    try:
        import_s = _import_pertkit()
    except ImportError as exc:
        print(f"perfbench: cannot import pertkit: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup_only(args, import_s)
        return 0

    import tracer
    import workloads

    workdir = _workdir(args)
    shutil.rmtree(workdir, ignore_errors=True)
    w = workloads.build(args.workload, args.seed, workdir)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    runner = Runner(workdir)
    setups = [import_s + _warm_up(runner, w.jobs)] + _probe_setup(args)

    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)
    meta = machine_metadata(args.seed, w.input_sha256)
    result = {"workload": args.workload, "passes": passes, "jobs_per_pass": len(w.jobs), "machine": meta}
    runs = []
    if args.trace:
        # alternate untraced and traced passes, so a drift in machine speed
        # does not show up as tracing overhead
        tr = tracer.Tracer()
        walls, traced_walls = [], []
        for p in range(passes):
            walls += _passes(runner, w.jobs, 1, f"pass{p}-", runs)
            with tr:
                traced_walls += _passes(runner, w.jobs, 1, f"traced{p}-", runs, tr)
        tr.write(os.path.join(workdir, "spans.csv.gz"))
        layer = tracer.layer_metrics(tr.spans, tr.counts, passes)
        layer["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
    else:
        walls = _passes(runner, w.jobs, passes, "pass", runs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before any oracle
        samples = [t for _, t, _ in runs]
        t_val, t_pct, t_n = tail(samples)
        result["job_tail"] = {"percentile": t_pct, "samples": t_n, "beyond": TAIL_BEYOND}
        metrics = {
            "jobs_per_s": {"value": statistics.median(len(w.jobs) / s for s in walls), "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(samples), "unit": "s"},
            "job_tail_s": {"value": t_val, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    disagree = runner.check_oracles()
    attempted = len(runs)
    failed = sum(1 for label, _, ok in runs if not ok or label in disagree)
    job_times = {}
    for label, t, _ in runs:
        job_times.setdefault(label, []).append(t)
    result.update({
        "pass_walls_s": walls,
        "setup_samples_s": setups,
        "job_times_s": dict(sorted(job_times.items())),
        "failed_ratio": failed / attempted,
        "problems": {label: sorted(msgs) for label, msgs in sorted(runner.problems.items())},
        "metrics": metrics,
    })
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)

    for label, msgs in result["problems"].items():
        print(f"job {label}: {'; '.join(msgs)}")
    print(f"workload {args.workload}: {passes} passes x {len(w.jobs)} jobs, seed {args.seed}")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f} (ratio)")
    if not args.trace:
        print(f"job_tail_s is the p{t_pct:.1f} of {t_n} job times ({TAIL_BEYOND} beyond it)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print("machine: " + json.dumps(meta))
    print(json.dumps({"correct": not runner.wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
