"""Compare the output bytes of every benchmark job between two ``src`` trees.

Usage (from the repository root)::

    python3 tests/compare_reports.py OLD_SRC NEW_SRC --seeds 11 77

For each workload and seed the inputs are written once, into one directory,
by ``perfbench/workloads.py``, which is imported read-only: bytecode caching
is off, so nothing under ``perfbench/`` is written.  Each job then runs once
against each tree, in one child process per tree and workload, from that
directory: a CLI job through ``pertkit.cli.main`` (its report bytes and exit
code) and a library call through its own call (its body bytes).  The script
prints, per workload and seed, the jobs whose bytes, exit code or raised
error differ, with each differing line's differing fields (a CSV field by
index and column name), and exits 1 when any job differs.  pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def _import_workloads():
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    import workloads

    return workloads


def _run_jobs(src: str, workload: str, seed: int, input_dir: str, result: str) -> None:
    """Child: run every job of ``workload`` against ``src`` and pickle
    ``{label: (exit code or error, body bytes)}`` to ``result``."""
    sys.path.insert(0, src)
    from pertkit import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"pertkit imported from {cli.__file__}, not from {src}")
    workloads = _import_workloads()
    outputs = {}
    with tempfile.TemporaryDirectory() as scratch:
        # the jobs (library calls hold their matrices) are rebuilt from the seed; the
        # CLI arguments are pointed at the shared inputs, checked to be the same bytes
        built = workloads.build(workload, seed, os.path.join(scratch, "inputs"))
        with open(os.path.join(input_dir, "input_sha256")) as fh:
            if fh.read() != built.input_sha256:
                raise RuntimeError(f"{workload} seed {seed}: rebuilt inputs differ from {input_dir}")
        prefix = os.path.join(scratch, "inputs") + os.sep
        out = os.path.join(scratch, "report.csv")
        for job in built.jobs:
            try:
                if job.argv is not None:
                    argv = [input_dir + os.sep + a[len(prefix):] if a.startswith(prefix) else a for a in job.argv]
                    code = cli.main(["--out", out] + argv)
                    body = b""
                    if os.path.exists(out):
                        with open(out, "rb") as fh:
                            body = fh.read()
                        os.remove(out)
                else:
                    body, _ = job.call()
                    code = 0
            except Exception as exc:  # recorded and compared, like an exit code
                code, body = f"raised {type(exc).__name__}: {exc}", b""
            outputs[job.label] = (code, body)
    with open(result, "wb") as fh:
        pickle.dump(outputs, fh)


def _differences(a: bytes, b: bytes) -> str:
    """Every differing line, by number, with its differing fields: the
    space-separated fields of a ``#`` line, and the comma-separated fields of
    any other line, each by its index and the column name of its section's
    header row (the first line of the body or after a ``#`` line)."""
    old, new = a.splitlines(), b.splitlines()
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} lines"
    lines, header, opens_section = [], [], True
    for k, (x, y) in enumerate(zip(old, new)):
        comment = x.startswith(b"#")
        if not comment and opens_section:
            header = x.split(b",")
        opens_section = comment
        if x != y:
            fx, fy = (x.split(b" "), y.split(b" ")) if comment else (x.split(b","), y.split(b","))
            if len(fx) != len(fy):
                pairs = [("", x, y)]
            elif comment:
                pairs = [("", f, g) for f, g in zip(fx, fy) if f != g]
            else:
                pairs = [(f"[{i}{' ' + header[i].decode(errors='replace') if i < len(header) else ''}] ", f, g)
                         for i, (f, g) in enumerate(zip(fx, fy)) if f != g]
            lines.append(f"line {k + 1}: " + "; ".join(f"{n}{f[:120]!r} -> {g[:120]!r}" for n, f, g in pairs))
    return "\n    ".join(lines)


def compare(old_src: str, new_src: str, workload: str, seed: int, workdir: str) -> list:
    """The labels and descriptions of the jobs of one workload and seed whose outputs differ."""
    input_dir = os.path.join(workdir, f"{workload}-s{seed}")
    built = _import_workloads().build(workload, seed, input_dir)
    with open(os.path.join(input_dir, "input_sha256"), "w") as fh:
        fh.write(built.input_sha256)
    results = []
    for tag, src in (("old", old_src), ("new", new_src)):
        result = os.path.join(workdir, f"{workload}-s{seed}-{tag}.pickle")
        subprocess.run([sys.executable, __file__, "--child", src, workload, str(seed), input_dir, result],
                       check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        with open(result, "rb") as fh:
            results.append(pickle.load(fh))
    old, new = results
    differ = []
    for label in sorted(old.keys() | new.keys()):
        (old_code, old_body), (new_code, new_body) = old.get(label, (None, b"")), new.get(label, (None, b""))
        if old_code != new_code:
            differ.append((label, f"exit {old_code!r} -> {new_code!r}"))
        elif old_body != new_body:
            differ.append((label, _differences(old_body, new_body)))
    print(f"{workload} seed {seed}: {len(old)} jobs, {len(differ)} differ", flush=True)
    for label, what in differ:
        print(f"  {label}: {what}", flush=True)
    return differ


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        src, workload, seed, input_dir, result = sys.argv[2:]
        _run_jobs(os.path.abspath(src), workload, int(seed), input_dir, result)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", help="the src directory of the reference tree")
    ap.add_argument("new_src", help="the src directory of the tree under comparison")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 77])
    ap.add_argument("--workloads", nargs="+", default=None, help="default: every workload")
    ap.add_argument("--workdir", default=None, help="where inputs and results go (default: a temporary directory)")
    args = ap.parse_args(argv)
    names = args.workloads or list(_import_workloads().WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or tmp
        any_differ = False
        for name in names:
            for seed in args.seeds:
                any_differ |= bool(compare(os.path.abspath(args.old_src), os.path.abspath(args.new_src),
                                           name, seed, workdir))
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
