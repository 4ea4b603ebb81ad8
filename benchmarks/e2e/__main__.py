"""Command line of the end-to-end benchmark (see ``README.md``).

``run`` starts one fresh child process per workload.  The child's temp
directory is its cwd, ``HOME``, ``TMPDIR`` and ``XDG_CACHE_HOME``, and
it runs with ``PYTHONHASHSEED=0``, so nothing persists from one run to
the next.  ``run`` prints every metric by name with its unit, then, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; it exits 1 when any output was wrong or the
run was invalid, 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2e_work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: A child still running after this long is killed (with its children).
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 2.0


def load_spec() -> Dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_child(workload: str, args, seconds: float) -> Dict:
    """Run one workload in a fresh child; returns its result, with
    ``correct`` false and a note when the child failed outright."""
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
    out = os.path.join(workdir, "result.json")
    trace_out = os.path.join(WORK, "trace-%s-seed%d.json" % (
        workload, args.seed))
    env = dict(
        os.environ,
        HOME=workdir, TMPDIR=workdir, XDG_CACHE_HOME=workdir,
        PYTHONHASHSEED="0", PYTHONPATH=ROOT + os.pathsep + SRC,
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--out", out, "--trace-out", trace_out,
        "--expected", args.expected,
    ] + (["--quick"] if args.quick else [])
    process = subprocess.Popen(
        command, cwd=workdir, env=env, stdout=sys.stderr,
        stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        status = process.wait(timeout=CHILD_TIMEOUT_S)
        if status == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                result = json.load(handle)
        else:
            result = {"notes": ["child exited with status %d" % status]}
    except subprocess.TimeoutExpired:
        result = {"notes": ["child timed out after %ds" % CHILD_TIMEOUT_S]}
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and os.path.exists(trace_out):
        result["trace_file"] = os.path.relpath(trace_out, ROOT)
    return result


def finish(result: Dict, spec: Dict, trace: bool) -> Dict:
    """Attach units; decide ``correct``.  A layer that did no work on
    this workload reports 0 for its per-layer metrics."""
    notes: List[str] = list(result.get("notes", ()))
    values = result.get("metrics")
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = (values or {}).get(metric["name"])
        if value is None and trace and values is not None:
            value = 0.0
        if value is None:
            notes.append("missing metric %s" % metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if result.get("invalid"):
        notes.append("invalid run: %s" % result["invalid"])
    attempted = max(1, int(result.get("attempted", 0)))
    failed = int(result.get("failed", attempted if values is None else 0))
    out = {
        "correct": values is not None and failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }
    for key in ("passes", "shares", "trace_file"):
        if key in result:
            out[key] = result[key]
    return out


def print_result(workload: str, result: Dict, args, seconds: float) -> None:
    print("%s  (seed %d, %g s, trace %s%s)" % (
        workload, args.seed, seconds, "on" if args.trace else "off",
        ", %d timed passes" % result["passes"] if "passes" in result else "",
    ))
    for name, entry in result["metrics"].items():
        print("  %-34s %14.4f %s" % (name, entry["value"], entry["unit"]))
    print("  %-34s %14s" % (
        "fail_ratio", "%d/%d" % (result["failed"], result["attempted"])))
    for layer, share in sorted(result.get("shares", {}).items()):
        print("  share of a pass: %-17s %13.1f %%" % (layer, 100 * share))
    if "trace_file" in result:
        print("  trace written to %s" % result["trace_file"])
    for note in result["notes"][:20]:
        print("  ! %s" % note)
    print("  correct: %s" % ("yes" if result["correct"] else "NO"))


def cmd_run(args) -> int:
    spec = load_spec()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("benchmarks.e2e: the program's source (src/repro) is missing",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            print("benchmarks.e2e: unknown workload %r (known: %s)"
                  % (args.workload, ", ".join(names)), file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    os.makedirs(WORK, exist_ok=True)
    results = {}
    for name in names:
        results[name] = finish(run_child(name, args, seconds), spec,
                               bool(args.trace))
        print_result(name, results[name], args, seconds)
    if args.json:
        document = {
            "schema": "repro-e2e/1",
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "workloads": results,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {
            "%s.%s" % (workload, name): entry
            for workload, result in results.items()
            for name, entry in result["metrics"].items()
        }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def cmd_child(args) -> int:
    # SIGTERM unwinds through the workload's finally blocks, which stop
    # the gateways it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from benchmarks.e2e import analyze, serve
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS, load_expected

    shape = WORKLOADS[args.workload]
    if args.quick:
        shape = shape.quick()
    tracer = Tracer(bool(args.trace))
    expected = load_expected(args.expected)
    if shape.path == "serve":
        result = serve.run(shape, args.seed, args.seconds, tracer,
                           expected, os.getcwd())
    else:
        result = analyze.run(args.workload, shape, args.seed, args.seconds,
                             tracer, expected)
    if tracer.enabled:
        tracer.write(args.trace_out, workload=args.workload, seed=args.seed,
                     shares=result.get("shares"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload (default: the"
                     " run_seconds of BENCHMARK.json; 2 with --quick)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="the traced run: per-layer metrics")
    run.add_argument("--json", metavar="OUT", help="write the run document")
    run.add_argument("--quick", action="store_true",
                     help="scale-1 programs (a self-test shape)")
    run.add_argument("--expected", default=EXPECTED_PATH,
                     help="the correctness oracle (default: expected.json)")

    compare = commands.add_parser(
        "compare", help="verdicts of B against A per workload and metric")
    compare.add_argument("base", metavar="A.json[,A2.json...]")
    compare.add_argument("new", metavar="B.json[,B2.json...]")

    commands.add_parser("pin", help="rebuild expected.json")

    child = commands.add_parser("child")
    for flag in ("--workload", "--out", "--trace-out", "--expected"):
        child.add_argument(flag, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, required=True)
    child.add_argument("--quick", action="store_true")

    commands.add_parser("probe").add_argument("--workload", required=True)
    commands.add_parser("reference").add_argument(
        "--path", required=True, choices=("worklist", "kernel"))

    args = parser.parse_args(argv)
    if args.command == "run":
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        return cmd_run(args)
    if args.command == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(args.base, args.new, load_spec())
    # The remaining commands import the program.
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.command == "probe":
        from benchmarks.e2e.analyze import probe  # the import is timed

        probe(args.workload)
        return 0
    if args.command == "reference":
        from benchmarks.e2e.analyze import reference

        reference(args.path)
        return 0
    if args.command == "pin":
        from benchmarks.e2e.analyze import pin

        return pin(EXPECTED_PATH)
    return cmd_child(args)


if __name__ == "__main__":
    sys.exit(main())
