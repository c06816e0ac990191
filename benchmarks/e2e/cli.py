"""Command line of the benchmark.

Three forms::

    run.py --workload W --seed N --seconds S --trace 0|1      # one run; what BENCHMARK.json's command gets
    run.py run [--seed N] [--out results.json] [--smoke]      # all six, untraced then traced
    run.py compare BASE.json CHANGE.json                       # or --base ... --change ...

Every measurement happens in a fresh child process (clean RSS, cold
caches); this process only starts it, waits for it and whatever it left
running, and prints.  Nothing heavy is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(workload["name"] for workload in SPEC["workloads"])
#: The contract gives one run 180 s; the child is stopped short of that
#: so this process can still report the failure itself.
CHILD_TIMEOUT_S = 170.0


def _one_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: every code path, none of the cost")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for span files and scratch data")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


def _end_process_group(pgid: int, grace_s: float = 3.0) -> None:
    """Stop whatever the child left behind (a pool's fork server, its
    resource tracker) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        time.sleep(0.02)
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def measure_in_child(name: str, seed: int, seconds: float, trace: int,
                     smoke: bool, out: Path) -> dict:
    """Run one workload in a process of its own; its record, or raise."""
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
    if smoke:
        command.append("--smoke")
    # One thread per process: the harness itself runs at most nproc busy
    # threads or workers, and BLAS must not add its own on top.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S:g} s")
    finally:
        _end_process_group(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"{name}: measuring process exited with "
                           f"{child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def print_metrics(record: dict) -> None:
    mode = "per-layer, traced" if record["trace"] else "end-to-end, untraced"
    print(f"== {record['workload']} seed={record['seed']} ({mode}; "
          f"{record['elapsed_s']:.1f} s) ==")
    for name, metric in record["metrics"].items():
        extra = ""
        if "n" in metric:
            extra = f"  n={metric['n']}"
        if metric.get("note"):
            extra += f"  [{metric['note']}]"
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{extra}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['check']}: {check['detail']}")


def cmd_one(argv) -> int:
    args = _one_parser().parse_args(argv)
    if args.child:
        from .measure import run_child
        record = run_child(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke, args.out)
        print(json.dumps(record))
        return 0
    record = measure_in_child(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke, args.out)
    print_metrics(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()}}))
    return 0


def cmd_run(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds (1 with --smoke)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT / "results.json")
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="only these (repeatable); default all six")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(SPEC["run_seconds"]))
    out_dir = args.out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    records, begin = [], time.perf_counter()
    for name in args.workload or NAMES:
        for trace in (0, 1):
            record = measure_in_child(name, args.seed, seconds, trace,
                                      args.smoke, out_dir)
            print_metrics(record)
            records.append(record)
    correct = all(record["correct"] for record in records)
    args.out.write_text(json.dumps({
        "header": records[0]["header"], "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "correct": correct, "runs": records}, indent=1))
    print(f"{len(records)} runs in {time.perf_counter() - begin:.0f} s; "
          f"correct={correct}; results in {args.out}")
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["run"]:
            return cmd_run(argv[1:])
        if argv[:1] == ["compare"]:
            from .compare import cmd_compare
            return cmd_compare(argv[1:])
        return cmd_one(argv)
    except RuntimeError as exc:
        # A measuring process that died or hung: no result line at all.
        print(f"error: {exc}", file=sys.stderr)
        return 1
