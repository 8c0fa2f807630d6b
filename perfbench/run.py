"""Closed-loop benchmark of the advdiff solver: one process, one thread, one
solve at a time.

Run from the repository root:

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 54 --trace 0

Workloads: table1_sweep and two_disc_2d (see perfbench/README.md).
The run starts fresh interpreters pinned to one thread: SETUP_PROBES that
only set up, which time set-up, and one worker that sets up the same way and
then runs the workload's solves for about --seconds.  Reported times are
scaled to the nominal speed of a reference kernel timed in the same
interpreter (see reference.py).  With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  Each metric
is printed on its own line with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is not 0 when the run could not be made, and then no JSON line
is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup-only interpreters per run; the worker's own set-up is one more sample
SETUP_PROBES = 3
# the whole run, children included, must end within this
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def start_worker(args, deadline, setup_only):
    """Start worker.py and wait for its "ready" line.

    Returns (process, seconds from start to ready): set-up time measured from
    outside, so it includes the interpreter's own start.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    waiting = max(0.0, deadline - time.monotonic())
    line = proc.stdout.readline() if select.select([proc.stdout], [], [], waiting)[0] else ""
    ready = time.perf_counter() - began
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RunError(f"worker did not set up (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for the worker to end and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the time limit")
    return out


def machine_info(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {name: child_env()[name] for name in THREAD_VARS},
    }


def git_revision():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_digest():
    """SHA-256 over the library's sources, which names the code measured
    even where the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "advdiff" / "__init__.py").is_file():
        raise RunError(f"no advdiff sources under {SRC}")
    info = machine_info(args)
    setups = []  # (seconds to ready, the reference kernel's scale)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(args, deadline, setup_only=True)
            words = finish(proc, deadline).split()
            if proc.returncode != 0 or len(words) != 2 or words[0] != "scale":
                raise RunError(f"set-up run failed with exit code {proc.returncode}")
            setups.append((ready, float(words[1])))
    proc, ready = start_worker(args, deadline, setup_only=False)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"worker failed with exit code {proc.returncode}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError("worker printed no result")
    metrics = result["metrics"]
    if not args.trace:
        setups.append((ready, result["report"]["ref_scale"]))
        metrics["setup_s"] = (median(ready * scale for ready, scale in setups), "s")
    missing = sorted(name for name, (value, _) in metrics.items() if value is None)
    if missing:
        raise RunError(f"no value for {', '.join(missing)}")

    info.update(result["versions"])
    print("machine " + json.dumps(info))
    print("report " + json.dumps(result["report"]))
    if not args.trace:
        print("setup_samples " + json.dumps([{"measured_s": ready, "ref_scale": scale}
                                             for ready, scale in setups]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name in result["report"].get("absent", []):
        print(f"{name} absent")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
