"""sqzband benchmark: one workload per fresh process, one JSON result line.

    python3 bench/run.py --workload bias --seed 1 --seconds 10 --trace 0

Run from anywhere; it works on the checkout that holds this file.  Set-up
time is measured first, in fresh interpreters, then the workload runs in
another fresh interpreter (bench/workloads.py) with the BLAS thread count
pinned to 1, so bias_study's two pool workers never run more threads than
there are cores.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics from a traced replay with --trace 1.  The exit
code is 0 only when every output checked correct and no item failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = (ROOT / "src" / "sqzband" / "__init__.py", ROOT / "configs" / "paper.ini")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
# what every `sqzband` invocation pays before it does any work
SETUP_CODE = (
    "import sqzband\n"
    "from sqzband.config import load_config\n"
    "load_config('configs/paper.ini')\n"
)
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run to completion in its own process group; on timeout kill the whole
    group (pool workers included) and wait for it."""
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout)


def setup_seconds(env: dict, runs: int = SETUP_RUNS) -> float:
    """Median wall time of `import sqzband` + load_config in a fresh interpreter."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        done = run_child([sys.executable, "-c", SETUP_CODE], env, timeout=60)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"not a sqzband checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    setup_s = None if args.trace else setup_seconds(env)
    argv = [
        sys.executable,
        str(BENCH / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    done = run_child(argv, env, timeout=DEADLINE_S - (time.perf_counter() - started))
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"workload process exited {done.returncode} without a result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        if line.startswith("environment: "):
            env_record = {"git_sha": git_sha(), **json.loads(line[len("environment: "):])}
            line = "environment: " + json.dumps(env_record, sort_keys=True)
        print(line)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
