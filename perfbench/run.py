"""Benchmark runner for krtool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each iteration of the workload runs in a
fresh interpreter on the checkout's ``src/``, one at a time, started from
this single process (a closed loop with one client). Iterations repeat
while the next one is expected to end within ``--seconds``; there is
always at least one.

``--trace 0`` reports the end-to-end metrics: the median ``run_s`` and
``peak_rss_mb`` over the iterations, and the median ``setup_s`` over the
iterations and a few set-up-only starts. ``run_s`` and ``setup_s`` are
CPU times scaled to the host's full speed (see ``speed.py``); the record
line also lists each iteration's CPU time, wall time and slowdown. ``--trace 1`` runs pairs of an
untraced and a traced iteration and reports the per-layer metrics of the
traced ones. Every iteration's outputs are checked; ``failed`` counts the
checks that did not pass, so ``failed / attempted`` is the run's
``fail_frac``. The last line of standard output is the JSON result; the
line before it records the run's settings and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11         # set-up-only starts per untraced run
TIME_LIMIT_S = 170         # the whole run, including set-up starts


def child_env() -> dict[str, str]:
    """Environment of every iteration: no verifier thread pool, fixed
    string hashing so that set iteration order, and with it the work done,
    repeats exactly, and bytecode caching on. With caching off every
    start would compile ``krtool`` again, which an installed program does
    not; the first start of a fresh checkout writes the cache."""
    env = dict(os.environ)
    env.pop("KRTOOL_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, timeout: float, *, setup_only: bool = False,
          trace: bool = False) -> Optional[dict]:
    """One iteration in a fresh interpreter; None if it crashed or ran out
    of time (the child is killed and waited for)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"iteration of {workload} ran past {timeout:.0f} s", file=sys.stderr)
        return None
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    print(f"iteration of {workload} exited {proc.returncode}:\n{proc.stderr}",
          file=sys.stderr)
    return None


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of
    the sources, which identifies the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "krtool").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tally(iterations: list[Optional[dict]], per_iteration: int) -> tuple[int, int, list]:
    """Checks attempted and failed; a crashed iteration fails all its checks."""
    attempted = failed = 0
    failures = []
    for it in iterations:
        if it is None:
            attempted += per_iteration
            failed += per_iteration
            failures.append(("iteration", "crashed or timed out"))
            continue
        for name, ok, detail in it["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append((name, detail))
    return attempted, failed, failures


def room_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, as long as the mean one so far, ends
    within ``seconds`` of ``start``."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [spawn(workload, seed, deadline - time.monotonic(), setup_only=True)
              for _ in range(SETUP_REPEATS)]
    iterations: list[Optional[dict]] = []
    start = time.monotonic()
    while not iterations or room_for_another(start, len(iterations), seconds):
        iterations.append(spawn(workload, seed, deadline - time.monotonic()))
        if time.monotonic() >= deadline:
            break
    done = [it for it in iterations if it is not None]
    started = [s for s in setups + iterations if s is not None]
    samples = {
        "run_s": [it["run_s"] for it in done],
        "setup_s": [s["setup_s"] for s in started],
        "peak_rss_mb": [it["peak_rss_mb"] for it in done],
        "cpu_s": [it["cpu_s"] for it in done],
        "wall_s": [it["wall_s"] for it in done],
        "slowdown": [it["slowdown"] for it in done],
        "setup_cpu_s": [s["setup_cpu_s"] for s in started],
        "setup_wall_s": [s["setup_wall_s"] for s in started],
        "setup_slowdown": [s["setup_slowdown"] for s in started],
    }
    return {"iterations": iterations, "samples": samples,
            "metrics": {name: median(v) for name, v in samples.items()},
            "extra_checks": []}


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    iterations: list[Optional[dict]] = []
    plain: list[dict] = []
    traced: list[dict] = []
    extra_checks = []
    start = time.monotonic()
    while not iterations or room_for_another(start, len(iterations) // 2, seconds):
        a = spawn(workload, seed, deadline - time.monotonic())
        b = spawn(workload, seed, deadline - time.monotonic(), trace=True)
        iterations += [a, b]
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
            same = a["digests"] == b["digests"]
            extra_checks.append(("trace.outputs_match", same,
                                 "" if same else f"{a['digests']} vs {b['digests']}"))
        if time.monotonic() >= deadline or a is None or b is None:
            break
    metrics = {}
    for name in traced[0]["trace"] if traced else []:
        metrics[name] = median([t["trace"][name] for t in traced])
    plain_s = median([it["cpu_s"] for it in plain])
    traced_s = median([it["cpu_s"] for it in traced])
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
    samples = {"cpu_s": [it["cpu_s"] for it in plain],
               "traced_cpu_s": [it["cpu_s"] for it in traced],
               "wall_s": [it["wall_s"] for it in plain],
               "traced_wall_s": [it["wall_s"] for it in traced]}
    return {"iterations": iterations, "samples": samples, "metrics": metrics,
            "extra_checks": extra_checks,
            "spans": traced[-1]["spans"] if traced else []}


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description="krtool benchmark runner")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "krtool" / "__init__.py").is_file():
        print(f"no krtool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected = wl.load_expected()

    run = (measure_traced if args.trace else measure)(
        args.workload, args.seed, args.seconds, deadline)
    attempted, failed, failures = tally(run["iterations"],
                                        wl.check_count(args.workload, expected))
    for name, ok, detail in run["extra_checks"]:
        attempted += 1
        if not ok:
            failed += 1
            failures.append((name, detail))
    fail_frac = failed / attempted if attempted else 1.0
    run["metrics"]["fail_frac"] = fail_frac
    for name, detail in failures:
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    windows = ({args.workload: list(wl.window_for(args.workload, args.seed))}
               if args.workload in wl.CHARTS else {})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "windows": windows, **source_identity(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": "0", "samples": run["samples"],
        "sample_counts": {k: len(v) for k, v in run["samples"].items()},
        "fail_frac": fail_frac, "failures": failures[:20],
    }
    if args.trace:
        record["spans"] = run["spans"]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
