"""The benchmark's workloads, their output checks, and one iteration of a
workload in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --spawned-at T
                                   [--setup-only] [--trace]

runs one iteration on the checkout's ``src/`` and prints one JSON object:
``setup_cpu_s`` (CPU time of this process up to the first workload call),
``setup_wall_s`` (from ``T``, a ``time.monotonic()`` reading taken by the
parent just before it started this process, to the first workload call),
``cpu_s`` and ``wall_s`` (CPU and wall time of the workload's calls), the
host's ``slowdown`` while the calls ran and ``setup_slowdown`` right after
set-up (see ``speed.py``), ``run_s`` and ``setup_s`` (``cpu_s`` and
``setup_cpu_s`` divided by them), ``peak_rss_mb``, the output ``checks``,
the output ``digests`` and, with ``--trace``, the per-layer ``trace``
metrics. ``--setup-only`` stops before the first call.

    python3 perfbench/workloads.py --write-expected

recomputes ``expected.json`` from the current code. Only do this when an
output is meant to change; the file is the benchmark's output gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

DEFAULT_SEED = 0
M_OFFSETS = (0, 1, 2, -2, -1)   # picked by seed % 5, so seed 0 gives 0
LAYERS = 3

# Chart workloads: name -> (group rank, window at the default seed as
# (m_lo, m_hi, k_lo, k_hi)). The seed moves m_lo by one of M_OFFSETS.
CHARTS: dict[str, tuple[int, tuple[int, int, int, int]]] = {
    "chart-bv2": (2, (-20, 20, -10, 10)),
    "chart-bv3": (3, (-8, 8, -4, 4)),
}
WORKLOADS = tuple(CHARTS) + ("verify",)
CHART_CHECKS = ("table.digest", "table.layer_periodicity", "table.doubling",
                "cross_check.ok", "cross_check.brute_digest")

Check = tuple[str, bool, str]


def m_offset(seed: int) -> int:
    """Shift of m_lo for this seed."""
    return M_OFFSETS[seed % len(M_OFFSETS)]


def window_for(workload: str, seed: int) -> tuple[int, int, int, int]:
    _, (m_lo, m_hi, k_lo, k_hi) = CHARTS[workload]
    return (m_lo + m_offset(seed), m_hi, k_lo, k_hi)


def window_key(window: tuple[int, int, int, int]) -> str:
    return " ".join(map(str, window))


def kr_table_argv(rank: int, window: tuple[int, int, int, int]) -> list[str]:
    return ["compute", "kr-table", "--bv", str(rank), "--layers", str(LAYERS),
            "--window", *map(str, window)]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def brute_digest(brute: dict) -> str:
    return sha256(json.dumps(sorted([m, k, v] for (m, k), v in brute.items())))


# -- running a workload ------------------------------------------------------

def run_chart(argv: list[str], rank: int, window: Any) -> dict:
    """The chart workload's calls: the kr-table command, then the
    cross-check. An exception is kept as the output, never raised."""
    from krtool import cli, kr
    out: dict[str, Any] = {}
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out["tsv"] = buf.getvalue() if code == 0 else None
        out["table_error"] = None if code == 0 else f"exit code {code}"
    except (Exception, SystemExit) as exc:
        out["tsv"], out["table_error"] = None, repr(exc)
    try:
        out["cc"], out["cc_error"] = kr.cross_check_hv(rank, window), None
    except Exception as exc:
        out["cc"], out["cc_error"] = None, repr(exc)
    return out


def run_verify() -> dict:
    from krtool import verify
    try:
        return {"results": verify.run_all(), "error": None}
    except Exception as exc:
        return {"results": None, "error": repr(exc)}


# -- checking outputs --------------------------------------------------------

def report_from_tsv(rank: int, window: tuple[int, int, int, int], tsv: str):
    """The KRReport whose ``to_tsv()`` is ``tsv``, notes left out; its
    self-checks then run on the command's actual output."""
    from krtool.graded import Window
    from krtool.kr import KRReport
    parts: dict[str, dict] = {}
    for line in tsv.splitlines()[1:]:
        m, k, dim, part, _notes = line.split("\t")
        parts.setdefault(part, {})[(int(m), int(k))] = int(dim)
    layers = [parts.get(f"layer{j}", {}) for j in range(LAYERS + 1)]
    return KRReport(Window(*window), rank, parts.get("f1", {}),
                    parts.get("f2", {}), parts.get("f2v", {}), layers, {})


def chart_digests(out: dict) -> dict[str, Optional[str]]:
    return {"table": sha256(out["tsv"]) if out["tsv"] is not None else None,
            "brute": brute_digest(out["cc"].brute) if out["cc"] else None}


def chart_checks(rank: int, window: tuple[int, int, int, int], out: dict,
                 expected: dict) -> list[Check]:
    """The five checks of one chart iteration, in CHART_CHECKS order."""
    want = expected.get(window_key(window))
    digests = chart_digests(out)
    checks: list[Check] = []

    def digest_check(name: str, key: str, error: Optional[str]) -> None:
        if digests[key] is None:
            checks.append((name, False, error or "no output"))
        elif want is None:
            checks.append((name, False, f"no expectation for {window_key(window)}"))
        else:
            ok = digests[key] == want[f"{key}_sha256"]
            checks.append((name, ok, "" if ok else
                           f"{key} digest {digests[key]} != {want[f'{key}_sha256']}"))

    digest_check("table.digest", "table", out["table_error"])
    if out["tsv"] is None:
        checks += [(n, False, out["table_error"] or "no output")
                   for n in ("table.layer_periodicity", "table.doubling")]
    else:
        try:
            rep = report_from_tsv(rank, window, out["tsv"])
            checks.append(("table.layer_periodicity", rep.layer_periodicity_ok(), ""))
            checks.append(("table.doubling", rep.doubling_ok(), ""))
        except Exception as exc:
            checks += [(n, False, repr(exc))
                       for n in ("table.layer_periodicity", "table.doubling")]
    cc = out["cc"]
    checks.append(("cross_check.ok", bool(cc and cc.ok),
                   out["cc_error"] or ("" if cc.ok else cc.detail())))
    digest_check("cross_check.brute_digest", "brute", out["cc_error"])
    return checks


def verify_checks(out: dict, expected: dict) -> list[Check]:
    """One check per expected suite, plus the pass list as a whole."""
    suites = expected["verify"]["passed"]
    results = {r.name: r for r in out["results"] or []}
    checks: list[Check] = []
    for name in suites:
        r = results.get(name)
        checks.append((f"suite.{name}", bool(r and r.ok),
                       r.detail if r else out["error"] or "suite did not run"))
    passed = [r.name for r in out["results"] or [] if r.ok]
    checks.append(("suite.passed_list", passed == suites,
                   "" if passed == suites else f"passed {passed}"))
    return checks


def check_count(workload: str, expected: dict) -> int:
    if workload in CHARTS:
        return len(CHART_CHECKS)
    return len(expected["verify"]["passed"]) + 1


# -- one iteration in this process ------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process since it started, all threads, plus that
    of the child processes it has waited for. The workload runs in one
    thread and does no I/O, so on a machine of its own this equals wall
    time; on a shared virtual machine it leaves out the time the host
    gives this machine's CPUs to others (steal), which wall time counts."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def iterate(workload: str, seed: int, spawned_at: float, setup_only: bool,
            trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import krtool
    if Path(krtool.__file__).resolve().parent != (ROOT / "src" / "krtool").resolve():
        raise SystemExit(f"krtool imported from {krtool.__file__}, not this checkout")
    from krtool import cli, kr, verify  # noqa: F401  (import is set-up cost)
    from krtool.graded import Window

    if workload in CHARTS:
        rank = CHARTS[workload][0]
        window = window_for(workload, seed)
        argv, win = kr_table_argv(rank, window), Window(*window)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    first_call = time.monotonic()
    record: dict[str, Any] = {"setup_cpu_s": cpu_seconds(),
                              "setup_wall_s": first_call - spawned_at}
    # Set-up is too short to probe while it runs: sample right after it.
    record["setup_slowdown"] = speed.slowdown(
        [speed.sample() for _ in range(speed.SETUP_SAMPLES)])
    record["setup_s"] = record["setup_cpu_s"] / record["setup_slowdown"]
    if setup_only:
        return record
    # A traced iteration is not probed: the probe would run inside spans.
    probe = speed.SpeedProbe()
    c0, t0 = cpu_seconds(), time.perf_counter()
    with contextlib.nullcontext() if trace else probe:
        out = run_chart(argv, rank, win) if workload in CHARTS else run_verify()
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = cpu_seconds() - c0 - sum(probe.samples)
    record["probe_samples"] = len(probe.samples)
    record["slowdown"] = speed.slowdown(probe.samples)
    record["run_s"] = record["cpu_s"] / record["slowdown"]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.metrics()
        record["spans"] = tracer.span_edges()

    expected = load_expected()
    if workload in CHARTS:
        record["checks"] = chart_checks(rank, window, out, expected)
        record["digests"] = chart_digests(out)
        record["window"] = list(window)
    else:
        record["checks"] = verify_checks(out, expected)
        record["digests"] = {"passed": [r.name for r in out["results"] or [] if r.ok]}
    return record


def write_expected() -> None:
    """Recompute expected.json: every chart window a seed can give, and
    the verify pass list."""
    sys.path.insert(0, str(ROOT / "src"))
    from krtool import verify
    from krtool.graded import Window
    expected: dict[str, Any] = {}
    for workload, (rank, _) in CHARTS.items():
        for seed in range(len(M_OFFSETS)):
            window = window_for(workload, seed)
            out = run_chart(kr_table_argv(rank, window), rank, Window(*window))
            if out["tsv"] is None or out["cc"] is None or not out["cc"].ok:
                raise SystemExit(f"{workload} {window}: {out['table_error']} "
                                 f"{out['cc_error']}")
            digests = chart_digests(out)
            expected[window_key(window)] = {
                "workload": workload, "table_sha256": digests["table"],
                "brute_sha256": digests["brute"],
                "brute_bidegrees": len(out["cc"].region)}
    results = verify.run_all()
    if not all(r.ok for r in results):
        raise SystemExit("a verify suite fails; not recording expectations")
    expected["verify"] = {"passed": [r.name for r in results]}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--spawned-at", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args(argv)
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None or args.spawned_at is None:
        p.error("--workload and --spawned-at are required")
    record = iterate(args.workload, args.seed, args.spawned_at,
                     args.setup_only, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
