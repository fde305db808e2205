"""Tests of the benchmark itself: the output gate, the tracer's wrappers,
the speed probe, and the mapping from seed to window. Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from krtool import a1, coeff, emod, gf2, graded, kr, rfun, verify  # noqa: E402
from krtool.graded import Window  # noqa: E402

SMALL = (-8, 8, -4, 4)


def small_chart(rank: int = 1) -> tuple[dict, dict]:
    """Outputs of the chart calls on a small window, and an expectation
    recorded from them."""
    out = wl.run_chart(wl.kr_table_argv(rank, SMALL), rank, Window(*SMALL))
    d = wl.chart_digests(out)
    expected = {wl.window_key(SMALL): {"table_sha256": d["table"],
                                       "brute_sha256": d["brute"]}}
    return out, expected


def fail_frac(checks) -> float:
    attempted, failed, _ = run.tally([{"checks": checks}], len(checks))
    return failed / attempted


def test_matching_outputs_pass_every_chart_check():
    out, expected = small_chart()
    checks = wl.chart_checks(1, SMALL, out, expected)
    assert [c[0] for c in checks] == list(wl.CHART_CHECKS)
    assert all(ok for _, ok, _ in checks), checks
    assert fail_frac(checks) == 0


@pytest.mark.parametrize("key", ["table_sha256", "brute_sha256"])
def test_corrupted_expected_digest_raises_fail_frac(key):
    out, expected = small_chart()
    want = expected[wl.window_key(SMALL)]
    want[key] = want[key][:-1] + ("0" if want[key][-1] != "0" else "1")
    checks = wl.chart_checks(1, SMALL, out, expected)
    assert fail_frac(checks) == pytest.approx(1 / len(wl.CHART_CHECKS))


def test_exceptions_count_as_failed_checks():
    out = {"tsv": None, "table_error": "RuntimeError()",
           "cc": None, "cc_error": "RuntimeError()"}
    checks = wl.chart_checks(1, SMALL, out, {})
    assert len(checks) == len(wl.CHART_CHECKS)
    assert fail_frac(checks) == 1
    attempted, failed, _ = run.tally([None], len(wl.CHART_CHECKS))
    assert attempted == failed == len(wl.CHART_CHECKS)


def test_corrupted_pass_list_raises_fail_frac():
    results = [verify.VerifyResult(n, True, "", 0.0) for n in verify.SUITES]
    expected = {"verify": {"passed": list(verify.SUITES)}}
    good = wl.verify_checks({"results": results, "error": None}, expected)
    assert fail_frac(good) == 0
    expected["verify"]["passed"] = list(verify.SUITES)[:-1]
    assert fail_frac(wl.verify_checks({"results": results, "error": None},
                                      expected)) > 0
    results[0] = verify.VerifyResult(results[0].name, False, "broken", 0.0)
    expected["verify"]["passed"] = list(verify.SUITES)
    assert fail_frac(wl.verify_checks({"results": results, "error": None},
                                      expected)) == 2 / 13


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def sample_calls():
    m = gf2.F2Matrix.from_rows([0b1011, 0b0110, 0b1101, 0b0000], 4)
    p = a1.std_p(1, 16)
    w = Window(-6, 6, -3, 3)
    return [
        gf2.rref(m), gf2.rank(m), gf2.kernel_basis(m), gf2.solve(m, 0b0101),
        gf2.intersect_row_spaces(m, m.transpose()),
        coeff.CoeffMonomial.parse("A3.S4"),
        a1.reduce(a1.std_bv(1, 1, 20)).free_gens,
        emod.h01(rfun.apply_r(p, w).emod).dims(),
        kr.cross_check_hv(1, w).brute,
        kr.assemble_kr(1, w).to_tsv(),
    ]


def test_wrappers_return_identical_values():
    originals = (gf2.rref, kr.rank, graded.Subquotient.dims,
                 coeff.CoeffMonomial.__dict__["parse"])
    before = sample_calls()
    t = tracing.Tracer()
    t.install()
    try:
        assert kr.rank is not originals[1]
        assert kr.rank.__wrapped__ is originals[1]
        assert graded.row_basis.__wrapped__ is gf2.row_basis.__wrapped__
        during = sample_calls()
    finally:
        t.uninstall()
    assert during == before
    assert (gf2.rref, kr.rank, graded.Subquotient.dims,
            coeff.CoeffMonomial.__dict__["parse"]) == originals
    assert t.metrics()["gf2.rref_calls"] > 0


def test_nested_calls_in_one_layer_are_not_counted_twice():
    m = gf2.F2Matrix.from_rows([0b11, 0b01], 2)
    empty = gf2.F2Matrix.zero(0, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gf2.rank(m)                   # rank -> rref, both in gf2
        gf2.rank(empty)
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["gf2.rref_calls"] == 2
    assert got["gf2.rref_cells"] == 4
    assert got["gf2.empty_frac"] == 0.5
    assert tracer.span_edges() == [
        {"parent": "bench", "layer": "gf2", "spans": 2,
         "seconds": pytest.approx(got["gf2.self_s"])}]


def test_inclusive_timers_and_repeat_counts(tracer):
    w = Window(-6, 6, -3, 3)
    m = a1.std_p(1, 16)
    rfun.apply_r(m, w)
    rm = rfun.apply_r(m, w)
    emod.h01(rm.emod).dims()
    got = tracer.metrics()
    assert got["rfun.apply_r_calls"] == 2
    assert got["rfun.apply_r_repeat_frac"] == 0.5
    assert got["rfun.ext_dim"] == 2 * rm.emod.space.total_dim()
    assert 0 < got["graded.subquotient_s"] <= sum(
        e["seconds"] for e in tracer.span_edges() if e["layer"] == "graded")


def test_every_declared_layer_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracing.Tracer().metrics())
    reported |= {f"verify.{name}_s" for name in verify.SUITES}
    reported |= {"trace.overhead_frac", "fail_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= reported


def test_speed_probe_samples_while_work_runs_and_then_stops():
    with speed.SpeedProbe() as probe:
        out = wl.run_chart(wl.kr_table_argv(1, SMALL), 1, Window(*SMALL))
        t0 = wl.cpu_seconds()
        while wl.cpu_seconds() - t0 < 5 * speed.PERIOD_S:
            sum(i * i for i in range(1000))
    n = len(probe.samples)
    assert n >= 3 and all(s > 0 for s in probe.samples)
    # the probe leaves the workload's outputs as they are
    assert wl.chart_digests(out) == wl.chart_digests(small_chart()[0])
    t0 = wl.cpu_seconds()
    while wl.cpu_seconds() - t0 < 3 * speed.PERIOD_S:
        sum(i * i for i in range(1000))
    assert len(probe.samples) == n


def test_slowdown_scales_by_the_nominal_probe_time():
    assert speed.slowdown([]) == 1.0
    assert speed.slowdown([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert speed.slowdown([speed.NOMINAL_S, 2 * speed.NOMINAL_S]) == pytest.approx(1.5)


def test_seed_to_window_is_deterministic_and_bounded():
    assert wl.window_for("chart-bv2", wl.DEFAULT_SEED) == (-20, 20, -10, 10)
    assert wl.window_for("chart-bv3", wl.DEFAULT_SEED) == (-8, 8, -4, 4)
    expected = wl.load_expected()
    for seed in list(range(-20, 40)) + [2**31 - 1, 2**63]:
        for name, (rank, (m_lo, m_hi, k_lo, k_hi)) in wl.CHARTS.items():
            w = wl.window_for(name, seed)
            assert w == wl.window_for(name, seed)
            # only m_lo moves, by at most 2: sizes that finish in seconds
            assert w[1:] == (m_hi, k_lo, k_hi)
            assert abs(w[0] - m_lo) <= 2
            assert wl.window_key(w) in expected
    # rank 3 stays far below m +-14, k +-7, where reduce does not finish
    assert wl.CHARTS["chart-bv3"][1][1] <= 8 and wl.CHARTS["chart-bv3"][1][3] <= 4


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
