"""Acceptance suite: one test per headline criterion, at the stated
windows, always with exact dimension equality, printing one line each.

The same suites back the command-line verifier, so `krtool verify all`
reproduces this module outside pytest.
"""

import pytest

from krtool.verify import SUITES, run_suite

CRITERIA = [
    ("01", "a1-structure",
     "free module: dimension 8, graded dims, relations, acyclicity"),
    ("02", "h01-a1",
     "extension homology of the free module: exactly (6,0) and (3,-2)"),
    ("03", "h01-pn",
     "closed form equals brute force for companions 0..4 on the big window"),
    ("04", "socles",
     "socle patterns of the four companions, stable under window growth"),
    ("05", "brown-ossa",
     "tensor square and fourfold-loop periodicity are stably consistent"),
    ("06", "duality",
     "pairing isomorphism commutes with both differentials"),
    ("07", "relext",
     "relative extension groups: shift identification and Tate agreement"),
    ("08", "les",
     "long exact sequence of the cover sequence is exact at every slot"),
    ("09", "towers",
     "random multiplication towers match the torsion-order oracle"),
    ("10", "borel-detect",
     "Euler-linear endomorphism space of the Borel model vanishes"),
    ("11", "hv",
     "group-cohomology homology equals closed form plus free part"),
    ("12", "kr-table",
     "assembled report: periodic layers, doubled top classes, column sums"),
]

RUNTIME_BUDGET = {
    "01": 1, "02": 5, "03": 10, "05": 30, "08": 5, "09": 10, "10": 10,
    "11": 10, "12": 10,
}


@pytest.mark.parametrize("num,suite,blurb", CRITERIA,
                         ids=[f"{n}-{s}" for n, s, _ in CRITERIA])
def test_acceptance(num, suite, blurb):
    assert suite in SUITES
    res = run_suite(suite)
    status = "PASS" if res.ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} [{res.seconds:6.2f}s] {blurb}: "
          f"{res.detail}")
    assert res.ok, f"criterion {num} ({suite}): {res.detail}"
    budget = RUNTIME_BUDGET.get(num)
    if budget is not None:
        assert res.seconds < budget, \
            f"criterion {num} exceeded its runtime target " \
            f"({res.seconds:.1f}s >= {budget}s)"


def test_no_suite_reads_structure_from_a_basis_name(monkeypatch):
    """Basis names are labels: every suite, and a rank-2 cross-check,
    passes with the monomial-name parser disabled."""
    from krtool import kr, verify
    from krtool.coeff import CoeffMonomial
    from krtool.graded import Window

    def refuse(text):
        raise AssertionError(f"basis name parsed: {text!r}")

    monkeypatch.setattr(CoeffMonomial, "parse", staticmethod(refuse))
    # rebuild what earlier tests may have left in the caches
    verify._hv_report.cache_clear()
    kr.chart.cache_clear()
    for res in verify.run_all():
        assert res.ok, f"{res.name}: {res.detail}"
    assert kr.cross_check_hv(2, Window(-10, 10, -5, 5)).ok
    kr.chart.cache_clear()
