"""Acceptance suite: one test per headline criterion, at the stated
windows, always with exact dimension equality, printing one line each.

The same suites back the command-line verifier, so `krtool verify all`
reproduces this module outside pytest.
"""

import copy
import hashlib
import re
from types import SimpleNamespace

import pytest

from krtool import a1, cli, closedform, kr, rfun, verify
from krtool.a1 import std_f
from krtool.emod import h01, h01_dual_dims, margolis
from krtool.gf2 import F2Matrix
from krtool.graded import Window, add_deg
from krtool.rfun import apply_r
from krtool.verify import SUITES, run_suite

from conftest import flip_sq2_at_2

CRITERIA = [
    ("01", "a1-structure",
     "free module: dimension 8, graded dims, relations, acyclicity, "
     "dual to its -6 suspension"),
    ("02", "h01-a1",
     "extension homology of the free module: exactly (6,0) and (3,-2), one "
     "per cone, cones separated; Bockstein d1 squares to zero, kernel (6,0)"),
    ("03", "h01-pn",
     "closed form equals brute force for companions 0..4 on the big window"),
    ("04", "socles",
     "socle patterns of the four companions, stable under window growth"),
    ("05", "brown-ossa",
     "tensor square and fourfold-loop periodicity hold by explicit "
     "isomorphisms of the reduced modules"),
    ("06", "duality",
     "pairing isomorphism commutes with both differentials; on q0-acyclic "
     "extensions h01 at d equals the dual route at d-(1,0)"),
    ("07", "relext",
     "relative extension groups: shift identification and Tate agreement"),
    ("08", "les",
     "long exact sequence of the cover sequence is exact at every slot"),
    ("09", "towers",
     "random multiplication towers match the torsion-order oracle"),
    ("10", "borel-detect",
     "Euler-linear endomorphism space of the Borel model vanishes; the "
     "model is (-4,4)-periodic"),
    ("11", "hv",
     "group-cohomology homology equals closed form plus free part"),
    ("12", "kr-table",
     "assembled report: periodic layers, doubled top classes, column sums"),
]

RUNTIME_BUDGET = {
    "01": 1, "02": 5, "03": 10, "04": 5, "05": 30, "06": 5, "07": 5,
    "08": 5, "09": 10, "10": 10, "11": 10, "12": 10,
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


# Witnesses: each criterion promoted into a suite, broken by hand, fails
# the suite with a detail naming the module and the degree.

def failed_detail(suite: str) -> str:
    res = run_suite(suite)
    assert not res.ok, res.detail
    return res.detail


def test_a1_structure_names_a_missing_self_duality(monkeypatch):
    monkeypatch.setattr(verify, "iso_search", lambda a, b, lo, hi: None)
    assert failed_detail("a1-structure") == (
        "dual of the free module: no isomorphism to its -6 suspension on "
        "degrees -6..0")


def test_brown_ossa_names_a_broken_relation_of_the_companion(monkeypatch):
    def std_pn(n, lo, hi):
        m = a1.std_pn(n, lo, hi)
        return flip_sq2_at_2(m) if n == 2 else m

    monkeypatch.setattr(verify, "std_pn", std_pn)
    assert failed_detail("brown-ossa") == (
        "exception: not a module over the algebra: Sq2 Sq2 = Sq1 Sq2 Sq1 "
        "fails at degree 2 on y2")


def test_h01_a1_names_a_cone_crossing(monkeypatch):
    monkeypatch.setattr(verify, "cone_crossing", lambda rm: (4, 1))
    assert failed_detail("h01-a1") == \
        "free module: a differential leaves its cone at (4, 1)"


def test_h01_a1_names_a_cone_holding_the_wrong_classes(monkeypatch):
    # the whole extension in place of the positive cone
    monkeypatch.setattr(verify, "cone_part", lambda rm, cone: rm.emod)
    assert failed_detail("h01-a1") == (
        "free module, + cone: classes at [(3, -2), (6, 0)], "
        "expected [(6, 0)]")


def test_h01_a1_names_where_the_bockstein_squares_to_nonzero(monkeypatch):
    monkeypatch.setattr(rfun.BocksteinD1, "nonzero_square", lambda self: (4, 0))
    assert failed_detail("h01-a1") == \
        "free module: Bockstein d1 squares to nonzero at (4, 0)"


def test_h01_a1_names_the_bockstein_kernel(monkeypatch):
    real = verify.bockstein_d1

    def zero_d1(rm):
        bock = real(rm)
        bock.d1 = {d: F2Matrix.zero(x.nrows, x.ncols)
                   for d, x in bock.d1.items()}
        return bock

    monkeypatch.setattr(verify, "bockstein_d1", zero_d1)
    detail = failed_detail("h01-a1")
    assert detail.startswith("free module: Bockstein kernel at [")
    assert "(4, 0)" in detail and "(6, 0)" in detail


def test_duality_names_a_q0_homology_class(monkeypatch):
    monkeypatch.setattr(verify, "margolis_e", lambda em, which: {(0, 0): 1})
    assert failed_detail("duality") == \
        "free: extension not q0-acyclic at (0, 0)"


def test_duality_names_where_the_dual_route_differs(monkeypatch):
    monkeypatch.setattr(verify, "h01_dual_dims", lambda em: {})
    assert failed_detail("duality") == (
        "free: h01 at (3, -2) is 1 but the dual route at (2, -2) is 0")


def test_duality_hypothesis_fails_and_matters_for_the_trivial_module():
    """The trivial module is not q0-acyclic, and the shifted relation
    between h01 and the dual route fails for it at (0,0)."""
    w = Window(-8, 8, -4, 4)
    em = apply_r(std_f(), w).emod
    assert margolis(em, "q0").get((0, 0))
    assert h01(em).dims().get((0, 0), 0) != \
        h01_dual_dims(em).get((-1, 0), 0)


def test_h01_a1_fails_when_the_top_class_moves(monkeypatch):
    """The suite reads the free module's classes from ``kr.free_class``,
    so a moved top-class offset fails it."""
    monkeypatch.setitem(kr.FREE_CLASS_OFFSETS, "top", (7, 0))
    assert failed_detail("h01-a1") == "classes at [(3, -2), (6, 0)]"


def test_socles_names_the_companion_and_degree_of_a_flipped_class(
        monkeypatch):
    """The suite reads the socle patterns from ``closedform.soc_has``, so
    one flipped class fails it, named by companion and degree."""
    real = closedform.soc_has
    monkeypatch.setattr(closedform, "soc_has",
                        lambda n, d: real(n, d) ^ ((n, d) == (2, 6)))
    assert failed_detail("socles") == "companion 2 socle wrong at 6"


def test_borel_detect_names_a_broken_periodicity(monkeypatch):
    real = verify.detection_h1_borel
    w = Window(-16, 16, -8, 8)
    dims = closedform.BorelClosedForm(1, w).dims()
    gap = next(d for d in sorted(dims) if w.contains(add_deg(d, (-4, 4))))

    def holed(n, win):
        rep = real(n, win)
        dims = {d: v for d, v in rep.model.dims().items() if d != gap}
        copied = copy.copy(rep)
        copied.model = SimpleNamespace(dims=lambda: dims)
        return copied

    monkeypatch.setattr(verify, "detection_h1_borel", holed)
    assert failed_detail("borel-detect") == \
        f"rank 1: Borel model not (-4,4)-periodic at {gap}"


def test_kr_table_names_the_layer_and_degree_of_a_broken_periodicity(
        monkeypatch):
    real = verify.assemble_kr
    holes = []

    def holed(n, w, max_layer):
        rep = real(n, w, max_layer=max_layer)
        gap = min(d for d in rep.layers[2]
                  if w.contains(add_deg(d, (-1, -1))))
        del rep.layers[2][gap]
        holes.append(gap)
        return rep

    monkeypatch.setattr(verify, "assemble_kr", holed)
    detail = failed_detail("kr-table")
    gap = holes[0]
    assert detail == (f"rank 1: layer periodicity fails: layer 2 at {gap} "
                      f"differs from layer 1 at {add_deg(gap, (-1, -1))}")


def test_kr_table_names_where_the_column_check_input_disagrees(monkeypatch):
    """One closed-form dimension flipped: the cross-check that feeds the
    column sums fails, and the detail names the degree with both values."""
    real = closedform.h01_pn_dim
    wrong = (0, 0)
    monkeypatch.setattr(closedform, "h01_pn_dim",
                        lambda n, d: real(n, d) ^ (d == wrong))
    kr.chart.cache_clear()
    verify._hv_report.cache_clear()
    try:
        detail = failed_detail("kr-table")
    finally:
        kr.chart.cache_clear()
        verify._hv_report.cache_clear()
    assert detail.startswith("rank 1: column check input disagrees: 1 mism")
    assert f"{wrong}: brute {real(1, wrong)} vs closed " in detail, detail


def test_kr_table_names_where_the_companion_doubling_breaks(monkeypatch):
    real = verify.assemble_kr

    def shifted(n, w, max_layer):
        rep = real(n, w, max_layer=max_layer)
        rep.f2_companions = {add_deg(d, (0, -1)): v
                             for d, v in rep.f2_companions.items()}
        return rep

    monkeypatch.setattr(verify, "assemble_kr", shifted)
    # rank 1 has no free classes; the lowest rank-2 companion moves from
    # (9, -1) to (9, -2), which comes first in window order
    assert failed_detail("kr-table") == (
        "rank 2: companion doubling fails: the companions at (9, -2) differ "
        "from the top classes at (10, -1)")


# sha256 of the ``krtool verify`` text with the first ``(N.NNs)`` of each
# line removed, as ``sed -E 's/\([0-9]+\.[0-9]+s\)//'`` does
VERIFY_TEXT_SHA256 = (
    "09b365b30534bb79c11146f98a090677f25d239ca6ad768bedecd18b6cd1e486")


def test_verify_text_keeps_its_digest(capsys):
    """Every suite's detail, timings aside, is byte for byte the text the
    digest was taken from."""
    verify._hv_report.cache_clear()
    kr.chart.cache_clear()
    assert cli.main(["verify"]) == 0
    text = "".join(re.sub(r"\([0-9]+\.[0-9]+s\)", "", line, count=1)
                   for line in capsys.readouterr().out.splitlines(True))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_TEXT_SHA256
    kr.chart.cache_clear()
