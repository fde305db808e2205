"""Acceptance-grade verification suites.

Each suite checks one of the headline claims at its stated window and
tolerance (always exact dimension equality) and returns a result record;
the command-line driver and the test suite both run these.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Callable, Optional

from . import closedform as cfm
from .a1 import (
    A1Map,
    dual_a1,
    iso_search,
    loop_power,
    margolis,
    proj_cover_and_loop,
    socle_dims,
    stable_evidence,
    std_a1,
    std_f,
    std_p,
    std_pn,
    suspend,
    tensor_a1,
    validate,
)
from .emod import h01, h01_dual_dims, rel_ext, rel_ext_tate, tate_complex
from .emod import margolis as margolis_e
from .graded import Window, add_deg, shift_mismatch, sub_deg
from .kr import (
    CrossCheckReport,
    assemble_kr,
    compute_f2,
    cross_check_hv,
    detection_h1_borel,
    free_class,
)
from .record import Record
from .rfun import (
    apply_r,
    bockstein_d1,
    check_sec_r,
    cone_crossing,
    cone_part,
    psi_duality,
    required_top,
)
from .towers import (
    build_x_tower,
    chain_complex_at,
    detect,
    oracle_detect,
    random_x_tower_spec,
    validate_tower,
)


class VerifyResult(Record):
    # seconds: the elapsed time, read off a monotonic clock
    __slots__ = ("name", "ok", "detail", "seconds")


def _suite_a1_structure() -> tuple[bool, str]:
    m = std_a1()
    dims = [m.dim(d) for d in range(7)]
    if m.total_dim() != 8 or dims != [1, 1, 1, 2, 1, 1, 1]:
        return False, f"free module dims {dims}"
    bad = validate(m)
    if bad:
        return False, f"relations fail: {bad[0]}"
    if margolis(m, "q0") or margolis(m, "q1"):
        return False, "homology of the free module does not vanish"
    # the Frobenius property behind the free-generator count and
    # ``reduce``'s free splitting
    if iso_search(dual_a1(m), suspend(m, -6), -6, 0) is None:
        return False, "dual of the free module: no isomorphism to its " \
                      "-6 suspension on degrees -6..0"
    return True, "dimension 8, dims [1,1,1,2,1,1,1], relations hold, " \
                 "acyclic, dual to its -6 suspension"


def _suite_h01_a1() -> tuple[bool, str]:
    w = Window(-12, 12, -6, 6)
    rm = apply_r(std_a1(), w)
    top, partner = free_class(0, "top"), free_class(0, "partner")
    dims = h01(rm.emod).dims()
    if dims != {top: 1, partner: 1}:
        return False, f"classes at {sorted(dims)}"
    crossing = cone_crossing(rm)
    if crossing is not None:
        return False, f"free module: a differential leaves its cone at " \
                      f"{crossing}"
    for cone, want in (("+", {top: 1}), ("-", {partner: 1})):
        got = h01(cone_part(rm, cone)).dims()
        if got != want:
            return False, f"free module, {cone} cone: classes at " \
                          f"{sorted(got)}, expected {sorted(want)}"
    bock = bockstein_d1(rm)
    bad = bock.nonzero_square()
    if bad is not None:
        return False, f"free module: Bockstein d1 squares to nonzero at {bad}"
    kernel = bock.kernel_dims()
    if kernel != {top: 1}:
        return False, f"free module: Bockstein kernel at {sorted(kernel)}, " \
                      f"expected [{top}]"
    return True, "exactly two classes, at (6,0) and (3,-2), one per cone; " \
                 "the cones do not meet; the Bockstein d1 squares to zero " \
                 "and keeps (6,0)"


def _suite_h01_pn() -> tuple[bool, str]:
    w = Window(-16, 16, -8, 8)
    checked = 0
    for n in range(5):
        m = std_pn(n, w.m_lo - 1, required_top(w))
        hom = h01(apply_r(m, w).emod)
        dims = hom.dims()
        for d in hom.region:
            if dims.get(d, 0) != cfm.h01_pn_dim(n, d):
                return False, (f"companion {n} disagrees at {d}: brute "
                               f"{dims.get(d, 0)} vs closed "
                               f"{cfm.h01_pn_dim(n, d)}")
            checked += 1
    return True, f"oracle equality at {checked} bidegrees, companions 0..4"


def _suite_socles() -> tuple[bool, str]:
    for n in range(4):
        small = socle_dims(std_pn(n, -2, 22))
        large = socle_dims(std_pn(n, -2, 30))
        for d in range(-1, 19):
            if small.get(d, 0) != cfm.soc_has(n, d):
                return False, f"companion {n} socle wrong at {d}"
            if small.get(d, 0) != large.get(d, 0):
                return False, f"companion {n} socle unstable at {d}"
    return True, ("power-of-four patterns for companions 0 and 1; "
                  "single extra class at 6 resp. 7 for companions 2 and 3, "
                  "stable under window growth")


def _suite_brown_ossa() -> tuple[bool, str]:
    p = std_p(1, 26)
    rep1 = stable_evidence(tensor_a1(p, p), std_pn(2, 0, 26))
    if not rep1.consistent:
        return False, f"tensor square vs second companion: {rep1.detail}"
    rep2 = stable_evidence(loop_power(std_p(1, 26), 4), suspend(std_p(1, 14), 12))
    if not rep2.consistent:
        return False, f"fourth loop vs twelvefold suspension: {rep2.detail}"
    return True, f"tensor square and second companion {rep1.detail}; " \
                 f"fourth loop and twelvefold suspension {rep2.detail}"


def _suite_duality() -> tuple[bool, str]:
    checks = [("trivial", std_f(), Window(-8, 8, -4, 4)),
              ("free", std_a1(), Window(-10, 10, -5, 5)),
              ("projective", std_p(1, 26), Window(-9, 9, -4, 4))]
    for name, m, w in checks:
        cert = psi_duality(m, w)
        if not cert.ok:
            return False, f"{name}: {cert.detail}"
    # the trivial module is not q0-acyclic, and the relation fails for it
    for name, m, w in checks[1:]:
        em = apply_r(m, w).emod
        inner = w.shrink(4, 4, 2, 2)
        bad = next((d for d in sorted(margolis_e(em, "q0"))
                    if inner.contains(d)), None)
        if bad is not None:
            return False, f"{name}: extension not q0-acyclic at {bad}"
        hom, dual = h01(em).dims(), h01_dual_dims(em)
        for d in inner.degrees():
            below = sub_deg(d, (1, 0))
            if hom.get(d, 0) != dual.get(below, 0):
                return False, f"{name}: h01 at {d} is {hom.get(d, 0)} but " \
                              f"the dual route at {below} is " \
                              f"{dual.get(below, 0)}"
    return True, "pairing bijection commutes with both differentials " \
                 "for the trivial, free and projective modules; the free " \
                 "and projective extensions are q0-acyclic, and h01 at d " \
                 "equals the dual route at d-(1,0)"


def _suite_relext() -> tuple[bool, str]:
    w = Window(-10, 10, -5, 5)
    inner = w.shrink(4, 4, 2, 2)
    for label, base in (("companion 0", std_pn(0, -11, required_top(w))),
                        ("free", std_a1())):
        m = apply_r(base, w).emod
        hom, tate = h01(m), tate_complex(m, -3, 0)
        r1, r2, r3 = (rel_ext(m, n, hom) for n in (1, 2, 3))
        for n, direct in ((1, r1), (2, r2)):
            indep = rel_ext_tate(m, n, tate)
            for d in [x for x in set(direct) | set(indep)
                      if inner and inner.contains(x)]:
                if direct.get(d, 0) != indep.get(d, 0):
                    return False, f"{label}: slot {n} differs at {d}"
        for d, v in r1.items():
            if r2.get((d[0] + 2, d[1] + 1), 0) != v:
                return False, f"{label}: recursion 1->2 fails at {d}"
        for d, v in r2.items():
            if r3.get((d[0] + 2, d[1] + 1), 0) != v:
                return False, f"{label}: recursion 2->3 fails at {d}"
    return True, "shifted identification and recursion hold; the Tate " \
                 "route agrees on the interior"


def _suite_les() -> tuple[bool, str]:
    p1 = std_p(1, 20)
    res = proj_cover_and_loop(p1)
    f = A1Map(res.loop, res.cover, res.loop_rows)
    g = A1Map(res.cover, p1, res.epi_blocks)
    out = check_sec_r(f, g, Window(-8, 10, -4, 4))
    if not out.ok:
        return False, out.detail
    return True, f"cover sequence certified; {out.les.slots_checked} slots exact"


def _suite_towers() -> tuple[bool, str]:
    rng = random.Random(20260808)
    for i in range(100):
        spec = random_x_tower_spec(rng)
        t = build_x_tower(spec, -2, 4)
        bad = validate_tower(t)
        if bad:
            return False, f"instance {i} fails validation: {bad[0]}"
        for h in (1, 2):
            fails = next((r for r in (detect(t, h, n) for n in (0, 1))
                          if not r.holds), None)
            if (fails is None) != oracle_detect(spec, h):
                seen = ("holds at levels 0 and 1" if fails is None else
                        f"fails at level {fails.level} degree {fails.witness}")
                return False, f"instance {i}: height {h} disagrees with " \
                              f"oracle ({seen})"
        rep = chain_complex_at(t, 1)
        if not rep.ok or rep.homology_dims != rep.phi_quotient_dims:
            return False, f"instance {i}: chain homology mismatch: {rep.detail}"
    return True, "100 random towers: detection matches the torsion " \
                 "oracle, chain homology equals the image quotient"


def _suite_borel_detect() -> tuple[bool, str]:
    w = Window(-16, 16, -8, 8)
    for n in (1, 2, 3):
        rep = detection_h1_borel(n, w)
        if not rep.certified:
            return False, f"rank {n}: {rep.detail}"
        if rep.unconstrained_dim == 0:
            return False, f"rank {n}: sanity count vanished"
        dims = rep.model.dims()
        bad = shift_mismatch(dims, dims, (-4, 4), w)
        if bad is not None:
            return False, f"rank {n}: Borel model not (-4,4)-periodic at {bad}"
    return True, "Euler-linear endomorphism space vanishes for ranks 1..3; " \
                 "the unconstrained count is nonzero; the Borel model is " \
                 "(-4,4)-periodic"


@functools.cache
def _hv_report(n: int) -> CrossCheckReport:
    """The rank-``n`` cross-check on m -14..14, k -7..7, which the hv and
    kr-table suites share; only the small report is kept, not the chart."""
    return cross_check_hv(n, Window(-14, 14, -7, 7))


def _suite_hv() -> tuple[bool, str]:
    for n in (1, 2):
        rep = _hv_report(n)
        if not rep.ok:
            return False, f"rank {n}: {rep.detail()}"
    return True, "brute force equals closed form plus free part, ranks 1 and 2"


def _suite_kr_table() -> tuple[bool, str]:
    for n in (1, 2):
        failure = _kr_table_failure(n)
        if failure:
            return False, f"rank {n}: {failure}"
    return True, "layer periodicity, doubling, and column sums against the " \
                 "brute-force homology, ranks 1 and 2"


def _kr_table_failure(n: int) -> Optional[str]:
    """What fails in the rank-``n`` chart on m -16..16, k -8..8, or None.
    A function of its own so that one rank's table is freed before the
    next rank's chart is built."""
    w = Window(-16, 16, -8, 8)
    rep = assemble_kr(n, w, max_layer=3)
    bad = rep.layer_periodicity_failure()
    if bad is not None:
        j, d = bad
        return f"layer periodicity fails: layer {j + 1} at " \
               f"{add_deg(d, (1, 1))} differs from layer {j} at {d}"
    d = rep.doubling_failure()
    if d is not None:
        return f"companion doubling fails: the companions at {d} differ " \
               f"from the top classes at {add_deg(d, (1, 1))}"
    partners = compute_f2(n, w).dims("partner", w)
    cc = _hv_report(n)
    if not cc.ok:
        return f"column check input disagrees: {cc.detail()}"
    # column sums: layer zero plus the doubled free classes reproduce
    # the brute-force homology on the common region
    f2cls = rep.f2_classes
    for d in cc.region:
        total = rep.layers[0].get(d, 0) + f2cls.get(d, 0) + partners.get(d, 0)
        if total != cc.brute.get(d, 0):
            return f"column sum fails at {d}"
    return None


SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    "a1-structure": _suite_a1_structure,
    "h01-a1": _suite_h01_a1,
    "h01-pn": _suite_h01_pn,
    "socles": _suite_socles,
    "brown-ossa": _suite_brown_ossa,
    "duality": _suite_duality,
    "relext": _suite_relext,
    "les": _suite_les,
    "towers": _suite_towers,
    "borel-detect": _suite_borel_detect,
    "hv": _suite_hv,
    "kr-table": _suite_kr_table,
}


def run_suite(name: str) -> VerifyResult:
    fn = SUITES[name]
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure with a witness
        return VerifyResult(name, False, f"exception: {exc}", time.perf_counter() - t0)
    return VerifyResult(name, ok, detail, time.perf_counter() - t0)


def run_all(names: list[str] | None = None) -> list[VerifyResult]:
    return [run_suite(n) for n in names or list(SUITES)]
