"""Detection framework on synthetic multiplication towers, with the
torsion-order criterion as the independent oracle."""

import random
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtool import gf2, graded, verify
from krtool.gf2 import Echelon, F2Matrix, intersect_row_spaces, rank
from krtool.graded import (
    Degree,
    GradedMap,
    GradedSpace,
    Subquotient,
    Window,
    add_deg,
    degrees_where,
    sub_deg,
)
from krtool.towers import (
    ChainComplexReport,
    DetectReport,
    Summand,
    TowerData,
    TowerLevel,
    TowerWitness,
    XTowerSpec,
    build_x_tower,
    chain_complex_at,
    detect,
    filtration,
    oracle_detect,
    random_x_tower_spec,
    validate_tower,
)


def constant_free_tower(levels=(-2, 3)):
    spec = XTowerSpec(1, (Summand("free", 0),))
    return spec, build_x_tower(spec, spec.window(*levels), *levels)


def test_validate_free_tower():
    _, t = constant_free_tower()
    assert validate_tower(t) == []


def test_validate_mixed_tower():
    spec = XTowerSpec(2, (Summand("cyclic", 1, 2), Summand("free", 0),
                          Summand("cyclic", -1, 3)))
    t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
    assert validate_tower(t) == []


def test_broken_tower_is_caught():
    spec = XTowerSpec(1, (Summand("cyclic", 0, 2),))
    t = build_x_tower(spec, spec.window(-2, 3), -2, 3)
    lev = t.levels[0]
    lev.delta = GradedMap(lev.layer, t.levels[1].space, (1, 0))
    assert validate_tower(t) != []


def test_torsion_free_tower_detects_height_one():
    _, t = constant_free_tower()
    for n in (-1, 0, 1):
        assert detect(t, 1, n).holds


def test_filtration_on_truncated_polynomial_tower():
    spec = XTowerSpec(1, (Summand("cyclic", 0, 3),))
    t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
    fil = filtration(t, 0)
    # the colimit vanishes, so the comparison kernel is everything
    assert any(k.nrows for k in fil.t_n.values())
    # order-three torsion: the top class is killed by x and divisible by x
    assert fil.f0[(2, 0)].nrows == 1
    # and the kernel of one structure step is strictly smaller than T
    assert fil.f2.dims().get((0, 0), 0) == 1
    assert not detect(t, 1, 0).holds
    assert not detect(t, 2, 0).holds


def test_spec_example_order_two_and_one():
    spec = XTowerSpec(1, (Summand("cyclic", 0, 2), Summand("cyclic", 0, 1)))
    t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
    assert validate_tower(t) == []
    assert not detect(t, 1, 0).holds
    assert detect(t, 2, 0).holds


def test_monotonicity_of_detection():
    rng = random.Random(42)
    for _ in range(10):
        spec = random_x_tower_spec(rng)
        levels = (-2, 4)
        t = build_x_tower(spec, spec.window(*levels), *levels)
        if detect(t, 1, 0).holds:
            assert detect(t, 2, 0).holds


def test_detection_matches_oracle_randomized():
    rng = random.Random(20260808)
    instances = 0
    for _ in range(100):
        spec = random_x_tower_spec(rng)
        levels = (-2, 4)
        t = build_x_tower(spec, spec.window(*levels), *levels)
        assert validate_tower(t) == []
        for h in (1, 2):
            got = all(detect(t, h, n).holds for n in (0, 1))
            assert got == oracle_detect(spec, h), (spec, h)
        instances += 1
    assert instances == 100


def iota_injective(t: TowerData, n: int) -> bool:
    """The canonical map of the bottom filtration step into the next
    level's top quotient is injective (dimension check)."""
    fil_n = filtration(t, n)
    fil_n1 = filtration(t, n + 1)
    for d in degrees_where(t.region.contains, t.levels[n].space.basis):
        # iota sends F0_n into F2_{n+1} by choosing a preimage along e_{n+1}
        src = fil_n.f0[d]
        if src.nrows == 0:
            continue
        e_span = Echelon(t.levels[n + 1].e.block(d).rows)
        rows = []
        for v in src.rows:
            pre = e_span.coords(v)
            if pre is None:
                return False
            cexp = fil_n1.f2.express(d, pre)
            if cexp is None:
                return False
            rows.append(cexp)
        if Echelon(rows).rank != src.nrows:
            return False
    return True


def test_iota_always_injective():
    rng = random.Random(7)
    for _ in range(20):
        spec = random_x_tower_spec(rng)
        t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
        assert iota_injective(t, 0)


def test_chain_complex_homology_matches_image_filtration():
    rng = random.Random(99)
    saw_noninjective = False
    for _ in range(40):
        spec = random_x_tower_spec(rng)
        levels = (-2, 4)
        t = build_x_tower(spec, spec.window(*levels), *levels)
        rep = chain_complex_at(t, 1)
        assert rep.ok, rep.detail
        assert rep.homology_dims == rep.phi_quotient_dims
        if oracle_detect(spec, 2):
            # under height-two detection the first map embeds
            assert rep.first_injective
        saw_noninjective |= not rep.first_injective
    assert saw_noninjective  # deep torsion does break the embedding


def test_zero_structure_maps_detect_trivially():
    # a tower whose structure maps vanish satisfies height-one detection
    spec = XTowerSpec(1, (Summand("cyclic", 0, 1),))  # x acts by zero
    t = build_x_tower(spec, spec.window(-2, 3), -2, 3)
    for n in (-1, 0, 1):
        assert detect(t, 1, n).holds


# -- name-keyed reference ------------------------------------------------------
# The tower as it was built before its maps were computed from positions:
# every basis vector is named after its summand and power of x, and every
# structure map formats the image's name and looks it up in the target.

def _ref_module_names(spec: XTowerSpec, mdeg: int) -> list[str]:
    out = []
    for i, s in enumerate(spec.summands):
        if (mdeg - s.shift) % spec.xdeg:
            continue
        j = (mdeg - s.shift) // spec.xdeg
        if j < 0:
            continue
        if s.kind == "cyclic" and j >= s.order:
            continue
        out.append(f"{'t' if s.kind == 'cyclic' else 'f'}{i}p{j}")
    return sorted(out)


def _ref_x_image(spec: XTowerSpec, name: str) -> Optional[str]:
    i = int(name[1:name.index("p")])
    j = int(name[name.index("p") + 1:])
    s = spec.summands[i]
    if s.kind == "cyclic" and j + 1 >= s.order:
        return None
    return f"{name[0]}{i}p{j + 1}"


def _ref_build_x_tower(spec: XTowerSpec, window: Window,
                       level_lo: int, level_hi: int) -> TowerData:
    d = spec.xdeg

    def level_space(n: int) -> GradedSpace:
        basis = {}
        for m in range(window.m_lo, window.m_hi + 1):
            names = [f"L{n}.{x}" for x in _ref_module_names(spec, m - n * d)]
            if names:
                basis[(m, 0)] = names
        return GradedSpace(window, basis)

    colim_basis: dict[Degree, list[str]] = {}
    for m in range(window.m_lo, window.m_hi + 1):
        names = []
        for i, s in enumerate(spec.summands):
            if s.kind == "free" and (m - s.shift) % d == 0:
                names.append(f"K.f{i}p{(m - s.shift) // d}")
        if names:
            colim_basis[(m, 0)] = names
    colim = GradedSpace(window, colim_basis)

    spaces = {n: level_space(n) for n in range(level_lo, level_hi + 1)}

    def layer_space(n: int) -> GradedSpace:
        basis: dict[Degree, list[str]] = {}
        for i, s in enumerate(spec.summands):
            gdeg = s.shift + n * d
            if window.m_lo <= gdeg <= window.m_hi:
                tag = "t" if s.kind == "cyclic" else "f"
                basis.setdefault((gdeg, 0), []).append(f"C{n}.q.{tag}{i}p0")
            if s.kind == "cyclic":
                tdeg = s.shift + (s.order - 1) * d + (n + 1) * d - 1
                if window.m_lo <= tdeg <= window.m_hi:
                    basis.setdefault((tdeg, 0), []).append(
                        f"C{n}.g.t{i}p{s.order - 1}")
        return GradedSpace(window, basis)

    layers = {n: layer_space(n) for n in range(level_lo, level_hi + 1)}

    def name_map(src, tgt, shift, fn) -> GradedMap:
        blocks: dict[Degree, F2Matrix] = {}
        for dg in src.degrees():
            td = add_deg(dg, shift)
            rows = []
            for nm in src.names(dg):
                out = fn(dg, nm)
                bits = 0
                if out is not None and out in tgt.names(td):
                    bits = 1 << tgt.index(td, out)
                rows.append(bits)
            blocks[dg] = F2Matrix.from_rows(rows, tgt.dim(td))
        return GradedMap(src, tgt, shift, blocks)

    levels: dict[int, TowerLevel] = {}
    for n in range(level_lo, level_hi + 1):
        sp = spaces[n]

        def e_fn(dg, nm, n=n):
            img = _ref_x_image(spec, nm.split(".", 1)[1])
            return f"L{n - 1}.{img}" if img else None

        def f_fn(dg, nm, n=n):
            base = nm.split(".", 1)[1]
            if base[0] != "f":
                return None
            i = int(base[1:base.index("p")])
            j = int(base[base.index("p") + 1:])
            return f"K.f{i}p{j + n}"

        def c_fn(dg, nm, n=n):
            base = nm.split(".", 1)[1]
            j = int(base[base.index("p") + 1:])
            return f"C{n}.q.{base}" if j == 0 else None

        def delta_fn(dg, nm, n=n):
            kind, base = nm.split(".", 2)[1:]
            return f"L{n + 1}.{base}" if kind == "g" else None

        e = name_map(sp, spaces[n - 1], (0, 0), e_fn) if n - 1 >= level_lo else None
        f = name_map(sp, colim, (0, 0), f_fn)
        c = name_map(sp, layers[n], (0, 0), c_fn)
        delta = (name_map(layers[n], spaces[n + 1], (1, 0), delta_fn)
                 if n + 1 <= level_hi else None)
        levels[n] = TowerLevel(sp, layers[n], e, f, c, delta)

    return TowerData(levels, colim, level_lo, level_hi, window)


def _reports(t: TowerData) -> dict:
    """Every basis-free answer the framework gives on a tower on the
    levels -1..3."""
    return {
        "valid": validate_tower(t),
        "detect": [detect(t, h, n) for h in (1, 2) for n in (0, 1)],
        "filtration": [[{d: k.nrows for d, k in fil.t_n.items() if k.nrows},
                        {d: k.nrows for d, k in fil.f0.items() if k.nrows},
                        fil.f2.dims()]
                       for fil in (filtration(t, 0), filtration(t, 1))],
        "iota": iota_injective(t, 0),
        "chain": chain_complex_at(t, 1),
        "dims": [(lev.space.dims(), lev.layer.dims())
                 for _, lev in sorted(t.levels.items())] + [t.colimit.dims()],
    }


def test_positional_tower_matches_name_keyed_reference():
    rng = random.Random(31)
    specs = [random_x_tower_spec(rng) for _ in range(190)]
    while len(specs) < 200:  # two-digit summand indices
        spec = random_x_tower_spec(rng, max_summands=12)
        if len(spec.summands) > 10:
            specs.append(spec)
    levels = (-1, 3)
    for spec in specs:
        w = spec.window(*levels)
        assert _reports(build_x_tower(spec, w, *levels)) == \
            _reports(_ref_build_x_tower(spec, w, *levels)), spec


# -- the framework against its eager reference -----------------------------------
# The checks as they were before the filtration pieces were built on first
# read: both filtrations built whole, ranks read off fresh row bases, maps
# composed and compared block by block with zero blocks built.

def _ref_compose(f: GradedMap, g: GradedMap) -> GradedMap:
    out = {}
    for d in f.source.degrees():
        out[d] = f.block(d).mul(g.block(add_deg(d, f.shift)))
    return GradedMap(f.source, g.target, add_deg(f.shift, g.shift), out)


def _ref_region_order(t: TowerData, *degree_sets) -> list:
    return sorted({d for ds in degree_sets for d in ds if t.region.contains(d)})


def _ref_exact_at(f: GradedMap, g: GradedMap, d: Degree) -> bool:
    src = sub_deg(d, f.shift)
    if not f.block(src).mul(g.block(d)).is_zero():
        return False
    return rank(f.block(src)) + rank(g.block(d)) == g.source.dim(d)


def _ref_validate_tower(t: TowerData) -> list[TowerWitness]:
    out = []
    for n in range(t.level_lo + 1, t.level_hi + 1):
        lev, prev = t.levels[n], t.levels[n - 1]
        through = _ref_compose(lev.e, prev.f)
        for d in _ref_region_order(t, through.blocks, lev.f.blocks):
            if through.block(d) != lev.f.block(d):
                out.append(TowerWitness(n, d, "colimit maps do not commute"))
                break
    for n in range(t.level_lo, t.level_hi):
        lev, above = t.levels[n], t.levels[n + 1]
        below = [sub_deg(d, (1, 0)) for d in above.space.basis]
        for d in _ref_region_order(t, lev.space.basis, lev.layer.basis, below):
            if not t.region.contains(add_deg(d, (1, 0))):
                continue
            if not _ref_exact_at(above.e, lev.c, d):
                out.append(TowerWitness(n, d, "not exact at the level space"))
                break
            if not _ref_exact_at(lev.c, lev.delta, d):
                out.append(TowerWitness(n, d, "not exact at the layer"))
                break
            if not _ref_exact_at(lev.delta, above.e, add_deg(d, (1, 0))):
                out.append(TowerWitness(n, d, "not exact at the next level"))
                break
    return out


def _ref_filtration(t: TowerData, n: int) -> dict:
    lev, above = t.levels[n], t.levels[n + 1]
    t_n, ker_e, f0 = {}, {}, {}
    for d in _ref_region_order(t, lev.space.basis):
        t_n[d] = lev.f.kernel_at(d)
        ker_e[d] = lev.e.kernel_at(d)
        f0[d] = intersect_row_spaces(ker_e[d], above.e.image_at(d))
    return {"t_n": t_n, "ker_e": ker_e, "f0": f0,
            "f2": Subquotient(lev.space, t_n, ker_e)}


def _ref_detect(t: TowerData, h: int, n: int) -> DetectReport:
    lev = t.levels[n]
    comp = t.levels[n + h].e
    for step in range(h - 1, 0, -1):
        comp = _ref_compose(comp, t.levels[n + step].e)
    for d in _ref_region_order(t, lev.space.basis):
        tn = lev.f.kernel_at(d)
        if tn.nrows == 0:
            continue
        if intersect_row_spaces(tn, comp.image_at(d)).nrows:
            return DetectReport(False, h, n, d)
    return DetectReport(True, h, n, None)


def _ref_chain_complex_at(t: TowerData, n: int) -> ChainComplexReport:
    lev = t.levels[n]
    th_n = _ref_compose(lev.delta, t.levels[n + 1].c)
    th_prev = _ref_compose(t.levels[n - 1].delta, lev.c)
    fil, fil_next = _ref_filtration(t, n), _ref_filtration(t, n + 1)
    below = [sub_deg(d, (1, 0)) for d in t.levels[n + 1].space.basis]
    degrees = _ref_region_order(t, lev.layer.basis, lev.space.basis,
                                t.colimit.basis, below)
    middle = Subquotient(lev.layer, {d: th_n.kernel_at(d) for d in degrees},
                         {d: th_prev.image_at(d) for d in degrees})
    f0_next = Subquotient(t.levels[n + 1].space, fil_next["f0"], {})
    hom_dims, phi_dims, detail = {}, {}, []
    ok = injective = True
    for d in degrees:
        if not t.region.contains(add_deg(d, (1, 0))):
            continue
        f2_reps = fil["f2"].reps(d)
        rows = [middle.express(d, lev.c.apply(d, v)) for v in f2_reps.rows]
        if None in rows:
            ok = False
            detail.append(f"projection does not land in the middle at {d}")
            continue
        cbar = F2Matrix.from_rows(rows, middle.dim(d))
        if rank(cbar) != f2_reps.nrows:
            injective = False
        mid_reps = middle.reps(d)
        dd = add_deg(d, (1, 0))
        rows2 = [f0_next.express(dd, lev.delta.apply(d, v))
                 for v in mid_reps.rows]
        if None in rows2:
            ok = False
            detail.append(f"boundary does not land in the bottom step at {d}")
            continue
        dbar = F2Matrix.from_rows(rows2, f0_next.dim(dd))
        if rank(dbar) != f0_next.dim(dd):
            ok = False
            detail.append(f"second map not surjective at {d}")
        if not cbar.mul(dbar).is_zero():
            ok = False
            detail.append(f"composite nonzero at {d}")
            continue
        hom = (mid_reps.nrows - rank(dbar)) - rank(cbar)
        if hom:
            hom_dims[d] = hom
        q = rank(lev.f.image_at(d)) - rank(t.levels[n + 1].f.image_at(d))
        if q:
            phi_dims[d] = q
        if hom != q:
            ok = False
            detail.append(f"homology {hom} != filtration quotient {q} at {d}")
    return ChainComplexReport(ok, "; ".join(detail) or "certified",
                              hom_dims, phi_dims, injective)


def _break(t: TowerData, rng: random.Random) -> None:
    """Flip one entry of one structure map, so that the checks reach their
    failure branches."""
    maps = [(lev, name, getattr(lev, name)) for lev in t.levels.values()
            for name in ("e", "f", "c", "delta")]
    cells = [(lev, name, mp, d) for lev, name, mp in maps if mp is not None
             for d in mp.source.basis if mp.target.dim(add_deg(d, mp.shift))]
    lev, name, mp, d = rng.choice(cells)
    blk = mp.block(d)
    rows = list(blk.rows)
    rows[rng.randrange(blk.nrows)] ^= 1 << rng.randrange(blk.ncols)
    setattr(lev, name, GradedMap(mp.source, mp.target, mp.shift,
                                 {**mp.blocks, d: F2Matrix.from_rows(rows, blk.ncols)}))


@pytest.mark.parametrize("broken", [False, True], ids=["whole", "broken"])
def test_checks_match_the_eager_reference(broken):
    rng = random.Random(2026 + broken)
    failures = 0
    for _ in range(60):
        spec = random_x_tower_spec(rng)
        t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
        if broken:
            _break(t, rng)
        assert validate_tower(t) == _ref_validate_tower(t), spec
        for h in (1, 2, 3):
            for n in range(-1, 5 - h):
                assert detect(t, h, n) == _ref_detect(t, h, n), (spec, h, n)
        for n in (0, 1, 2):
            got = chain_complex_at(t, n)
            assert got == _ref_chain_complex_at(t, n), (spec, n)
            failures += not got.ok
        for n in range(-1, 4):
            fil, ref = filtration(t, n), _ref_filtration(t, n)
            for piece in ("t_n", "ker_e", "f0"):
                assert getattr(fil, piece) == ref[piece], (spec, n, piece)
            assert fil.f2.dims() == ref["f2"].dims(), (spec, n)
            for d in ref["t_n"]:
                assert fil.f2.reps(d) == ref["f2"].reps(d), (spec, n, d)
    # the broken towers do reach the failure branches of the chain check
    assert (failures > 0) == broken


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
       st.sampled_from([0, 1]))
def test_detect_witness_is_the_first_degree_where_the_spans_meet(seed, h, n):
    spec = random_x_tower_spec(random.Random(seed))
    t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
    lev, comp = t.levels[n], t.levels[n + h].e
    for step in range(h - 1, 0, -1):
        comp = comp.compose(t.levels[n + step].e)
    want = next((d for d in degrees_where(t.region.contains, lev.space.basis)
                 if intersect_row_spaces(lev.f.kernel_at(d),
                                         comp.image_at(d)).nrows), None)
    rep = detect(t, h, n)
    assert rep.witness == want and rep.holds == (want is None)


def test_filtration_builds_only_the_pieces_read():
    spec = XTowerSpec(1, (Summand("cyclic", 0, 3), Summand("free", 1)))
    t = build_x_tower(spec, spec.window(-2, 4), -2, 4)
    pieces = ("t_n", "ker_e", "f0", "f2")
    fil = filtration(t, 1)
    assert not any(p in vars(fil) for p in pieces)
    fil.f2.reps((1, 0))
    assert [p for p in pieces if p in vars(fil)] == ["t_n", "ker_e", "f2"]
    assert fil.f0 is fil.f0
    assert [p for p in pieces if p in vars(fil)] == ["t_n", "ker_e", "f0", "f2"]
    with pytest.raises(ValueError, match="lacks neighbors"):
        filtration(t, 4)


# -- the verifier's towers suite ---------------------------------------------------

TOWERS_OK = ("100 random towers: detection matches the torsion oracle, "
             "chain homology equals the image quotient")


def test_towers_suite_within_budget():
    res = verify.run_suite("towers")
    assert res.ok and res.detail == TOWERS_OK, res.detail
    assert res.seconds < 1, f"towers suite took {res.seconds:.2f}s"


def test_towers_suite_names_the_failed_relation(monkeypatch):
    monkeypatch.setattr(verify, "validate_tower", lambda t: [
        TowerWitness(2, (5, 0), "not exact at the layer"),
        TowerWitness(3, (6, 0), "not exact at the next level")])
    res = verify.run_suite("towers")
    assert not res.ok
    assert res.detail == ("instance 0 fails validation: "
                          "level 2 degree (5, 0): not exact at the layer")


def test_towers_suite_names_the_detection_witness(monkeypatch):
    monkeypatch.setattr(verify, "detect",
                        lambda t, h, n: DetectReport(n == 0, h, n,
                                                     None if n == 0 else (7, 0)))
    monkeypatch.setattr(verify, "oracle_detect", lambda spec, h: True)
    res = verify.run_suite("towers")
    assert res.detail == ("instance 0: height 1 disagrees with oracle "
                          "(fails at level 1 degree (7, 0))")
    monkeypatch.setattr(verify, "oracle_detect", lambda spec, h: h == 1)
    monkeypatch.setattr(verify, "detect",
                        lambda t, h, n: DetectReport(True, h, n, None))
    res = verify.run_suite("towers")
    assert res.detail == ("instance 0: height 2 disagrees with oracle "
                          "(holds at levels 0 and 1)")


def test_towers_suite_names_the_chain_detail(monkeypatch):
    monkeypatch.setattr(verify, "chain_complex_at", lambda t, n: ChainComplexReport(
        False, "homology 1 != filtration quotient 0 at (3, 0)", {(3, 0): 1}, {}))
    res = verify.run_suite("towers")
    assert res.detail == ("instance 0: chain homology mismatch: "
                          "homology 1 != filtration quotient 0 at (3, 0)")


@pytest.mark.parametrize("name", ["left_kernel_basis", "row_basis"])
def test_towers_suite_fails_on_a_wrong_kept_answer(monkeypatch, name):
    # the kernels and images that maps read are kept on their blocks; an
    # answer missing its last row must fail the suite at a named degree
    real = getattr(graded, name)

    def drop_last(m):
        got = real(m)
        if got.nrows < 2:
            return got
        return F2Matrix.from_rows(got.rows[:-1], got.ncols)

    monkeypatch.setattr(graded, name, drop_last)
    ok, detail = verify._suite_towers()
    assert not ok
    assert re.match(r"instance \d+.* at \(-?\d+, -?\d+\)", detail), detail


def test_validate_tower_eliminates_each_stored_block_once(monkeypatch):
    # each exactness check reads a map's block once as the map into a space
    # and once as the map out of one; its rank must be eliminated only once
    eliminated: dict[int, tuple[int, ...]] = {}   # kept alive, so ids stay unique
    repeats, witnesses = [], []

    class Counting(Echelon):
        __slots__ = ()

        def __init__(self, rows=()):
            if id(rows) in eliminated:
                repeats.append(rows)
            eliminated[id(rows)] = rows
            super().__init__(rows)

    def counted(t: TowerData) -> list[TowerWitness]:
        gf2.Echelon = Counting
        try:
            witnesses.append(validate_tower(t))
        finally:
            gf2.Echelon = Echelon
        return witnesses[-1]

    monkeypatch.setattr(verify, "validate_tower", counted)
    res = verify.run_suite("towers")
    assert res.ok and res.detail == TOWERS_OK, res.detail
    assert len(witnesses) == 100 and not any(witnesses)
    assert eliminated and not repeats, (
        f"{len(repeats)} of {len(eliminated) + len(repeats)} eliminations "
        f"repeat a block")
