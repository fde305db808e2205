"""Detection framework on synthetic multiplication towers, with the
torsion-order criterion as the independent oracle."""

import random
from typing import Optional

from krtool.gf2 import F2Matrix
from krtool.graded import Degree, GradedMap, GradedSpace, Window, add_deg
from krtool.towers import (
    Summand,
    TowerData,
    TowerLevel,
    XTowerSpec,
    build_x_tower,
    chain_complex_at,
    detect,
    filtration,
    iota_injective,
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
    from krtool.graded import zero_map
    lev.delta = zero_map(lev.layer, t.levels[1].space, (1, 0))
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
    assert fil.dims("T")
    # order-three torsion: the top class is killed by x and divisible by x
    assert fil.dims("F0").get((2, 0), 0) == 1
    # and the kernel of one structure step is strictly smaller than T
    assert fil.dims("F2").get((0, 0), 0) == 1
    assert fil.dims("F1") == {}
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
                if out is not None and tgt.has(td, out):
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
        "filtration": [[fil.dims(w) for w in ("T", "F0", "F1", "F2")]
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


def test_tower_names_sort_in_summand_order():
    spec = XTowerSpec(1, tuple(Summand("cyclic", 0, 2) for _ in range(11)))
    t = build_x_tower(spec, spec.window(-1, 1), -1, 1)
    assert t.levels[0].space.names((0, 0)) == \
        tuple(f"L0.{i:02}" for i in range(11))
    assert t.levels[0].layer.names((1, 0))[:2] == ("C0.g.00", "C0.g.01")
    # the top class of summand 10 reaches the next level's top class
    assert t.levels[0].delta.block((1, 0)).rows[10] == 1 << 10
