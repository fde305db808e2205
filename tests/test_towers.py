"""Detection framework on synthetic multiplication towers, with the
torsion-order criterion as the independent oracle."""

import random

from krtool.towers import (
    Summand,
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
