"""Coefficient ring: degrees, differentials, pairing, products."""

import dataclasses

import pytest

from krtool.a1 import std_f
from krtool.coeff import (
    A,
    S,
    CoeffMonomial,
    duality_w,
    monomials_with_twist,
    multiply,
    q0_coeff,
    q1_coeff,
)
from krtool.emod import validate
from krtool.graded import Window
from krtool.rfun import apply_r


def mono(text):
    return CoeffMonomial.parse(text)


def test_degrees():
    assert mono("1").degree() == (0, 0)
    assert A.degree() == (0, 1)
    assert S.degree() == (-1, 1)
    assert mono("a2.s1").degree() == (-1, 3)
    assert mono("S2").degree() == (2, -2)
    assert mono("A1.S2").degree() == (2, -3)


def test_name_roundtrip():
    for text in ("1", "a3", "s2", "a1.s4", "S2", "A2.S5"):
        assert mono(text).name() == text
        assert CoeffMonomial.parse(mono(text).name()) == mono(text)


def test_q0_positive_printed_formula():
    assert q0_coeff(mono("a2.s1")) == mono("a3")
    assert q0_coeff(mono("a1.s2")) is None
    assert q0_coeff(mono("1")) is None


def test_q0_negative_transpose():
    # lowest dual monomial with an even orientation exponent and room
    assert q0_coeff(mono("A1.S2")) == mono("S3")
    assert q0_coeff(mono("S2")) is None
    assert q0_coeff(mono("A1.S3")) is None


def test_q1_positive_printed_formula():
    assert q1_coeff(mono("s2")) == mono("a3")
    assert q1_coeff(mono("s4")) is None
    assert q1_coeff(mono("a1.s3")) == mono("a4.s1")


def test_q1_negative_transpose():
    assert q1_coeff(mono("A3.S2")) == mono("S4")
    assert q1_coeff(mono("A2.S2")) is None
    assert q1_coeff(mono("A3.S4")) is None


def test_duality_involution():
    for text in ("1", "a2", "a1.s3", "S2", "A4.S7"):
        assert duality_w(duality_w(mono(text))) == mono(text)
    assert duality_w(mono("1")) == mono("S2")
    assert duality_w(A) == mono("A1.S2")


def test_pairing_degree():
    for text in ("1", "a2", "s3", "a1.s1"):
        x = mono(text)
        y = duality_w(x)
        dx, dy = x.degree(), y.degree()
        assert (dx[0] + dy[0], dx[1] + dy[1]) == (2, -2)


def test_multiply():
    assert multiply(S, S) == mono("s2")
    assert multiply(A, mono("S2")) is None
    assert multiply(A, mono("A1.S2")) == mono("S2")
    assert multiply(A, A) == mono("a2")
    with pytest.raises(ValueError):
        multiply(mono("S2"), mono("S2"))


def test_transpose_adjunction_oracle():
    """The dual action satisfies <Q x, l> = <x, Q l> for every pairing."""
    monos = [CoeffMonomial("+", j, n) for j in range(5) for n in range(7)]
    duals = [duality_w(x) for x in monos]
    for q in (q0_coeff, q1_coeff):
        for theta in duals:
            qtheta = q(theta)
            for ell in monos:
                lhs = 1 if qtheta is not None and duality_w(qtheta) == ell else 0
                qell = q(ell)
                rhs = 1 if qell is not None and duality_w(theta) == qell else 0
                assert lhs == rhs, (q.__name__, theta.name(), ell.name())


def test_square_zero_and_commutation():
    monos = [CoeffMonomial("+", j, n) for j in range(4) for n in range(9)]
    monos += [CoeffMonomial("-", m, n) for m in range(6) for n in range(7)]
    for x in monos:
        y = q0_coeff(x)
        assert y is None or q0_coeff(y) is None
        z = q1_coeff(x)
        assert z is None or q1_coeff(z) is None
        a = q0_coeff(x)
        ab = q1_coeff(a) if a else None
        b = q1_coeff(x)
        ba = q0_coeff(b) if b else None
        assert ab == ba


def test_euler_linearity():
    monos = [CoeffMonomial("+", j, n) for j in range(4) for n in range(8)]
    monos += [CoeffMonomial("-", m, n) for m in range(6) for n in range(6)]
    for q in (q0_coeff, q1_coeff):
        for x in monos:
            lhs = q(multiply(A, x)) if multiply(A, x) else None
            qx = q(x)
            rhs = multiply(A, qx) if qx else None
            assert lhs == rhs, (q.__name__, x.name())


def test_cartan_vanishing_products():
    """On vanishing products of a positive and a dual monomial the three
    Cartan terms cancel."""
    pos = [CoeffMonomial("+", j, n) for j in range(3) for n in range(6)]
    neg = [CoeffMonomial("-", m, n) for m in range(5) for n in range(5)]

    def times(h, x):
        return multiply(h, x) if h is not None and x is not None else None

    for h in pos:
        for x in neg:
            if multiply(h, x) is not None:
                continue
            t1 = times(q1_coeff(h), x)
            q0h = q0_coeff(h)
            t2 = times(multiply(A, q0h) if q0h else None, q0_coeff(x))
            t3 = times(h, q1_coeff(x))
            terms = [t for t in (t1, t2, t3) if t is not None]
            # the sum must vanish: nonzero terms cancel in pairs
            names = sorted(t.name() for t in terms)
            while names:
                a_, b_ = names[0], names[1] if len(names) > 1 else None
                assert b_ == a_, (h.name(), x.name(), names)
                names = names[2:]


def test_ring_window_dims_match_picture():
    # the coefficient extension of the trivial module is the ring itself
    w = Window(-6, 6, -6, 6)
    ring = apply_r(std_f(), w).emod
    # positive cone: one class per (j, n); the twist -1 column is empty
    assert ring.dim((0, 0)) == 1
    assert ring.dim((0, 1)) == 1      # Euler class
    assert ring.dim((-1, 1)) == 1     # orientation class
    assert ring.dim((2, -2)) == 1     # bottom dual class
    for m in range(-6, 7):
        assert ring.dim((m, -1)) == 0
    assert validate(ring) == []


# monomials_with_twist(k), as names, for k in -6..6
TWIST_NAMES = {
    -6: "A4.S2 A3.S3 A2.S4 A1.S5 S6", -5: "A3.S2 A2.S3 A1.S4 S5",
    -4: "A2.S2 A1.S3 S4", -3: "A1.S2 S3", -2: "S2", -1: "", 0: "1",
    1: "a1 s1", 2: "a2 a1.s1 s2", 3: "a3 a2.s1 a1.s2 s3",
    4: "a4 a3.s1 a2.s2 a1.s3 s4", 5: "a5 a4.s1 a3.s2 a2.s3 a1.s4 s5",
    6: "a6 a5.s1 a4.s2 a3.s3 a2.s4 a1.s5 s6",
}


def test_monomials_keep_their_value_semantics():
    keys = [(c, e1, e2) for c in "+-" for e1 in range(4) for e2 in range(4)]
    made = [CoeffMonomial(*k) for k in keys]
    for k, x in zip(keys, made):
        y = CoeffMonomial(*k)
        assert x == y and x is not y and hash(x) == hash(y) == hash(k)
    table = dict.fromkeys(made)
    assert all(CoeffMonomial(*k) in table for k in keys)
    assert len(set(made)) == len(keys)
    for name in ("cone", "e1", "e2"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made[5], name, getattr(made[6], name))
    assert (made[5].cone, made[5].e1, made[5].e2) == keys[5]
    for k, names in TWIST_NAMES.items():
        got = list(monomials_with_twist(k))
        assert [m.name() for m in got] == names.split()
        assert all(m.degree()[1] == k for m in got)
