from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from regulus import (
    NotSquarefree,
    ZeroElement,
    field_norm,
    is_unit,
    log_embed,
    make_field,
    torsion_units,
)


def test_make_field_discriminants():
    assert make_field(2).discriminant == 8
    assert make_field(13).discriminant == 52
    with pytest.raises(NotSquarefree):
        make_field(12)
    with pytest.raises(ValueError):
        make_field(1)


def test_field_invariants():
    f = make_field(13)
    assert f.signature == (2, 0)
    assert f.rank == 1


def test_log_embed_examples():
    f = make_field(2)
    one = f.element(1)
    v = log_embed(one, 96)
    assert v.as_floats() == (0.0, 0.0)

    silver = f.element(1, 1)          # 1 + sqrt(2)
    v = log_embed(silver, 96)
    assert abs(float(v.components[0]) - 0.881373587019543) < 1e-12
    assert abs(float(v.components[1]) + 0.881373587019543) < 1e-12

    root2 = f.element(0, 1)
    v = log_embed(root2, 96)
    assert abs(float(v.components[0]) - 0.34657359027997264) < 1e-12
    assert abs(float(v.components[1]) - 0.34657359027997264) < 1e-12


def test_log_embed_zero_raises():
    f = make_field(2)
    with pytest.raises(ZeroElement):
        log_embed(f.element(0), 96)


def test_field_norm_examples():
    assert field_norm(make_field(2).element(1, 1)) == -1
    assert field_norm(make_field(2).element(1)) == 1
    assert field_norm(make_field(5).element(2, 1)) == -1
    assert field_norm(make_field(5).element(1, 1, 2)) == Fraction(-4, 4)


def test_is_unit_examples():
    f2 = make_field(2)
    assert is_unit(f2, f2.element(1, 1))
    assert not is_unit(f2, f2.element(2))
    f5 = make_field(5)
    # (1+sqrt(5))/2 is a unit of the maximal order but not of Z[sqrt(5)]
    assert not is_unit(f5, f5.element(1, 1, 2))


def test_torsion_units():
    for d in (2, 13, 79):
        f = make_field(d)
        tu = torsion_units(f)
        assert tu == {f.element(1), f.element(-1)}
        assert len(tu) == 2


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 9))
def test_log_components_sum_to_log_norm(a, b, c):
    f = make_field(7)
    el = f.element(a, b, c)
    if el.is_zero():
        return
    p = 96
    v = log_embed(el, p)
    with mp.workprec(p + 32):
        num = field_norm(el)
        expected = mp.log(abs(mp.mpf(num.numerator) / num.denominator))
        err = abs(v.sum() - expected)
    assert float(err) <= 2.0 ** (1 - p)


@given(st.integers(-15, 15), st.integers(-15, 15),
       st.integers(-15, 15), st.integers(-15, 15))
def test_log_additivity(a, b, a2, b2):
    f = make_field(3)
    x, y = f.element(a, b), f.element(a2, b2)
    if x.is_zero() or y.is_zero():
        return
    p = 96
    lhs = log_embed(x * y, p)
    rhs = log_embed(x, p) + log_embed(y, p)
    with mp.workprec(p + 32):
        for u, v in zip(lhs.components, rhs.components):
            assert abs(float(u - v)) <= 2.0 ** (2 - p)


def test_unit_log_sum_zero_and_product_closure():
    f = make_field(13)
    eps = f.element(18, 5)            # fundamental unit of Z[sqrt(13)]
    assert is_unit(f, eps)
    v = log_embed(eps, 96)
    with mp.workprec(128):
        assert abs(float(v.sum())) <= 2.0 ** (1 - 96)
    sq = eps * eps
    assert is_unit(f, sq)
    assert is_unit(f, sq * eps)


def test_element_canonical_form():
    f = make_field(13)
    assert f.element(2, 4, -6) == f.element(-1, -2, 3)
    assert f.element(2, 4, 6).c == 3
