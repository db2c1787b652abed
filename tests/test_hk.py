"""Hilbert-Kunz values: closed form vs direct degreewise counts."""

from fractions import Fraction

import pytest

from frobetti.hk import HKReport, hk_direct, hk_formula, hilbert_series_check
from frobetti.polyring import parse_poly
from frobetti.resolution import quotient_hilbert


def P(s, p, n=3):
    return parse_poly(s, p, n)


# --- closed form ---


def test_formula_frozen_values():
    assert hk_formula(4, 7) == 142
    assert hk_formula(4, 25) == 1870
    assert hk_formula(4, 49) == 7198


def test_formula_is_exact_rational():
    v = hk_formula(1, 7)
    assert v == Fraction(147, 4)
    assert v.denominator == 4
    # leading behavior: difference from (3/4)dq^2 is constant in q
    assert hk_formula(5, 9) - Fraction(3 * 5 * 81, 4) == hk_formula(5, 27) - Fraction(3 * 5 * 729, 4)


# --- direct count ---


def test_direct_cyc4_q7():
    r = hk_direct(P("xy3 + yz3 + zx3", 7), 7)
    assert isinstance(r, HKReport)
    assert r.direct == 142
    assert r.formula == 142
    assert r.agrees()
    assert r.opposite_parity
    assert r.q == 7


def test_profile_equals_quotient_hilbert():
    # same numbers through a path that eliminates every degree separately
    for s, p, q in [("xy3 + yz3 + zx3", 7, 7), ("xy2 + yz2 + zx2", 5, 5)]:
        f = P(s, p)
        r = hk_direct(f, q)
        assert list(r.profile) == quotient_hilbert(f, q)
        assert r.direct == sum(r.profile)


def test_direct_alt4_q25():
    r = hk_direct(P("x3y - xy3 + x3z - xz3 - yz3", 5), 25)
    assert r.direct == 1870
    assert r.agrees()
    assert r.opposite_parity


def test_formula_fails_without_compressed_link():
    # x^4+y^4+z^4 in char 5: the q=25 count overshoots the closed form
    f = P("x4 + y4 + z4", 5)
    r = hk_direct(f, 25)
    assert r.direct == sum(quotient_hilbert(f, 25))
    assert r.formula == 1870
    assert r.direct == 1900
    assert not r.agrees()


def test_scaling_invariance():
    f = P("xy3 + yz3 + zx3", 7)
    a = hk_direct(f, 7)
    b = hk_direct(f.scale(3), 7)
    assert a.profile == b.profile
    assert a.direct == b.direct


def test_direct_is_a_proper_quotient_of_the_box():
    r = hk_direct(P("xy3 + yz3 + zx3", 7), 7)
    assert 0 < r.direct < 7**3


def test_same_parity_reported():
    r = hk_direct(P("xy2 + yz2 + zx2", 5), 5)
    assert not r.opposite_parity  # d = 3, p = 5


def test_four_variables_has_no_formula():
    f = P("x2 + y2 + z2 + w2", 3, n=4)
    r = hk_direct(f, 3)
    assert r.formula is None
    assert list(r.profile) == quotient_hilbert(f, 3)
    assert 0 < r.direct < 3**4


# --- series check ---


def test_series_check_confirms_cyc4_q7():
    assert hilbert_series_check(P("xy3 + yz3 + zx3", 7), 7) is True


def test_series_check_confirms_alt4_q25():
    assert hilbert_series_check(P("x3y - xy3 + x3z - xz3 - yz3", 5), 25) is True


def test_series_check_inapplicable_small_q():
    assert hilbert_series_check(P("xy3 + yz3 + zx3", 7), 5) == "inapplicable"


def test_series_check_inapplicable_same_parity():
    assert hilbert_series_check(P("xy2 + yz2 + zx2", 5), 25) == "inapplicable"


def test_series_check_inapplicable_uncompressed():
    assert hilbert_series_check(P("x4 + y4 + z4", 5), 25) == "inapplicable"


def test_series_check_inapplicable_four_variables():
    from frobetti.invsys import random_compressed_search

    f = random_compressed_search(3, 4, 2, 9, seed=3)
    assert f.n == 4
    assert hilbert_series_check(f, 9) == "inapplicable"


@pytest.mark.parametrize("q", [0, -5])
def test_hk_direct_refuses_q_below_one(q):
    with pytest.raises(ValueError, match="q must be >= 1"):
        hk_direct(P("xy2 + yz2 + zx2", 5), q)
