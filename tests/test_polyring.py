import numpy as np
import pytest

from frobetti.polyring import (
    DividedElem,
    HomogPoly,
    basis,
    contract,
    dim_P,
    mono_div,
    mono_mul,
    parse_poly,
    poly_apply,
    poly_mul,
)


def test_dim_P():
    assert dim_P(3, 0) == 1
    assert dim_P(3, 2) == 6
    assert dim_P(3, 7) == 36
    assert dim_P(4, 2) == 10
    assert dim_P(3, -1) == 0
    assert dim_P(1, 5) == 1


def test_basis_order_glex_descending():
    b = basis(3, 2)
    assert [tuple(e) for e in b.exps] == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_rank_unrank_roundtrip():
    for n in range(1, 6):
        for d in range(0, 41, 8):
            b = basis(n, d)
            assert b.size == dim_P(n, d)
            got = b.rank_rows(b.exps)
            assert np.array_equal(got, np.arange(b.size))


def test_rank_scalar_matches():
    b = basis(3, 5)
    for i in [0, 1, 7, b.size - 1]:
        assert b.rank(b.unrank(i)) == i


def test_contract_single_variable():
    g = DividedElem.monomial(5, 1, (3,))
    got = contract((1,), g)
    assert got == DividedElem.monomial(5, 1, (2,))


def test_contract_overflow_drops_term():
    g = DividedElem.monomial(5, 2, (1, 2))
    got = contract((2, 0), g)
    assert got.is_zero()


def test_contract_linear():
    g = DividedElem.from_terms(5, 3, 2, {(1, 1, 0): 1, (0, 0, 2): 1})
    got = contract((1, 0, 0), g)
    assert got == DividedElem.monomial(5, 3, (0, 1, 0))


def test_contract_underflow_raises():
    g = DividedElem.monomial(5, 2, (1, 0))
    with pytest.raises(ValueError, match="degree underflow"):
        contract((1, 1), g)


def test_contract_is_an_action():
    rng = np.random.RandomState(2)
    p, n = 7, 3
    for _ in range(20):
        m1 = tuple(rng.randint(0, 3, size=n))
        m2 = tuple(rng.randint(0, 3, size=n))
        gdeg = sum(m1) + sum(m2) + rng.randint(0, 3)
        g = DividedElem(p, n, gdeg, rng.randint(0, p, size=dim_P(n, gdeg)))
        lhs = contract(mono_mul(m1, m2), g)
        rhs = contract(m1, contract(m2, g))
        assert lhs == rhs


def test_poly_apply_identity():
    p, n = 7, 3
    rng = np.random.RandomState(3)
    phi = DividedElem(p, n, 4, rng.randint(0, p, size=dim_P(n, 4)))
    one = HomogPoly.from_terms(p, n, 0, {(0, 0, 0): 1})
    assert poly_apply(one, phi) == phi


def test_poly_apply_squares():
    p, n = 5, 3
    phi = DividedElem.from_terms(p, n, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    x2 = HomogPoly.monomial(p, n, (2, 0, 0))
    xy = HomogPoly.monomial(p, n, (1, 1, 0))
    assert poly_apply(x2, phi) == DividedElem.from_terms(p, n, 0, {(0, 0, 0): 1})
    assert poly_apply(xy, phi).is_zero()


def test_poly_apply_bilinear():
    rng = np.random.RandomState(5)
    p, n = 5, 3
    for _ in range(10):
        a = HomogPoly(p, n, 2, rng.randint(0, p, size=dim_P(n, 2)))
        b = HomogPoly(p, n, 2, rng.randint(0, p, size=dim_P(n, 2)))
        g = DividedElem(p, n, 5, rng.randint(0, p, size=dim_P(n, 5)))
        h = DividedElem(p, n, 5, rng.randint(0, p, size=dim_P(n, 5)))
        assert poly_apply(a + b, g) == poly_apply(a, g) + poly_apply(b, g)
        assert poly_apply(a, g + h) == poly_apply(a, g) + poly_apply(a, h)
        c = int(rng.randint(0, p))
        assert poly_apply(a.scale(c), g) == poly_apply(a, g).scale(c)


def test_poly_mul_basics():
    p, n = 7, 3
    one = HomogPoly.from_terms(p, n, 0, {(0, 0, 0): 1})
    f = HomogPoly.from_terms(p, n, 4, {(1, 3, 0): 1, (0, 1, 3): 1, (3, 0, 1): 1})
    assert poly_mul(one, f) == f
    x = HomogPoly.monomial(p, n, (1, 0, 0))
    y = HomogPoly.monomial(p, n, (0, 1, 0))
    assert poly_mul(x, y) == HomogPoly.monomial(p, n, (1, 1, 0))


def test_frobenius_square_char2():
    x_plus_y = HomogPoly.from_terms(2, 2, 1, {(1, 0): 1, (0, 1): 1})
    sq = poly_mul(x_plus_y, x_plus_y)
    assert sq == HomogPoly.from_terms(2, 2, 2, {(2, 0): 1, (0, 2): 1})


def test_poly_mul_commutes_and_associates():
    rng = np.random.RandomState(11)
    p, n = 5, 3
    for _ in range(5):
        a = HomogPoly(p, n, 1, rng.randint(0, p, size=dim_P(n, 1)))
        b = HomogPoly(p, n, 2, rng.randint(0, p, size=dim_P(n, 2)))
        c = HomogPoly(p, n, 1, rng.randint(0, p, size=dim_P(n, 1)))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_mono_div():
    assert mono_div((3, 1, 0), (1, 1, 0)) == (2, 0, 0)
    assert mono_div((1, 0, 0), (0, 1, 0)) is None


def test_leading_term_glex():
    f = HomogPoly.from_terms(5, 3, 4, {(1, 3, 0): 2, (3, 0, 1): 1})
    assert f.leading() == ((3, 0, 1), 1)


def test_parse_poly_variants():
    p, n = 7, 3
    f1 = parse_poly("x*y^3 + y*z^3 + z*x^3", p, n)
    f2 = parse_poly("xy3+yz3+zx3", p, n)
    f3 = parse_poly("xy^3 + yz^3 + x^3z", p, n)
    expected = HomogPoly.from_terms(
        p, n, 4, {(1, 3, 0): 1, (0, 1, 3): 1, (3, 0, 1): 1}
    )
    assert f1 == f2 == f3 == expected


def test_parse_poly_signs_and_coeffs():
    got = parse_poly("x3y - xy3 + 2*z^4", 5, 3)
    assert got == HomogPoly.from_terms(
        5, 3, 4, {(3, 1, 0): 1, (1, 3, 0): -1, (0, 0, 4): 2}
    )


def test_parse_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        parse_poly("x + y^2", 5, 3)


def test_parse_poly_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("x + w", 5, 3)


def test_str_parse_roundtrip():
    rng = np.random.RandomState(13)
    p, n, d = 11, 3, 3
    for _ in range(10):
        f = HomogPoly(p, n, d, rng.randint(0, p, size=dim_P(n, d)))
        if f.is_zero():
            continue
        assert parse_poly(str(f), p, n) == f


def test_incompatible_pieces_raise():
    a = HomogPoly.zero(5, 3, 2)
    b = HomogPoly.zero(5, 3, 3)
    with pytest.raises(ValueError):
        _ = a + b


# --- products at the top of the admitted p range and shared index maps ---


def test_poly_mul_large_p_collisions_match_python_ints():
    # x*yz, y*xz and z*xy all land on xyz: three products of size ~2^62
    p, n = 2**31 - 1, 3
    a = HomogPoly.from_terms(p, n, 1, {(1, 0, 0): p - 1, (0, 1, 0): p - 2, (0, 0, 1): p - 3})
    b = HomogPoly.from_terms(
        p, n, 2, {(0, 1, 1): p - 1, (1, 0, 1): p - 5, (1, 1, 0): p - 7, (2, 0, 0): p - 11}
    )
    want: dict = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            m = mono_mul(ma, mb)
            want[m] = (want.get(m, 0) + ca * cb) % p
    assert poly_mul(a, b) == HomogPoly.from_terms(p, n, 3, want)


def test_mul_ranks_and_contract_match_shifted_exponents():
    from frobetti.polyring import mul_ranks

    rng = np.random.RandomState(5)
    for n in range(1, 5):
        for a in range(4):
            src = basis(n, a)
            for k in range(3):
                for m in basis(n, k).exps:
                    tgt = basis(n, a + k)
                    want = np.array([tgt.rank(tuple(e + m)) for e in src.exps], dtype=np.int64)
                    assert np.array_equal(mul_ranks(a, src.exps, m), want)
                    rows = src.exps[::2]
                    assert np.array_equal(mul_ranks(a, rows, m), want[::2])
                    g = DividedElem(7, n, a + k, rng.randint(0, 7, size=tgt.size))
                    old = np.zeros(src.size, dtype=np.int64)
                    for I, c in zip(tgt.exps, g.coef):
                        if (I >= m).all():
                            old[src.rank(tuple(I - m))] += c
                    assert contract(tuple(m), g) == DividedElem(7, n, a, old)
