import numpy as np
import pytest

from frobetti.ffla import FMatrix, rank, rref
from frobetti.linkage import measured_generator_profile
from frobetti.polyring import HomogPoly, basis, dim_P, parse_poly
from frobetti.resolution import (
    BettiTable,
    GradedFreeMap,
    QuotientBasis,
    audit_resolution,
    betti_over_P,
    betti_over_R,
    detect_periodic_tail,
    extract_tail_mf,
    mult_matrix,
    quotient_hilbert,
    resolve_over_P,
    resolve_over_R,
)

CYC3 = "xy2 + yz2 + zx2"
CYC4 = "xy3 + yz3 + zx3"
ALT4 = "x3y - xy3 + x3z - xz3 - yz3"


def P(s, p, n=3):
    return parse_poly(s, p, n)


def random_poly(rng, p, n, deg):
    b = basis(n, deg)
    return HomogPoly(p, n, deg, rng.integers(0, p, size=b.size))


# --- multiplication matrices --------------------------------------------------


def test_mult_matrix_agrees_with_poly_mul():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_poly(rng, 7, 3, int(rng.integers(1, 4)))
        h = random_poly(rng, 7, 3, int(rng.integers(0, 4)))
        prod = (h.coef @ mult_matrix(g, h.deg)) % 7
        assert np.array_equal(prod, (g * h).coef)


def test_mult_matrix_negative_degree_is_empty():
    assert mult_matrix(P("x2", 5), -1).shape == (0, 3)


# --- the hypersurface quotient ------------------------------------------------


def test_quotient_dimensions_match_free_minus_shift():
    Q = QuotientBasis(P(CYC4, 7))
    for j in range(12):
        assert Q.dim(j) == dim_P(3, j) - dim_P(3, j - 4)
        assert Q.std_exps(j).shape[0] == Q.dim(j)


def test_quotient_reduction_kills_multiples_of_f():
    rng = np.random.default_rng(3)
    f = P(CYC4, 7)
    Q = QuotientBasis(f)
    for _ in range(12):
        h = random_poly(rng, 7, 3, int(rng.integers(0, 5)))
        assert not Q.encode(f * h).any()
        g = random_poly(rng, 7, 3, h.deg + 4)
        assert np.array_equal(Q.encode(g + f * h), Q.encode(g))


def test_quotient_reduce_poly_is_idempotent_representative():
    rng = np.random.default_rng(11)
    Q = QuotientBasis(P("x2 + yz", 5))
    for _ in range(10):
        g = random_poly(rng, 5, 3, 4)
        r = Q.reduce_poly(g)
        assert Q.reduce_poly(r) == r
        assert not Q.encode(g + r.scale(4)).any()  # g - r lies in (f)


def test_quotient_mult_composes_like_polynomial_product():
    rng = np.random.default_rng(19)
    Q = QuotientBasis(P(CYC3, 5))
    for _ in range(8):
        g = random_poly(rng, 5, 3, 2)
        h = random_poly(rng, 5, 3, 1)
        left = (Q.mult(g, 2) @ Q.mult(h, 4)) % 5
        assert np.array_equal(left, Q.mult(g * h, 2))


def test_quotient_rejects_zero_modulus():
    with pytest.raises(ValueError):
        QuotientBasis(HomogPoly.zero(5, 3, 2))


# --- Hilbert functions of the quotients ----------------------------------------


def test_quotient_hilbert_against_plain_span_ranks():
    # independent oracle: stack multiplication matrices of all four
    # generators in full P coordinates and subtract the rank
    f = P(CYC3, 5)
    q = 3
    hf = quotient_hilbert(f, q)
    gens = [P("x3", 5), P("y3", 5), P("z3", 5), f]
    for j in range(len(hf)):
        rows = [mult_matrix(g, j - g.deg) for g in gens if g.deg <= j]
        got = dim_P(3, j)
        if rows:
            got -= rank(FMatrix.of(5, np.concatenate(rows)))
        assert hf[j] == got


def test_quotient_hilbert_without_f_is_the_box():
    hf = quotient_hilbert(None, 3, p=5)
    assert hf == [1, 3, 6, 7, 6, 3, 1]
    assert sum(hf) == 27


# --- resolutions over P ---------------------------------------------------------


def test_koszul_resolution_of_the_power_ideal():
    T = betti_over_P(None, 5, p=5)
    assert T.entries == {(0, 0): 1, (1, 5): 3, (2, 10): 3, (3, 15): 1}
    assert T.totals() == [1, 3, 3, 1]


def test_over_P_cyclic_cubic_q7():
    T = betti_over_P(P(CYC4, 7), 7)
    assert T.twists(1) == {4: 1, 7: 3}
    assert T.twists(2) == {11: 3, 12: 8}
    assert T.twists(3) == {13: 8}
    assert T.ring == "P" and T.steps == 3


def test_over_P_step3_twists_mirror_link_generators():
    # the top syzygies of P/(x^q,y^q,z^q,f) sit at 3q - (degree of a
    # generator of the linked ideal beyond the powers), with equal counts
    for fs, p, q in ((CYC4, 7, 7), ("x4 + y4 + z4", 5, 25)):
        f = P(fs, p)
        prof = measured_generator_profile(f, q)
        want = {3 * q - g: m for g, m in prof.counts.items() if g != q}
        assert betti_over_P(f, q).twists(3) == want


def test_over_P_resolution_is_exact():
    audit_resolution(resolve_over_P(P(CYC4, 7), 7))
    audit_resolution(resolve_over_P(None, 3, p=5))


# --- resolutions over the hypersurface ------------------------------------------


def test_over_R_cyclic_cubic_q7_table():
    T = betti_over_R(P(CYC4, 7), 7, 4)
    assert T.totals() == [1, 3, 8, 8, 8]
    assert T.twists(1) == {7: 3}
    assert T.twists(2) == {12: 8}
    assert T.twists(3) == {13: 8}
    assert T.twists(4) == {16: 8}


def test_over_R_cyclic_cubic_q5_table():
    T = betti_over_R(P(CYC3, 5), 5, 4)
    assert T.totals() == [1, 3, 4, 4, 4]
    assert T.twists(2) == {8: 3, 9: 1}
    assert T.twists(3) == {9: 1, 10: 3}
    assert T.twists(4) == {11: 3, 12: 1}


def test_over_R_diagonal_quartic_p5():
    # q=5: infinite tail with two twists per step
    T = betti_over_R(P("x4 + y4 + z4", 5), 5, 4)
    assert T.totals() == [1, 3, 4, 4, 4]
    assert T.twists(2) == {7: 1, 9: 3}
    assert T.twists(3) == {10: 3, 12: 1}
    assert T.twists(4) == {11: 1, 13: 3}
    # q=25: the resolution stops
    T2 = betti_over_R(P("x4 + y4 + z4", 5), 25, 4)
    assert T2.totals() == [1, 3, 2, 0, 0]
    assert T2.twists(2) == {35: 1, 40: 1}


def test_over_R_alternating_quartic_q5():
    T = betti_over_R(P(ALT4, 5), 5, 4)
    assert T.totals() == [1, 3, 8, 8, 8]
    assert T.twists(2) == {9: 8}
    assert T.twists(3) == {10: 8}
    assert T.twists(4) == {13: 8}


def test_over_R_finite_pd_keeps_trailing_zero_steps():
    res = resolve_over_R(P("x4 + y4 + z4", 5), 25, 4)
    assert res.maps[2].src_degs == ()
    assert res.maps[3].src_degs == ()
    assert res.table.steps == 4


def test_over_R_exactness_audits():
    audit_resolution(resolve_over_R(P(CYC4, 7), 7, 4))
    audit_resolution(resolve_over_R(P(CYC3, 5), 5, 4))
    audit_resolution(resolve_over_R(P("x4 + y4 + z4", 5), 25, 3))


def test_over_R_uncertified_cap_raises():
    with pytest.raises(ValueError, match="degree_cap > 8"):
        betti_over_R(P(CYC3, 5), 5, 2, degree_cap=8)


def test_over_R_generous_cap_matches_default():
    f = P(CYC3, 5)
    assert betti_over_R(f, 5, 3, degree_cap=16) == betti_over_R(f, 5, 3)


def test_resolution_maps_validate():
    res = resolve_over_R(P(CYC4, 7), 7, 3)
    for m in res.maps:
        m.validate()
    bad = GradedFreeMap((2,), (0,), ((P("x", 7),),))
    with pytest.raises(ValueError):
        bad.validate()


# --- Betti table serialization ---------------------------------------------------


def test_betti_table_json_roundtrip():
    T = betti_over_R(P(CYC4, 7), 7, 4)
    assert BettiTable.from_json(T.to_json()) == T
    assert '"ring":"R"' in T.to_json()


def test_betti_table_grid_format():
    T = betti_over_R(P(CYC4, 7), 7, 4)
    assert T.to_grid() == (
        "       0 1 2 3 4\n"
        "total: 1 3 8 8 8\n"
        "    0: 1 . . . .\n"
        "    6: . 3 . . .\n"
        "   10: . . 8 8 .\n"
        "   12: . . . . 8\n"
    )


def test_betti_table_rejects_unknown_ring():
    with pytest.raises(ValueError):
        BettiTable("Q", 3, {})


# --- periodicity detection --------------------------------------------------------


def test_tail_detected_for_cyclic_cubic_q7():
    tail = detect_periodic_tail(betti_over_R(P(CYC4, 7), 7, 4))
    assert tail.found
    assert tail.start == 2
    assert tail.rank == 8
    assert tail.gaps == (1, 3)
    assert tail.twists == (12, 13, 16)


def test_tail_absent_reports_rather_than_raises():
    no_koszul = detect_periodic_tail(betti_over_P(None, 5, p=5))
    assert not no_koszul.found and no_koszul.message == "no tail"
    # two twists per step: periodic in a wider sense, but not the
    # single-twist alternating shape this detector certifies
    assert not detect_periodic_tail(betti_over_R(P("x4 + y4 + z4", 5), 5, 4)).found
    # finite projective dimension
    assert not detect_periodic_tail(betti_over_R(P("x4 + y4 + z4", 5), 25, 4)).found


def test_tail_shift_between_frobenius_powers():
    f = P(ALT4, 5)
    t1 = detect_periodic_tail(betti_over_R(f, 5, 4))
    t2 = detect_periodic_tail(betti_over_R(f, 25, 4))
    assert t1.found and t2.found
    assert t1.rank == t2.rank == 8
    assert t1.gaps == t2.gaps == (1, 3)
    shift = 3 * (25 - 5) // 2
    assert tuple(j + shift for j in t1.twists) == t2.twists


# --- matrix factorizations ---------------------------------------------------------


def test_extract_tail_mf_cyclic_cubic_q7():
    f = P(CYC4, 7)
    mf = extract_tail_mf(f, 7, 3)
    assert mf.size == 8
    assert mf.a_degree == 1 and mf.b_degree == 3
    assert mf.verify()
    for row in mf.a:
        for e in row:
            assert e is None or e.deg == 1


def test_extract_tail_mf_before_tail_raises():
    with pytest.raises(ValueError, match="tail"):
        extract_tail_mf(P(CYC4, 7), 7, 2)


def test_extract_tail_mf_without_tail_raises():
    with pytest.raises(ValueError, match="no periodic tail"):
        extract_tail_mf(P("x4 + y4 + z4", 5), 25, 3)


def test_over_R_exact_at_largest_admitted_prime():
    f = P("-xy2 - 2yz2 - 3zx2 - x3", 2**31 - 1)
    res = resolve_over_R(f, 5, 4)
    assert res.table.totals() == [1, 3, 4, 4, 4]
    audit_resolution(res)
