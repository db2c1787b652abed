import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frobetti.ffla import FMatrix, rank
from frobetti.invsys import MultigradeSplitter, Rng64, bbasis, dim_B, is_relatively_compressed, random_compressed_search
from frobetti.linkage import (
    _fmul_rows,
    fmul_rank,
    ku_shift_check,
    link_inverse_poly,
    measured_generator_profile,
    predicted_generator_profile,
    quotient_hilbert,
    socle_direct,
    socle_via_link,
)
from frobetti.koszul import truncated_degree_ledger
from frobetti.polyring import DividedElem, HomogPoly, basis, dim_P, parse_poly


def P(s, p, n=3):
    return parse_poly(s, p, n)


def D(s, p, n=3):
    return parse_poly(s, p, n, cls=DividedElem)


# --- link inverse polynomial ------------------------------------------------


def test_link_inverse_xy_q3():
    assert link_inverse_poly(P("xy", 5), 3) == D("x1y1z2", 5)


def test_link_inverse_diagonal_quartic():
    phi = link_inverse_poly(P("x4 + y4 + z4", 7), 7)
    assert phi == D("x2y6z6 + x6y2z6 + x6y6z2", 7)
    assert phi.deg == 3 * 6 - 4


def test_link_inverse_degree_too_big():
    with pytest.raises(ValueError):
        link_inverse_poly(P("x4 + y4 + z4", 5), 4)
    with pytest.raises(ValueError):
        link_inverse_poly(P("x4 + y4 + z4", 5), 3)


def test_link_inverse_degree_one_warns():
    with pytest.warns(RuntimeWarning):
        phi = link_inverse_poly(P("x", 5), 3)
    assert phi == D("x1y2z2", 5)


def test_link_inverse_coefficients_carry_over():
    phi = link_inverse_poly(P("2x2y - 3yz2", 7), 5)
    assert phi == D("2x2y3z4 + 4x4y3z2", 7)


# --- measured generator profiles --------------------------------------------


def test_profile_cyclic_cubic_q25():
    f = P("xy2 + yz2 + zx2", 5)
    prof = measured_generator_profile(f, 25)
    assert prof.counts == {25: 3, 35: 3, 36: 1}
    assert prof.ci_minimal


def test_profile_diagonal_quartic_q7():
    f = P("x4 + y4 + z4", 7)
    prof = measured_generator_profile(f, 7)
    assert prof.counts == {7: 6, 9: 1}


def test_profile_fast_agrees_with_thorough():
    rng = Rng64(2024)
    cases = [(5, 2, 5), (7, 2, 7), (7, 3, 7), (7, 4, 7), (11, 3, 11)]
    for p, d, q in cases:
        f = random_compressed_search(p, 3, d, q, seed=rng.next_u64())
        if not isinstance(f, HomogPoly):
            continue
        fast = measured_generator_profile(f, q)
        slow = measured_generator_profile(f, q, thorough=True)
        assert fast.counts == slow.counts
        assert fast.ci_minimal == slow.ci_minimal


def test_profile_thorough_non_compressed_matches_default():
    # non-compressed instances take the literal path either way
    f = P("x4 + y4 + z4", 7)
    assert (
        measured_generator_profile(f, 7).counts
        == measured_generator_profile(f, 7, thorough=True).counts
    )


def test_profile_total_counts_bound_hilbert():
    # μ(J) ≥ n always; every count is positive
    f = P("x2y + 3z3", 7)
    prof = measured_generator_profile(f, 7, thorough=True)
    assert all(c > 0 for c in prof.counts.values())
    assert prof.total >= 3


def test_profile_annihilator_with_low_degree_generators():
    # f = x·(x+y)·y has gcd-like structure: J picks up generators well
    # below q, which only the literal scan can see
    f = P("x2y2", 5)
    prof = measured_generator_profile(f, 5, thorough=True)
    assert min(prof.counts) < 5
    assert prof.total == sum(prof.counts.values())


@st.composite
def _forms_at_q_equal_p(draw):
    """An n = 3 form of degree d over GF(p), with q = p: full supports are
    mostly compressed, sparse ones mostly not; s has the parity of d."""
    p = draw(st.sampled_from([7, 11]))
    d = draw(st.integers(2, 4))
    size = dim_P(3, d)
    support = draw(st.one_of(st.just(set(range(size))), st.sets(st.integers(0, size - 1), min_size=1)))
    coef = np.zeros(size, dtype=np.int64)
    for k in sorted(support):
        coef[k] = draw(st.integers(1, p - 1))
    return HomogPoly(p, 3, d, coef), p


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(_forms_at_q_equal_p())
# the examples pin both parities of s, and odd s (d = 3) both compressed
# and not, whatever the draws
@example((P("x4 + y4 + z4", 7), 7))
@example((P("xy2 + yz2 + zx2", 11), 11))
@example((P("x2y + z3", 11), 11))
def test_profile_paths_agree_property(case):
    # the compressed scan, the every-degree scan and the truncation ledger
    # (the same span scan, but in full coordinates with the pieces of
    # ann(φ)) count the same generators
    f, q = case
    fast = measured_generator_profile(f, q)
    slow = measured_generator_profile(f, q, thorough=True)
    assert fast == slow
    assert fast.counts == truncated_degree_ledger(link_inverse_poly(f, q), 1).measured


# --- predicted profiles ------------------------------------------------------


def test_predicted_even_s_equals_2d():
    prof = predicted_generator_profile(3, 4, 7)
    assert prof.counts == {7: 3, 8: 8}
    assert prof.bounds == {}


def test_predicted_odd_s_bound():
    prof = predicted_generator_profile(3, 3, 25)
    assert prof.counts == {25: 3, 35: 3}
    assert prof.bounds == {36: 9}


def test_predicted_n4_even():
    prof = predicted_generator_profile(4, 2, 8)
    assert prof.counts == {8: 4, 14: 29}


def test_predicted_precondition():
    with pytest.raises(ValueError):
        predicted_generator_profile(3, 4, 6)  # q < d+3
    with pytest.raises(ValueError):
        predicted_generator_profile(2, 2, 50)  # n < 3


def test_four_binomial_count_is_2d_on_grid():
    # the even-s closed-form count collapses to 2d for n=3 across the
    # whole parameter range
    for d in range(1, 11):
        for q in range(d + 3, 201):
            s = 3 * (q - 1) - d
            if s % 2:
                continue
            prof = predicted_generator_profile(3, d, q)
            assert prof.counts[s // 2 + 1] == 2 * d, (d, q)


def test_predicted_matches_measured_even_s():
    for p, d, q, fstr in [
        (7, 4, 7, "xy3 + yz3 + zx3"),
        (5, 2, 5, None),
    ]:
        f = P(fstr, p) if fstr else random_compressed_search(p, 3, d, q, seed=11)
        assert isinstance(f, HomogPoly)
        s = 3 * (q - 1) - d
        if s % 2:
            continue
        assert is_relatively_compressed(f, q).verdict
        assert measured_generator_profile(f, q).counts == predicted_generator_profile(3, d, q).counts


def test_predicted_vs_measured_odd_s():
    f = P("xy2 + yz2 + zx2", 5)
    q, d = 25, 3
    s = 3 * (q - 1) - d
    pred = predicted_generator_profile(3, d, q)
    meas = measured_generator_profile(f, q)
    mid = (s + 1) // 2
    assert meas.counts[mid] == pred.counts[mid] == d
    assert meas.counts.get(mid + 1, 0) <= pred.bounds[mid + 1]


# --- multiplication by f in A = P/m^[q] --------------------------------------


def _generic_cubic(p):
    coef = np.random.RandomState(4).randint(1, p, size=basis(3, 3).size)
    return HomogPoly(p, 3, 3, coef)


@pytest.mark.parametrize("name, f, q, classes", [
    ("cyc3", P("xy2 + yz2 + zx2", 5), 5, 3),
    ("cyc4", P("xy3 + yz3 + zx3", 7), 7, 7),
    ("diag4", P("x4 + y4 + z4", 7), 7, 16),
    ("generic", _generic_cubic(7), 7, 1),
    # (x+y+z)^2: its ranks fall short of the same support with unit
    # coefficients, so a block that drops the coefficients is caught
    ("square", P("x2 + y2 + z2 + 2xy + 2yz + 2zx", 5), 5, 1),
])
def test_fmul_rank_matches_dense_rank(name, f, q, classes):
    s = 3 * (q - 1)
    sp = MultigradeSplitter.of(f)
    seen = 0
    for j in range(s + f.deg + 1):
        dense = rank(FMatrix(f.p, _fmul_rows(f, q, j)))
        assert fmul_rank(f, q, j) == dense, (name, j)
        rkey, ckey = sp.keys(bbasis(3, j - f.deg, q).exps + sp.t0, bbasis(3, j, q).exps)
        seen = max(seen, len(set(rkey) & set(ckey)))
    assert seen == classes
    # the mirrored degree loop against a dense rank in every degree
    hf = [dim_B(3, j, q) - rank(FMatrix(f.p, _fmul_rows(f, q, j))) for j in range(s + 1)]
    while hf[-1] == 0:
        hf.pop()
    assert quotient_hilbert(f, q) == hf


# --- socles ------------------------------------------------------------------


def test_socle_direct_cyclic_quartic():
    f = P("xy3 + yz3 + zx3", 7)
    rep = socle_direct(f, 7)
    assert rep.dims == {10: 8}
    assert rep.total == 8


def test_socle_direct_complete_intersection():
    rep = socle_direct(None, 3, p=5)
    assert rep.dims == {6: 1}


def test_socle_direct_duality_small():
    f = P("xy2 + yz2 + zx2", 5)
    direct = socle_direct(f, 5)
    via = socle_via_link(f, 5)
    assert direct.dims == via.dims


def test_socle_via_link_cyclic_cubic_q25():
    f = P("xy2 + yz2 + zx2", 5)
    rep = socle_via_link(f, 25)
    assert rep.dims == {37: 3, 36: 1}


def test_socle_via_link_matches_direct_on_compressed():
    f = P("xy3 + yz3 + zx3", 7)
    assert socle_via_link(f, 7).dims == socle_direct(f, 7).dims


def test_socle_sum_rule():
    # μ(J_q) = dim soc + n on compressed instances
    for p, d, q, seed in [(5, 3, 5, 3), (7, 4, 7, 5)]:
        f = random_compressed_search(p, 3, d, q, seed=seed)
        if not isinstance(f, HomogPoly):
            continue
        prof = measured_generator_profile(f, q)
        soc = socle_via_link(f, q)
        assert prof.total == soc.total + 3


# --- stability shift ---------------------------------------------------------


def test_ku_shift_cyclic_quartic():
    f = P("xy3 + yz3 + zx3", 7)
    rep = ku_shift_check(f, 7, 49)
    assert rep.ok
    assert rep.shift == 63
    assert (10, 73, 8, 8) in rep.pairs


def test_ku_shift_equal_q():
    f = P("xy3 + yz3 + zx3", 7)
    rep = ku_shift_check(f, 7, 7)
    assert rep.ok and rep.shift == 0


def test_ku_shift_rejects_non_compressed():
    f = P("x4 + y4 + z4", 5)
    with pytest.raises(ValueError):
        ku_shift_check(f, 5, 25)


def test_ku_shift_rejects_bad_q():
    f = P("xy3 + yz3 + zx3", 7)
    with pytest.raises(ValueError):
        ku_shift_check(f, 6, 36)
    with pytest.raises(ValueError):
        ku_shift_check(f, 49, 7)


# --- randomized oracle equivalence -------------------------------------------


def test_socle_oracles_random_compressed():
    rng = Rng64(616)
    hits = 0
    for p, d, q in [(5, 2, 5), (5, 3, 5), (7, 2, 7), (7, 3, 7), (11, 2, 11)]:
        f = random_compressed_search(p, 3, d, q, seed=rng.next_u64() % (1 << 32))
        if not isinstance(f, HomogPoly):
            continue
        hits += 1
        assert socle_direct(f, q).dims == socle_via_link(f, q).dims
    assert hits >= 3


def test_ku_shift_refuses_four_variables():
    f = P("x2 + y2 + z2 + w2", 3, n=4)
    with pytest.raises(ValueError, match="n = 3"):
        ku_shift_check(f, 9, 9)
