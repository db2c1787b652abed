import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frobetti.ffla as ffla
from frobetti.ffla import (
    FMatrix,
    Prime,
    block_kernel,
    block_rref,
    is_prime,
    kernel_basis,
    left_kernel,
    matmul,
    rank,
    row_space_membership,
    rref,
    solve_right,
)


def naive_rref(rows, p):
    """Independent textbook elimination used as the oracle."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    w = len(a[0]) if m else 0
    piv = []
    r = 0
    for c in range(w):
        if r == m:
            break
        sel = next((i for i in range(r, m) if a[i][c] % p), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def test_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 101, 2**31 - 1):
        assert Prime(p) == p


def test_prime_rejects_nonprimes():
    for bad in (0, 1, 4, 9, 91, 2**31, -7, 561, 2**31 + 11):
        with pytest.raises(ValueError):
            Prime(bad)


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == slow(n)


def test_rref_identity():
    R, r, piv = rref(FMatrix.identity(5, 3))
    assert r == 3
    assert piv == [0, 1, 2]
    assert R.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_zero_matrix():
    R, r, piv = rref(FMatrix.zeros(5, 2, 4))
    assert r == 0
    assert piv == []
    assert R.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0]]


def test_rref_dependent_rows():
    R, r, piv = rref(FMatrix(5, [[1, 2], [2, 4]]))
    assert r == 1
    assert piv == [0]
    assert R.tolist() == [[1, 2], [0, 0]]


def test_kernel_single_row():
    K = kernel_basis(FMatrix(5, [[1, 2]]))
    assert K.tolist() == [[3, 1]]


def test_kernel_identity_empty():
    K = kernel_basis(FMatrix.identity(7, 4))
    assert K.shape == (0, 4)


def test_kernel_zero_matrix_standard_basis():
    K = kernel_basis(FMatrix.zeros(5, 2, 3))
    assert K.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_matches_naive_back_substitution():
    rng = np.random.RandomState(23)
    for p in (2, 7, 101, 2**31 - 1):
        for _ in range(10):
            rows = rng.randint(0, min(p, 4), size=(rng.randint(1, 9), rng.randint(1, 9))).tolist()
            R, piv = naive_rref(rows, p)
            want = []
            for c in (c for c in range(len(rows[0])) if c not in piv):
                v = [0] * len(rows[0])
                v[c] = 1
                for j, pc in enumerate(piv):
                    v[pc] = -R[j][c] % p
                want.append(v)
            assert kernel_basis(FMatrix(p, rows)).tolist() == want


def test_block_split_matches_assembled_matrix():
    rng = np.random.RandomState(31)
    p = 7
    for _ in range(20):
        w = rng.randint(1, 12)
        ncls = rng.randint(1, 4)
        ckey = rng.randint(0, ncls + 1, size=w)  # class ncls has no rows
        blocks, assembled = [], []
        for c in range(ncls):
            cols = np.flatnonzero(ckey == c)
            sub = rng.randint(0, 2, size=(rng.randint(0, 5), cols.size)) * rng.randint(1, p)
            blocks.append((cols, sub))
            full = np.zeros((sub.shape[0], w), dtype=np.int64)
            full[:, cols] = sub
            assembled.append(full)
        M = FMatrix(p, np.concatenate(assembled) if assembled else np.zeros((0, w)))
        assert block_kernel(M.p, w, blocks) == kernel_basis(M)
        rows, r = block_rref(M.p, w, blocks)
        assert r == rank(M) == rows.shape[0]
        assert np.array_equal(rref(FMatrix(p, rows))[0].a[:r], rref(M)[0].a[:r])


def test_membership_examples():
    assert row_space_membership(FMatrix.identity(5, 3), [2, 3, 4])
    assert not row_space_membership(FMatrix.zeros(5, 2, 3), [0, 1, 0])
    assert row_space_membership(FMatrix(5, [[1, 2]]), [2, 4])
    with pytest.raises(ValueError):
        row_space_membership(FMatrix(5, [[1, 2]]), [1, 2, 3])


def test_blocked_matches_naive_oracle():
    rng = np.random.RandomState(7)
    for p in (2, 3, 5, 7, 11, 101):
        for m, w in [(1, 1), (4, 4), (7, 3), (3, 9), (20, 31), (33, 17)]:
            M = rng.randint(0, p, size=(m, w))
            R, r, piv = rref(FMatrix(p, M))
            exp, expiv = naive_rref(M.tolist(), p)
            assert piv == expiv
            assert r == len(expiv)
            assert R.tolist() == exp


def test_multi_panel_agrees_with_naive(monkeypatch):
    # force many panels on small inputs so panel seams are exercised
    monkeypatch.setattr(ffla, "_PANEL", 3)
    monkeypatch.setattr(ffla, "_SLAB", 5)
    rng = np.random.RandomState(11)
    # 2^31 - 1 sends the seam, top-row and trailing products through
    # _mulmod's int64-chunk branch
    for p in (2, 5, 101, 2**31 - 1):
        for _ in range(25):
            m = rng.randint(1, 14)
            w = rng.randint(1, 14)
            M = rng.randint(0, p, size=(m, w))
            # low-rank inputs hit the empty-panel path
            if rng.rand() < 0.4 and m > 1:
                M[m // 2 :] = M[: m - m // 2]
            R, r, piv = rref(FMatrix(p, M))
            exp, expiv = naive_rref(M.tolist(), p)
            assert piv == expiv
            assert R.tolist() == exp


@st.composite
def _rank_cases(draw):
    p = draw(st.sampled_from([2, 5, 7, 2**31 - 1]))
    panel = draw(st.integers(1, 5))
    # widths below, at and across one panel, and empty shapes
    w = draw(st.sampled_from([0, max(panel - 1, 0), panel, panel + 1, 3 * panel + 2]))
    m = draw(st.sampled_from([0, 1, 4, 11]))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    k = draw(st.integers(0, m + 1))  # m + 1 stands for full rank
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    M = rng.randint(0, p, size=(m, w)) * (rng.rand(m, w) < density)
    if k <= m:
        # rank <= k: 0/1 combinations of k rows, so panels run out of pivots
        M = (rng.randint(0, 2, size=(m, k)) @ M[:k]) % p
    return p, panel, M


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_cases())
def test_rank_equals_rref_rank_property(case):
    # rank eliminates forward only; rref's pivot count is the oracle
    p, panel, M = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffla, "_PANEL", panel)
        mp.setattr(ffla, "_SLAB", 2)
        A = FMatrix(p, M)
        R, r, piv = rref(A)
        assert rank(A) == r == len(piv)
        exp, expiv = naive_rref(M.tolist(), p)
        assert piv == expiv
        assert R.tolist() == exp


def test_default_panel_boundary():
    # wider than one panel with default settings
    rng = np.random.RandomState(3)
    p = 5
    M = rng.randint(0, p, size=(80, 400))
    R, r, piv = rref(FMatrix(p, M))
    exp, expiv = naive_rref(M.tolist(), p)
    assert piv == expiv
    assert R.tolist() == exp


def test_rref_idempotent():
    rng = np.random.RandomState(23)
    for p in (2, 5, 11):
        for _ in range(10):
            M = rng.randint(0, p, size=(rng.randint(1, 12), rng.randint(1, 12)))
            R, r, piv = rref(FMatrix(p, M))
            R2, r2, piv2 = rref(R)
            assert R2 == R
            assert (r2, piv2) == (r, piv)


def test_rank_of_transpose():
    rng = np.random.RandomState(5)
    for p in (2, 3, 7, 101):
        for _ in range(10):
            M = FMatrix(p, rng.randint(0, p, size=(rng.randint(1, 15), rng.randint(1, 15))))
            assert rank(M) == rank(M.transpose())


def test_rank_nullity():
    rng = np.random.RandomState(13)
    for p in (2, 5, 7):
        for _ in range(10):
            M = FMatrix(p, rng.randint(0, p, size=(rng.randint(1, 12), rng.randint(1, 12))))
            assert rank(M) + kernel_basis(M).rows == M.cols


def test_kernel_annihilates():
    rng = np.random.RandomState(17)
    for p in (2, 5, 11, 101):
        for _ in range(10):
            M = FMatrix(p, rng.randint(0, p, size=(rng.randint(1, 12), rng.randint(1, 12))))
            K = kernel_basis(M)
            if K.rows:
                assert not matmul(M, K.transpose()).a.any()


def test_left_kernel_annihilates():
    rng = np.random.RandomState(19)
    p = 7
    for _ in range(10):
        M = FMatrix(p, rng.randint(0, p, size=(8, 5)))
        K = left_kernel(M)
        assert K.rows == M.rows - rank(M)
        if K.rows:
            assert not matmul(K, M).a.any()


def test_membership_of_row_combinations():
    rng = np.random.RandomState(29)
    for p in (3, 7):
        for _ in range(10):
            M = FMatrix(p, rng.randint(0, p, size=(4, 9)))
            cf = rng.randint(0, p, size=(1, 4))
            v = (cf @ M.a) % p
            assert row_space_membership(M, v[0])


def test_matmul_large_p_chunked_path():
    # (p-1)^2 * k exceeds 2^53, exercising the int64 accumulation branch
    p = 2**31 - 1
    rng = np.random.RandomState(31)
    A = rng.randint(0, p, size=(4, 7)).astype(np.int64)
    B = rng.randint(0, p, size=(7, 3)).astype(np.int64)
    got = matmul(FMatrix(p, A), FMatrix(p, B))
    exp = [[sum(int(A[i, k]) * int(B[k, j]) for k in range(7)) % p for j in range(3)] for i in range(4)]
    assert got.tolist() == exp


def test_rref_large_p():
    p = 2**31 - 1
    M = FMatrix(p, [[2, 4, 1], [1, 2, 0], [0, 0, 5]])
    R, r, piv = rref(M)
    exp, expiv = naive_rref([[2, 4, 1], [1, 2, 0], [0, 0, 5]], p)
    assert piv == expiv
    assert R.tolist() == exp


def test_solve_right_consistent():
    p = 7
    rng = np.random.RandomState(37)
    for _ in range(10):
        A = FMatrix(p, rng.randint(0, p, size=(6, 4)))
        X0 = FMatrix(p, rng.randint(0, p, size=(4, 2)))
        B = matmul(A, X0)
        X = solve_right(A, B)
        assert matmul(A, X) == B


def test_solve_right_inconsistent():
    A = FMatrix(5, [[1, 2], [2, 4]])
    B = FMatrix(5, [[0], [1]])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_right(A, B)


def test_fmatrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FMatrix(5, [1, 2, 3])
    with pytest.raises(ValueError):
        matmul(FMatrix(5, [[1]]), FMatrix(7, [[1]]))
