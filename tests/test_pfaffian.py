import numpy as np
import pytest

from frobetti.pfaffian import (
    SkewPolyMatrix,
    be_pfaffian_check,
    certify_pf_of_tail,
    pfaffian,
    pfaffian_adjoint,
)
from frobetti.polyring import HomogPoly, basis, parse_poly
from frobetti.resolution import poly_matmul, extract_tail_mf


def P(s, p, n=3):
    return parse_poly(s, p, n)


def det_mod_p(arr, p):
    """Plain Gaussian elimination determinant, the oracle for Pf^2 = det."""
    a = np.array(arr, dtype=np.int64) % p
    k = a.shape[0]
    det = 1
    for c in range(k):
        piv = None
        for r in range(c, k):
            if a[r, c] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            det = -det
        det = det * a[c, c] % p
        inv = pow(int(a[c, c]), p - 2, p)
        for r in range(c + 1, k):
            a[r] = (a[r] - a[r, c] * inv * a[c]) % p
    return det % p


def random_skew(rng, p, k):
    u = rng.integers(0, p, size=(k, k))
    return (np.triu(u, 1) - np.triu(u, 1).T) % p


def random_linear(rng, p):
    return HomogPoly(p, 3, 1, rng.integers(0, p, size=3))


def skew_from_linear(p, grid):
    k = len(grid)
    entries = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            entries[i][j] = grid[i][j]
            entries[j][i] = grid[i][j].scale(-1)
    return SkewPolyMatrix(p, 3, (0,) * k, 1, entries)


# --- the Pfaffian itself ------------------------------------------------------


def test_pfaffian_2x2_is_the_corner_entry():
    a = P("x + 2y", 7)
    X = SkewPolyMatrix(7, 3, (0, 0), 1, ((None, a), (a.scale(-1), None)))
    assert pfaffian(X) == a


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = random_skew(rng, 11, 4)
        X = SkewPolyMatrix.from_scalar(11, m)
        want = (m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]) % 11
        assert pfaffian(X).coef[0] == want


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(17)
    for k in (2, 4, 6, 8, 10):
        for _ in range(6):
            m = random_skew(rng, 7, k)
            pf = int(pfaffian(SkewPolyMatrix.from_scalar(7, m)).coef[0])
            assert pf * pf % 7 == det_mod_p(m, 7)


def test_pfaffian_odd_size_raises():
    with pytest.raises(ValueError):
        pfaffian(SkewPolyMatrix.from_scalar(5, np.zeros((3, 3), dtype=int)))


def test_pfaffian_block_diagonal_multiplies():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b = random_skew(rng, 13, 4), random_skew(rng, 13, 2)
        blk = np.zeros((6, 6), dtype=np.int64)
        blk[:4, :4], blk[4:, 4:] = a, b
        pf = pfaffian(SkewPolyMatrix.from_scalar(13, blk)).coef[0]
        pa = pfaffian(SkewPolyMatrix.from_scalar(13, a)).coef[0]
        pb = pfaffian(SkewPolyMatrix.from_scalar(13, b)).coef[0]
        assert pf == pa * pb % 13


def test_pfaffian_sign_flips_under_transposition():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_skew(rng, 7, 6)
        i, j = sorted(rng.choice(6, size=2, replace=False))
        sw = m.copy()
        sw[[i, j]] = sw[[j, i]]
        sw[:, [i, j]] = sw[:, [j, i]]
        a = pfaffian(SkewPolyMatrix.from_scalar(7, m)).coef[0]
        b = pfaffian(SkewPolyMatrix.from_scalar(7, sw)).coef[0]
        assert (a + b) % 7 == 0


def test_pfaffian_with_polynomial_entries_matches_expansion():
    # hand expansion of a 4x4 with one variable entry per slot
    x, y, z = P("x", 5), P("y", 5), P("z", 5)
    grid = [[None] * 4 for _ in range(4)]
    vals = {(0, 1): x, (0, 2): y, (0, 3): z, (1, 2): z, (1, 3): y, (2, 3): x}
    for (i, j), v in vals.items():
        grid[i][j] = v
        grid[j][i] = v.scale(-1)
    X = SkewPolyMatrix(5, 3, (0, 0, 0, 0), 1, grid)
    assert pfaffian(X) == x * x - y * y + z * z


# --- construction guards --------------------------------------------------------


def test_skew_matrix_rejects_nonzero_diagonal():
    a = P("x", 5)
    with pytest.raises(ValueError):
        SkewPolyMatrix(5, 3, (0, 0), 1, ((a, a), (a.scale(-1), None)))


def test_skew_matrix_rejects_symmetry_breaking():
    a, b = P("x", 5), P("y", 5)
    with pytest.raises(ValueError):
        SkewPolyMatrix(5, 3, (0, 0), 1, ((None, a), (b, None)))


def test_skew_matrix_rejects_wrong_entry_degree():
    a = P("x2", 5)
    with pytest.raises(ValueError):
        SkewPolyMatrix(5, 3, (0, 0), 1, ((None, a), (a.scale(-1), None)))


# --- Pfaffian adjoint ------------------------------------------------------------


def test_adjoint_2x2():
    a = P("x + z", 7)
    X = SkewPolyMatrix(7, 3, (0, 0), 1, ((None, a), (a.scale(-1), None)))
    adj = pfaffian_adjoint(X)
    assert adj.entry(0, 1) == HomogPoly(7, 3, 0, [7 - 1])
    assert adj.entry(1, 0) == HomogPoly(7, 3, 0, [1])


def test_adjoint_identity_scalar_6x6():
    rng = np.random.default_rng(41)
    for _ in range(8):
        m = random_skew(rng, 101, 6)
        X = SkewPolyMatrix.from_scalar(101, m)
        pf = pfaffian(X).coef[0]
        adj = np.zeros((6, 6), dtype=np.int64)
        for i in range(6):
            for j in range(6):
                e = pfaffian_adjoint(X).entry(i, j)
                adj[i, j] = 0 if e is None else e.coef[0]
        assert np.array_equal(m @ adj % 101, pf * np.eye(6, dtype=np.int64) % 101)


def test_adjoint_identity_polynomial_4x4():
    rng = np.random.default_rng(43)
    for _ in range(5):
        grid = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                grid[i][j] = random_linear(rng, 7)
        X = skew_from_linear(7, grid)
        pf = pfaffian(X)
        adj = pfaffian_adjoint(X)
        for prod in (
            poly_matmul(X.entries, adj.entries),
            poly_matmul(adj.entries, X.entries),
        ):
            for i in range(4):
                for j in range(4):
                    if i == j:
                        assert prod[i][j] == pf or (prod[i][j] is None and pf.is_zero())
                    else:
                        assert prod[i][j] is None or prod[i][j].is_zero()


def test_adjoint_of_degenerate_matrix_annihilates():
    # rank-2 alternating 4x4: u v^T - v u^T has Pfaffian zero
    rng = np.random.default_rng(47)
    u = rng.integers(0, 7, size=4)
    v = rng.integers(0, 7, size=4)
    m = (np.outer(u, v) - np.outer(v, u)) % 7
    X = SkewPolyMatrix.from_scalar(7, m)
    assert pfaffian(X).is_zero()
    adj = pfaffian_adjoint(X)
    prod = poly_matmul(X.entries, adj.entries)
    assert all(e is None or e.is_zero() for row in prod for e in row)


# --- signed maximal Pfaffians ------------------------------------------------------


def five_by_five(p):
    rng = np.random.default_rng(53)
    grid = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            grid[i][j] = random_linear(rng, p)
    entries = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            entries[i][j] = grid[i][j]
            entries[j][i] = grid[i][j].scale(-1)
    return SkewPolyMatrix(p, 3, (0,) * 5, 1, entries)


def signed_maximal_pfaffians(X):
    from frobetti.pfaffian import _pf_subset

    full = (1 << X.size) - 1
    out = []
    for j in range(X.size):
        pf = _pf_subset(X, full ^ (1 << j), {})
        if pf is None:
            out.append(HomogPoly.zero(X.p, X.n, 0))
        else:
            out.append(pf.scale(-1) if j % 2 else pf)
    return out


def test_be_check_accepts_signed_maximal_pfaffians():
    X = five_by_five(7)
    gens = signed_maximal_pfaffians(X)
    assert be_pfaffian_check(gens, X)
    assert be_pfaffian_check([g.scale(3) for g in gens], X)


def test_be_check_rejects_permuted_generators():
    X = five_by_five(7)
    gens = signed_maximal_pfaffians(X)
    swapped = [gens[1], gens[0]] + gens[2:]
    assert not be_pfaffian_check(swapped, X)


def test_be_check_rejects_unsigned_generators():
    X = five_by_five(7)
    gens = signed_maximal_pfaffians(X)
    gens[1] = gens[1].scale(-1)
    assert not be_pfaffian_check(gens, X)


def test_be_check_size_mismatch_raises():
    X = five_by_five(7)
    with pytest.raises(ValueError):
        be_pfaffian_check([P("x", 7)] * 4, X)


# --- tail certification -------------------------------------------------------------


def test_certify_2x2_with_linear_form():
    f = P("x + y + 3z", 7)
    A = ((None, f), (f.scale(-1), None))
    assert certify_pf_of_tail(A, f)


def test_certify_extracted_tail_cyclic_cubic_q7():
    f = P("xy3 + yz3 + zx3", 7)
    mf = extract_tail_mf(f, 7, 3)
    assert certify_pf_of_tail(mf.a, f)


def test_certify_rejects_random_linear_matrix():
    rng = np.random.default_rng(59)
    f = P("xy3 + yz3 + zx3", 7)
    grid = [[random_linear(rng, 7) for _ in range(8)] for _ in range(8)]
    assert not certify_pf_of_tail(grid, f)


def test_certify_warns_on_size_mismatch():
    f = P("xyz", 5)  # cubic: certificate wants size 6
    a = P("x", 5)
    A = ((None, a), (a.scale(-1), None))
    with pytest.warns(RuntimeWarning):
        assert not certify_pf_of_tail(A, f)


def test_certify_rejects_nonsquare():
    f = P("x + y", 5)
    with pytest.raises(ValueError):
        certify_pf_of_tail(((None,), (None, None)), f)
