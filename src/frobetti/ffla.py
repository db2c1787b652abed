"""Exact dense linear algebra over a prime field GF(p).

Every downstream question (catalecticant ranks, syzygy kernels, strand
homology, socles) reduces to rank / kernel / membership computations on
dense matrices over GF(p), so this module is the performance core.

Entries are int64 residues in [0, p).  `_plain_gauss_jordan` is the one
pivot loop.  Elimination runs on column panels: the loop finds a panel's
pivots among the rows that hold none yet, and the rest of the matrix then
absorbs the panel's row operations as matrix products whose inner
dimension is the panel rank.  Rows are tracked by a permutation and moved
once, at the end; a matrix no wider than one panel goes to the pivot loop
directly.  Products are evaluated through float64 BLAS whenever the
accumulator provably fits in 2^53 (exact in that regime), with a chunked
int64 fallback for large p.  The reduced row echelon form over a field is
unique, so panel size and BLAS threading cannot change any result bit.

`rank` runs the same pivot loop and panels with reduced=False, a
forward-only (CUP/PLUQ-style) elimination: nothing above a pivot is
cleared, a pivot updates only the rows below it that its column hits, a
panel's trailing product reaches only the rows still without a pivot that
its pivot columns hit, and rows never move.

`block_rref` and `block_kernel` take a matrix that is block-diagonal over
column classes as its blocks and eliminate class by class; they are the one
kernel implementation (`kernel_basis` is the one-class case).

`span_scan` is the one span-growth loop: the link profile, the
truncated ledger and every syzygy step find their minimal generators in
each degree as a piece (a kernel) modulo the span of the variable shifts
of the previous degree's piece, and skip the piece wherever its dimension
is known and the span already reaches it.

`int64_room` is the one statement of how many residue products an int64
sum holds exactly; `_mulmod` chunks by it, and every other running sum of
products in the package reduces mod p by it.
"""

from __future__ import annotations

import numpy as np

_PANEL = 160   # pivot panel width (tuning constant, not part of any contract)
_SLAB = 8192   # trailing-update column slab, bounds temporary float64 memory

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all 64-bit inputs."""
    if p < 2:
        return False
    for w in _MR_WITNESSES:
        if p % w == 0:
            return p == w
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_power_of(q: int, p: int) -> bool:
    """Whether q = p^k for some k >= 1."""
    if p < 2 or q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


class Prime(int):
    """A verified prime characteristic in [2, 2^31)."""

    def __new__(cls, p):
        p = int(p)
        if not 2 <= p < 2 ** 31:
            raise ValueError(f"characteristic out of range [2, 2^31): {p}")
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
        return super().__new__(cls, p)


def int64_room(p: int) -> int:
    """How many products of two residues mod p an int64 sum holds exactly.

    The sum may start from one residue as well, so a running sum reduced
    mod p after every int64_room(p) products never passes 2^63.
    """
    return max(1, 2 ** 62 // (p - 1) ** 2)


def _mulmod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) % p for residue matrices."""
    k = A.shape[1]
    out_shape = (A.shape[0], B.shape[1])
    if k == 0 or A.shape[0] == 0 or B.shape[1] == 0:
        return np.zeros(out_shape, dtype=np.int64)
    if k * (p - 1) ** 2 < 2 ** 53:
        C = A.astype(np.float64) @ B.astype(np.float64)
        out = np.rint(C, out=C).astype(np.int64)
        out %= p
        return out
    # accumulator could overflow 2^53: chunk the inner dimension in int64
    step = int64_room(p)
    acc = np.zeros(out_shape, dtype=np.int64)
    for i in range(0, k, step):
        acc = (acc + A[:, i:i + step] @ B[i:i + step]) % p
    return acc


def _plain_gauss_jordan(a: np.ndarray, p: int, reduced: bool = True) -> tuple[list[int], np.ndarray]:
    """Unblocked in-place elimination; returns pivot columns and the row
    order left (order[j] = the input row now at j: pivot rows first, in
    pivot order).  reduced=True leaves the RREF; reduced=False clears only
    below each pivot, which leaves an echelon form of the same rank."""
    m, w = a.shape
    order = np.arange(m)
    piv: list[int] = []
    r = 0
    for c in range(w):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[[r, i]] = order[[i, r]]
        # a[r, :c] is already zero, so every row operation starts at c
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        lo = 0 if reduced else r + 1
        fac = a[lo:, c].copy()
        if reduced:
            fac[r] = 0
        hit = lo + np.nonzero(fac)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(fac[hit - lo], a[r, c:])) % p
        piv.append(c)
        r += 1
    return piv, order


def inv_small(M: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a small invertible matrix over GF(p)."""
    k = M.shape[0]
    a = np.concatenate([M % p, np.eye(k, dtype=np.int64)], axis=1)
    piv, _ = _plain_gauss_jordan(a, p)
    if piv != list(range(k)):
        raise ValueError("matrix not invertible")
    return a[:, k:]


def _gauss_jordan(a: np.ndarray, p: int, reduced: bool = True) -> list[int]:
    """In-place RREF of a residue matrix; returns pivot columns.

    `perm` lists the rows in echelon order, the pivot rows found so far
    first; rows move only at the end.  Each panel of columns runs
    _plain_gauss_jordan on the rows not yet holding a pivot.  With C the
    initial entries of all rows in the new pivot columns and F the inverse
    of the new pivot rows' initial minor, the new pivot rows finish as F
    times their initial values and every other row subtracts G = C F times
    those initial values: the earlier pivot rows in the panel's columns,
    every row in the trailing columns, each a product with inner dimension
    the panel rank.

    reduced=False finds the same pivot columns for `rank` and leaves no
    RREF: it never clears above a pivot, so the earlier pivot rows are not
    touched, the pivot rows keep their initial trailing entries, only the
    rows still without a pivot that the panel's pivot columns hit take the
    trailing product, and no row moves at the end.
    """
    m, w = a.shape
    if w <= _PANEL:
        return _plain_gauss_jordan(a, p, reduced)[0]
    perm = np.arange(m)
    npiv = 0
    pivots: list[int] = []
    for c0 in range(0, w, _PANEL):
        if npiv == m:
            break
        c1 = min(c0 + _PANEL, w)
        sub = a[perm[npiv:], c0:c1]
        pcols, order = _plain_gauss_jordan(sub, p, reduced)
        k = len(pcols)
        if k == 0:
            continue
        perm[npiv:] = perm[npiv:][order]
        top, prows = perm[:npiv], perm[npiv:npiv + k]
        C = a[:, c0 + np.asarray(pcols)]
        if c1 < w:
            F = inv_small(C[prows], p)
            if reduced:
                C[prows] = 0
                rows = slice(None)
            else:
                live = perm[npiv + k:]
                rows = live[C[live].any(axis=1)]
            G = _mulmod(C[rows], F, p)
            for u0 in range(c1, w, _SLAB):
                T = a[:, u0:u0 + _SLAB]
                TP = T[prows]
                if reduced:
                    T -= _mulmod(G, TP, p)
                    T %= p
                    T[prows] = _mulmod(F, TP, p)
                else:
                    U = T[rows]
                    U -= _mulmod(G, TP, p)
                    U %= p
                    T[rows] = U
        if reduced:
            a[top, c0:c1] = (a[top, c0:c1] - _mulmod(C[top], sub[:k], p)) % p
        a[perm[npiv:], c0:c1] = sub
        pivots += [c0 + c for c in pcols]
        npiv += k
    if reduced:
        moved = np.flatnonzero(perm != np.arange(m))
        a[moved] = a[perm[moved]]
    return pivots


class FMatrix:
    """Immutable dense matrix over GF(p).

    `a` is an int64 ndarray of residues in [0, p), marked read-only.
    """

    __slots__ = ("p", "a")

    def __init__(self, p, data):
        self.p = p if isinstance(p, Prime) else Prime(p)
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("FMatrix data must be two-dimensional")
        arr %= self.p
        arr.setflags(write=False)
        self.a = arr

    @classmethod
    def of(cls, p: Prime, arr: np.ndarray) -> "FMatrix":
        """Wrap an already-reduced int64 array without copying."""
        self = object.__new__(cls)
        self.p = p
        arr.setflags(write=False)
        self.a = arr
        return self

    @classmethod
    def zeros(cls, p, rows: int, cols: int) -> "FMatrix":
        p = p if isinstance(p, Prime) else Prime(p)
        return cls.of(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p, n: int) -> "FMatrix":
        p = p if isinstance(p, Prime) else Prime(p)
        return cls.of(p, np.eye(n, dtype=np.int64) % p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def transpose(self) -> "FMatrix":
        return FMatrix.of(self.p, np.ascontiguousarray(self.a.T))

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FMatrix(GF({int(self.p)}), {self.rows}x{self.cols})"


def rref(M: FMatrix) -> tuple[FMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and strictly increasing pivot columns."""
    a = M.a.copy()
    piv = _gauss_jordan(a, M.p)
    return FMatrix.of(M.p, a), len(piv), piv


def rank(M: FMatrix) -> int:
    """Rank by forward elimination only (no RREF is formed)."""
    a = M.a.copy()
    return len(_gauss_jordan(a, M.p, reduced=False))


def kernel_basis(M: FMatrix) -> FMatrix:
    """Canonical basis of the right null space, one row per free column.

    Row for free column c has 1 at c and back-substituted pivot entries, so
    the output is itself in RREF (up to row order by free column).
    """
    return block_kernel(M.p, M.cols, [(np.arange(M.cols), M.a)])


def block_rref(p: Prime, w: int, blocks) -> tuple[np.ndarray, int]:
    """RREF rows and rank of a width-w matrix that is block-diagonal over
    column classes.

    `blocks` yields (cols, sub) pairs: one class's column indices and the
    matrix's rows in that class restricted to those columns.  The rows come
    back scattered to width w, class after class; within a class they are in
    RREF, and the union spans the row space.
    """
    done = []
    for cols, sub in blocks:
        R, r, _ = rref(FMatrix.of(p, sub))
        done.append((cols, R.a[:r]))
    out = np.zeros((sum(R.shape[0] for _, R in done), w), dtype=np.int64)
    at = 0
    for cols, R in done:
        out[at:at + R.shape[0], cols] = R
        at += R.shape[0]
    return out, at


def block_kernel(p: Prime, w: int, blocks) -> FMatrix:
    """kernel_basis of the width-w matrix assembled from `blocks`, row for row.

    `blocks` is as in block_rref.  A column that no block's rows reach is
    free and gets its identity row; each class writes its back-substituted
    entries straight into the rows of its own free columns.
    """
    done = []
    free = np.ones(w, dtype=bool)
    for cols, sub in blocks:
        R, r, piv = rref(FMatrix.of(p, sub))
        free[cols[piv]] = False
        done.append((cols, R.a[:r], piv))
    fcols = np.flatnonzero(free)
    K = np.zeros((fcols.size, w), dtype=np.int64)
    K[np.arange(fcols.size), fcols] = 1
    for cols, R, piv in done:
        loc = np.flatnonzero(free[cols])
        K[np.ix_(np.searchsorted(fcols, cols[loc]), cols[piv])] = (-R[:, loc].T) % p
    return FMatrix.of(p, K)


def left_kernel(M: FMatrix) -> FMatrix:
    """Canonical basis of {v : v M = 0}."""
    return kernel_basis(M.transpose())


def matmul(A: FMatrix, B: FMatrix) -> FMatrix:
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    return FMatrix.of(A.p, _mulmod(A.a, B.a, A.p))


def reduce_rows(R: np.ndarray, piv: list[int], V: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce row vectors V against RREF rows R: returns (coeffs, residual).

    residual = V - coeffs @ R[:rank]; a row of V lies in the row space iff
    its residual row is zero.
    """
    r = len(piv)
    if r == 0:
        return np.zeros((V.shape[0], 0), dtype=np.int64), V % p
    coeffs = V[:, piv] % p
    resid = (V - _mulmod(coeffs, R[:r], p)) % p
    return coeffs, resid


def span_scan(p: Prime, degrees, vecs: np.ndarray, span, piece, expected=None):
    """Minimal generators degree by degree, by span growth.

    vecs spans the piece one degree below the first.  At each degree i,
    span(i, vecs) gives reduced echelon rows (leading entry 1, its column
    zero in every other row) of the variable shifts of vecs, which lie in
    the piece at i.  Where expected(i) is not None and the span has that
    dimension, the span is the piece and piece(i) is not called; otherwise
    piece(i) is taken, and a taken piece of another dimension than
    expected(i) raises RuntimeError.  A taken piece larger than the span
    has new generators: the RREF of its rows reduced against the span.

    Returns (new generator rows by degree, dimension of the piece by
    degree, rows spanning the last piece).
    """
    news: dict[int, np.ndarray] = {}
    dims: dict[int, int] = {}
    for i in degrees:
        S = span(i, vecs)
        want = None if expected is None else expected(i)
        if want == len(S):
            dims[i], vecs = want, S
            continue
        K = piece(i)
        if want is not None and K.rows != want:
            raise RuntimeError(f"piece at degree {i} has dimension {K.rows}, expected {want}")
        dims[i], vecs = K.rows, K.a
        if K.rows > len(S):
            _, resid = reduce_rows(S, np.argmax(S != 0, axis=1), K.a, p)
            G, r, _ = rref(FMatrix.of(p, resid[resid.any(axis=1)]))
            news[i] = G.a[:r]
    return news, dims, vecs


def row_space_membership(M: FMatrix, v) -> bool:
    """True iff v lies in the row space of M."""
    vv = np.asarray(v, dtype=np.int64).reshape(1, -1) % M.p
    if vv.shape[1] != M.cols:
        raise ValueError("dimension mismatch")
    R, r, piv = rref(M)
    _, resid = reduce_rows(R.a, piv, vv, M.p)
    return not resid.any()


def solve_right(A: FMatrix, B: FMatrix) -> FMatrix:
    """Canonical X with A X = B (free variables zero); raises if inconsistent."""
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    if A.rows != B.rows:
        raise ValueError("dimension mismatch")
    n = A.cols
    aug = np.concatenate([A.a, B.a], axis=1).copy()
    piv = _gauss_jordan(aug, A.p)
    if any(c >= n for c in piv):
        raise ValueError("inconsistent system")
    X = np.zeros((n, B.cols), dtype=np.int64)
    for j, c in enumerate(piv):
        X[c] = aug[j, n:]
    return FMatrix.of(A.p, X)
