"""Macaulay inverse systems: catalecticants, annihilators, Hilbert functions.

For a divided element φ of degree s, the pairing map at degree i sends a
polynomial of S_i to its contraction against φ in D_{s-i}.  Its matrix Φ_i
has entry φ[m+g] at (row m, column g), so the degree-i and degree-(s-i)
matrices are transposes of each other.  Annihilator pieces, Hilbert
functions of P/ann(φ), image bases D′, and the relatively-compressed
criteria all come from ranks and kernels of these matrices.

When φ comes from a link against the Frobenius power c = (x_1^q..x_n^q),
every exponent of φ is < q and the rows/columns indexed by monomials with
an exponent ≥ q vanish identically; ranks are then computed on the
B-restricted submatrix (B = monomials with all exponents < q), which is
dramatically smaller at large q.

These matrices are block-diagonal over the multidegree classes of φ's
support.  The class split lives in `MultigradeSplitter` (class keys) plus
`ffla.block_rref`/`block_kernel` (elimination block by block); the pairing
matrix is cut into its blocks in one place, `_bhat_blocks`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ffla import FMatrix, Prime, block_kernel, is_power_of, left_kernel, rank, rref
from .polyring import DividedElem, HomogPoly, basis, dim_P

_MASK64 = (1 << 64) - 1


class Rng64:
    """splitmix64 stream; uniform residues by rejection sampling.

    Fixed algorithm (not the platform RNG) so seeded searches reproduce
    bit-for-bit everywhere.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_mod(self, p: int) -> int:
        limit = (1 << 64) - ((1 << 64) % p)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % p


def dim_B(n: int, j: int, q: int) -> int:
    """Monomials of degree j with all n exponents < q (inclusion-exclusion)."""
    return sum((-1) ** k * math.comb(n, k) * dim_P(n, j - k * q) for k in range(n + 1))


class BBasis:
    """The sub-basis of one graded piece cut out by all exponents < q."""

    __slots__ = ("n", "deg", "q", "idx", "exps", "size", "full_to_sub")

    def __init__(self, n: int, deg: int, q: int):
        self.n = n
        self.deg = deg
        self.q = q
        full = basis(n, deg)
        mask = (full.exps < q).all(axis=1) if full.size else np.zeros(0, dtype=bool)
        self.idx = np.nonzero(mask)[0]
        self.exps = full.exps[self.idx]
        self.size = self.idx.shape[0]
        f2s = np.full(full.size, -1, dtype=np.int64)
        f2s[self.idx] = np.arange(self.size)
        f2s.setflags(write=False)
        self.full_to_sub = f2s

    def __len__(self) -> int:
        return self.size


@lru_cache(maxsize=None)
def bbasis(n: int, deg: int, q: int) -> BBasis:
    return BBasis(n, deg, q)


def _diagonalize_lattice(A: np.ndarray):
    """Unimodular row transform R and diagonal d such that v lies in the
    integer column span of A iff (R @ v)[i] ≡ 0 mod d[i] for every i
    (d[i] = 0 demands exact vanishing).  A is small (n × #generators)."""
    n, m = A.shape
    work = [[int(x) for x in row] for row in A]
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [0] * n
    for r in range(min(n, m)):
        while True:
            best = None
            for i in range(r, n):
                for j in range(r, m):
                    v = work[i][j]
                    if v and (best is None or abs(v) < abs(work[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != r:
                work[bi], work[r] = work[r], work[bi]
                R[bi], R[r] = R[r], R[bi]
            if bj != r:
                for row in work:
                    row[bj], row[r] = row[r], row[bj]
            piv = work[r][r]
            clean = True
            for i in range(n):
                if i != r and work[i][r]:
                    f = work[i][r] // piv
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
                    R[i] = [a - f * b for a, b in zip(R[i], R[r])]
                    if work[i][r]:
                        clean = False
            for j in range(m):
                if j != r and work[r][j]:
                    f = work[r][j] // piv
                    for row in work:
                        row[j] -= f * row[r]
                    if work[r][j]:
                        clean = False
            if clean:
                break
        d[r] = abs(work[r][r]) if r < m else 0
    return np.array(R, dtype=np.int64), d


class MultigradeSplitter:
    """Block decomposition of pairing/multiplication matrices.

    A matrix whose (m, g) entry can only be nonzero when m + g (or g − m)
    lies in a fixed support set T is block-diagonal over the classes of the
    exponent lattice generated by differences of T: every row and column
    belongs to one class, and entries never cross classes.  Ranks and
    kernels then split into independent dense problems.
    """

    def __init__(self, support_exps: np.ndarray):
        t0 = np.asarray(support_exps[0], dtype=np.int64)
        diffs = (np.asarray(support_exps[1:], dtype=np.int64) - t0).T
        self.t0 = t0
        self.R, self.d = _diagonalize_lattice(diffs)

    @classmethod
    def of(cls, phi: DividedElem | HomogPoly) -> "MultigradeSplitter":
        """The splitter of a nonzero φ's (or form's) support."""
        return cls(basis(phi.n, phi.deg).exps[np.nonzero(phi.coef)[0]])

    def labels(self, exps: np.ndarray) -> np.ndarray:
        lab = np.asarray(exps, dtype=np.int64) @ self.R.T
        for i, di in enumerate(self.d):
            if di:
                lab[:, i] %= di
        return lab

    def keys(self, *exps: np.ndarray) -> list[np.ndarray]:
        """Integer class keys of each exponent array, comparable across them."""
        lab = np.concatenate([self.labels(e) for e in exps])
        _, inv = np.unique(lab, axis=0, return_inverse=True)
        at = np.cumsum([0] + [len(e) for e in exps])
        return [inv[a:b] for a, b in zip(at, at[1:])]


def _bhat_blocks(phi: DividedElem, i: int, q: int):
    """The blocks of bhat_matrix(phi, i, q), as ffla.block_rref takes them:
    one per column class that some row reaches.  Row m pairs only against
    columns in the class of t0 − m."""
    if phi.is_zero():
        return
    rb = bbasis(phi.n, i, q)
    cb = bbasis(phi.n, phi.deg - i, q)
    sp = MultigradeSplitter.of(phi)
    rkey, ckey = sp.keys(sp.t0 - rb.exps, cb.exps)
    for c in np.intersect1d(rkey, ckey):
        cols = np.flatnonzero(ckey == c)
        yield cols, _pairing_block(phi, rb.exps[rkey == c], cb.exps[cols])


def bhat_rank(phi: DividedElem, i: int, q: int) -> int:
    """rank of bhat_matrix(phi, i, q) via the multidegree block split."""
    return sum(rank(FMatrix.of(phi.p, sub)) for _, sub in _bhat_blocks(phi, i, q))


def bhat_kernel(phi: DividedElem, i: int, q: int) -> FMatrix:
    """kernel_basis(bhat_matrix(phi, i, q)), eliminated block by block."""
    return block_kernel(phi.p, bbasis(phi.n, phi.deg - i, q).size, _bhat_blocks(phi, i, q))


def _pairing_block(phi: DividedElem, row_exps: np.ndarray, col_exps: np.ndarray) -> np.ndarray:
    """Matrix with entry φ[m+g] over given row/column exponent lists."""
    sb = basis(phi.n, phi.deg)
    nr, nc = row_exps.shape[0], col_exps.shape[0]
    out = np.empty((nr, nc), dtype=np.int64)
    step = max(1, (1 << 22) // max(nc, 1))
    for r0 in range(0, nr, step):
        r1 = min(r0 + step, nr)
        sums = row_exps[r0:r1, None, :] + col_exps[None, :, :]
        ranks = sb.rank_rows(sums.reshape(-1, phi.n))
        out[r0:r1] = phi.coef[ranks].reshape(r1 - r0, nc)
    return out


@dataclass(frozen=True)
class Catalecticant:
    """The pairing map S_i -> D_{s-i} against a fixed φ, as a matrix."""

    phi: DividedElem
    i: int
    matrix: FMatrix

    @property
    def s(self) -> int:
        return self.phi.deg


def catalecticant(phi: DividedElem, i: int) -> Catalecticant:
    """Full matrix of the degree-i pairing map (rows S_i, columns D_{s-i})."""
    s = phi.deg
    if not 0 <= i <= s:
        raise ValueError(f"degree {i} outside [0, {s}]")
    rows = basis(phi.n, i).exps
    cols = basis(phi.n, s - i).exps
    return Catalecticant(phi, i, FMatrix.of(phi.p, _pairing_block(phi, rows, cols)))


def bhat_matrix(phi: DividedElem, i: int, q: int) -> FMatrix:
    """B-restricted pairing matrix: rows B_i, columns B_{s-i}.

    Valid as a rank/kernel proxy for the full matrix whenever every
    exponent of φ is < q, since all discarded rows and columns vanish.
    """
    s = phi.deg
    rb = bbasis(phi.n, i, q)
    cb = bbasis(phi.n, s - i, q)
    return FMatrix.of(phi.p, _pairing_block(phi, rb.exps, cb.exps))


def ann_piece(phi: DividedElem, i: int) -> FMatrix:
    """Basis of the degree-i piece of ann(φ), one coefficient row per element."""
    if i < 0:
        raise ValueError("negative degree")
    if i > phi.deg:
        return FMatrix.identity(phi.p, dim_P(phi.n, i))
    return left_kernel(catalecticant(phi, i).matrix)


def hilbert_function(phi: DividedElem) -> list[int]:
    """H_i(P/ann φ) for i = 0..s; symmetric, so only half the ranks are run."""
    if phi.is_zero():
        raise ValueError("phi must be nonzero")
    s = phi.deg
    H = [0] * (s + 1)
    for i in range(s // 2 + 1):
        H[i] = rank(catalecticant(phi, i).matrix)
        H[s - i] = H[i]
    return H


def dprime_basis(phi: DividedElem, m: int) -> FMatrix:
    """Row basis (RREF) of D′_{s-m} = image of the degree-m pairing map."""
    R, r, _ = rref(catalecticant(phi, m).matrix)
    return FMatrix.of(phi.p, R.a[:r].copy())


@dataclass(frozen=True)
class CompressedReport:
    q: int
    d: int
    s: int
    verdict: bool
    mode: str
    checks: list = field(default_factory=list)  # (degree, hilbert_value, target_value)

    def __bool__(self) -> bool:
        return self.verdict


def link_inverse_poly(f: HomogPoly, q: int) -> DividedElem:
    """Inverse polynomial of J_q: divided monomial exponents q-1-a, term by term."""
    d = f.deg
    if d >= q:
        raise ValueError(f"require deg f < q (got deg f={d}, q={q})")
    if d <= 1:
        warnings.warn("degree-1 f accepted for smoke tests only", RuntimeWarning, stacklevel=2)
    n = f.n
    s = n * (q - 1) - d
    tgt = basis(n, s)
    out = np.zeros(tgt.size, dtype=np.int64)
    for m, c in f.terms():
        g = tuple(q - 1 - e for e in m)
        out[tgt.rank(g)] = c
    return DividedElem(f.p, n, s, out)


def _relcomp_checks(f: HomogPoly, q: int, mode: str) -> CompressedReport:
    d = f.deg
    n = f.n
    if q <= d:
        raise ValueError(f"require q > deg f (got q={q}, deg f={d})")
    phi = link_inverse_poly(f, q)
    s = n * (q - 1) - d
    if mode == "quick":
        degrees = [(s + 1) // 2]
    elif mode == "full":
        degrees = list(range(s + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ranks: dict[int, int] = {}
    for i in degrees:
        j = min(i, s - i)  # the pairing matrices at i and s-i are transposes
        if j not in ranks:
            ranks[j] = bhat_rank(phi, j, q)
        ranks[i] = ranks[j]
    checks = []
    ok = True
    for i in degrees:
        target = min(dim_B(n, i, q), dim_B(n, s - i, q))
        checks.append((i, ranks[i], target))
        ok = ok and ranks[i] == target
    return CompressedReport(q=q, d=d, s=s, verdict=ok, mode=mode, checks=checks)


def is_relatively_compressed(f: HomogPoly, q: int, mode: str = "quick") -> CompressedReport:
    """Whether the link of (x_1^q..x_n^q) by f has the maximal Hilbert function.

    quick mode tests the single middle degree (sufficient); full mode tests
    every degree 0..s and exists to validate the shortcut empirically.
    """
    if not is_power_of(q, f.p):
        warnings.warn(
            f"q={q} is not a power of the characteristic {int(f.p)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return _relcomp_checks(f, q, mode)


@dataclass(frozen=True)
class SearchFailure:
    p: int
    n: int
    d: int
    q: int
    seed: int
    attempts: int

    def __bool__(self) -> bool:
        return False


def random_compressed_search(p, n: int, d: int, q: int, seed: int, max_attempts: int = 100):
    """Draw uniform degree-d forms until one passes the quick check.

    Returns the first passing HomogPoly, or a SearchFailure with the
    attempt count.  Deterministic given the seed.
    """
    p = p if isinstance(p, Prime) else Prime(p)
    if q <= d:
        raise ValueError(f"require q > d (got q={q}, d={d})")
    rng = Rng64(seed)
    size = dim_P(n, d)
    for _ in range(max_attempts):
        coef = np.array([rng.uniform_mod(p) for _ in range(size)], dtype=np.int64)
        f = HomogPoly(p, n, d, coef)
        if f.is_zero():
            continue
        if _relcomp_checks(f, q, "quick").verdict:
            return f
    return SearchFailure(p=int(p), n=n, d=d, q=q, seed=seed, attempts=max_attempts)
