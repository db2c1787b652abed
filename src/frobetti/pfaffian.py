"""Pfaffians of alternating polynomial matrices, and their adjoints.

An alternating matrix over the polynomial ring carries a Pfaffian, a
square root of its determinant, computable by first-row expansion over
index subsets.  The signed maximal Pfaffians of an odd-size alternating
matrix generate its ideal of submaximal rank, which is the shape behind
height-3 Gorenstein presentations, so this module provides the raw
Pfaffian, the Pfaffian adjoint (the alternating analogue of the adjugate),
a checker that a generator list equals the signed maximal Pfaffians, and
a determinant-based certificate that a linear square matrix has Pfaffian
equal to a unit times a given form.

Subset memoization keeps the expansion exact and fast for sizes up to 16,
which covers every matrix this package produces; there is no floating
point and no division anywhere.
"""

from __future__ import annotations

import warnings

import numpy as np

from .polyring import HomogPoly
from .resolution import scalar_of


def _one(p, n: int) -> HomogPoly:
    return HomogPoly(p, n, 0, np.ones(1, dtype=np.int64))


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class SkewPolyMatrix:
    """An alternating matrix of homogeneous polynomials.

    twists[i] is the generator degree of row i and total the degree of
    the symmetric pairing, so entry (i, j) is forced to be homogeneous
    of degree total - twists[i] - twists[j]; scalar matrices use zero
    twists.  Skew-symmetry (entry(j,i) = -entry(i,j), zero diagonal) is
    validated on construction.
    """

    def __init__(self, p, n: int, twists, total: int, entries):
        self.p = p
        self.n = n
        self.twists = tuple(int(t) for t in twists)
        self.total = int(total)
        self.entries = tuple(
            tuple(None if e is None or e.is_zero() else e for e in row)
            for row in entries
        )
        k = len(self.twists)
        if len(self.entries) != k or any(len(r) != k for r in self.entries):
            raise ValueError("entry grid does not match twist count")
        for i in range(k):
            if self.entries[i][i] is not None:
                raise ValueError("diagonal must vanish")
            for j in range(i + 1, k):
                e, et = self.entries[i][j], self.entries[j][i]
                if (e is None) != (et is None):
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) disagree")
                if e is None:
                    continue
                if et != e.scale(-1):
                    raise ValueError(f"not alternating at ({i},{j})")
                want = self.total - self.twists[i] - self.twists[j]
                if e.deg != want:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {e.deg}, twists force {want}"
                    )

    @property
    def size(self) -> int:
        return len(self.twists)

    def entry(self, i: int, j: int) -> HomogPoly | None:
        return self.entries[i][j]

    @classmethod
    def from_scalar(cls, p, arr, n: int = 3) -> "SkewPolyMatrix":
        """Wrap an integer skew matrix as degree-zero polynomial entries."""
        a = np.asarray(arr, dtype=np.int64) % int(p)
        k = a.shape[0]
        entries = [
            [
                None if a[i, j] % int(p) == 0 else HomogPoly(p, n, 0, [a[i, j]])
                for j in range(k)
            ]
            for i in range(k)
        ]
        return cls(p, n, (0,) * k, 0, entries)


def _pf_subset(X: SkewPolyMatrix, mask: int, memo: dict) -> HomogPoly | None:
    """Pfaffian of the principal submatrix on the index set mask (None = 0)."""
    if mask == 0:
        return _one(X.p, X.n)
    hit = memo.get(mask)
    if hit is not None or mask in memo:
        return hit
    lead = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << lead)
    acc: HomogPoly | None = None
    sign = 1
    for j in _bits(rest):
        e = X.entry(lead, j)
        if e is not None:
            sub = _pf_subset(X, rest ^ (1 << j), memo)
            if sub is not None:
                term = e * sub
                if sign < 0:
                    term = term.scale(-1)
                acc = term if acc is None else acc + term
        sign = -sign
    if acc is not None and acc.is_zero():
        acc = None
    memo[mask] = acc
    return acc


def pfaffian(X: SkewPolyMatrix) -> HomogPoly:
    """First-row subset expansion; raises on odd size."""
    if X.size % 2:
        raise ValueError("Pfaffian requires even size")
    pf = _pf_subset(X, (1 << X.size) - 1, {})
    if pf is not None:
        return pf
    deg = (X.size // 2) * X.total - sum(X.twists)
    return HomogPoly.zero(X.p, X.n, max(deg, 0))


def pfaffian_adjoint(X: SkewPolyMatrix) -> SkewPolyMatrix:
    """The alternating matrix with X * adj = adj * X = Pf(X) * Identity.

    Entry (i, j) for i < j is (-1)^(i+j) times the Pfaffian of X with
    rows and columns i, j removed, and the lower triangle carries the
    opposite sign.
    """
    k = X.size
    if k % 2:
        raise ValueError("Pfaffian adjoint requires even size")
    memo: dict = {}
    full = (1 << k) - 1
    grid: list[list[HomogPoly | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            pf = _pf_subset(X, full ^ (1 << i) ^ (1 << j), memo)
            if pf is None:
                continue
            if (i + j) % 2:
                pf = pf.scale(-1)
            grid[i][j] = pf
            grid[j][i] = pf.scale(-1)
    total = (k // 2 - 1) * X.total - sum(X.twists)
    return SkewPolyMatrix(
        X.p, X.n, tuple(-t for t in X.twists), total, grid
    )


def be_pfaffian_check(gens, X: SkewPolyMatrix) -> bool:
    """True iff gens[j] = s * (-1)^j * Pf_j(X) for one nonzero scalar s.

    Pf_j deletes index j; deleting from an even-size matrix leaves odd
    size, whose Pfaffian is zero, so a nonzero generator list can only
    match an odd-size matrix.
    """
    k = X.size
    if len(gens) != k:
        raise ValueError(f"{len(gens)} generators against size-{k} matrix")
    memo: dict = {}
    full = (1 << k) - 1
    s = None
    for j, g in enumerate(gens):
        pf = None
        if (k - 1) % 2 == 0:
            pf = _pf_subset(X, full ^ (1 << j), memo)
        if pf is not None and j % 2:
            pf = pf.scale(-1)
        g_zero = g is None or g.is_zero()
        if g_zero != (pf is None):
            return False
        if g_zero:
            continue
        if s is None:
            s = scalar_of(g, pf)
            if not s:
                return False
        elif g != pf.scale(s):
            return False
    return True


def _det_poly(entries, p, n: int) -> HomogPoly | None:
    """Determinant of a square polynomial matrix by column expansion,
    memoized on the set of unused rows.  None encodes zero."""
    k = len(entries)
    if any(len(row) != k for row in entries):
        raise ValueError("determinant requires a square matrix")
    if k == 0:
        return _one(p, n)
    if k > 16:
        raise ValueError("expansion determinant limited to size 16")
    memo: dict = {}

    def rec(mask: int) -> HomogPoly | None:
        if mask == 0:
            return _one(p, n)
        if mask in memo:
            return memo[mask]
        col = k - bin(mask).count("1")
        acc: HomogPoly | None = None
        sign = 1
        for r in _bits(mask):
            e = entries[r][col]
            if e is not None and not e.is_zero():
                sub = rec(mask ^ (1 << r))
                if sub is not None:
                    term = e * sub
                    if sign < 0:
                        term = term.scale(-1)
                    acc = term if acc is None else acc + term
            sign = -sign
        if acc is not None and acc.is_zero():
            acc = None
        memo[mask] = acc
        return acc

    return rec((1 << k) - 1)


def certify_pf_of_tail(A, f: HomogPoly) -> bool:
    """True iff det(A) is a nonzero scalar times f^2.

    For a size-2d linear matrix this is exactly the statement that its
    Pfaffian is a unit times f (squaring removes the sign ambiguity, so
    no alternating structure on A is needed).  Sizes other than
    2*deg f only draw a warning, since the certificate can then only
    fail.
    """
    k = len(A)
    if any(len(row) != k for row in A):
        raise ValueError("tail matrix must be square")
    if k != 2 * f.deg:
        warnings.warn(
            f"size {k} is not twice deg f = {f.deg}; Pf = unit*f is only "
            "asserted for size 2*deg f",
            RuntimeWarning,
            stacklevel=2,
        )
    det = _det_poly(A, f.p, f.n)
    if det is None:
        return False
    s = scalar_of(det, f * f)
    return s is not None and s != 0
