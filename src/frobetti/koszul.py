"""Koszul strand complexes and their homology ranks.

The symmetric algebra S = k[X1..Xn] carries the Koszul complex of the
variables; its degree strands are complexes of finite-dimensional k-spaces

    Λ^(a+1) ⊗ S_(b-1) → Λ^a ⊗ S_b → Λ^(a-1) ⊗ S_(b+1)        (kappa)

and their duals act on divided powers by contraction

    Λ^(a+1) ⊗ D_(b+1) → Λ^a ⊗ D_b → Λ^(a-1) ⊗ D_(b-1)        (eta).

Both are exact whenever a + b ≥ 1.  For an inverse-system element φ the
images D′_b = im(Φ_(s-b)) form an eta-stable subcomplex (eta_prime) which
is no longer exact; the homology ranks C_{i,j} of that subcomplex control
where truncations J_{≥m} of the annihilator ideal pick up generators
beyond degrees m and m+1: a nonzero C_{1,j} permits generators in degree
s+1-j.  `truncated_degree_ledger` measures the actual generator degrees
and checks them against that superset.

Matrices follow the row-vector convention (source indexes rows), with the
tensor basis ordered wedge-major: index = wedge_index * dim + monomial.
Wedge monomials e_{t1} ∧ … ∧ e_{ta} are increasing tuples in lexicographic
order, and removing position r (1-based) carries sign (-1)^(r+1), so that
the bottom map sends e_i ⊗ 1 to X_i with coefficient +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .ffla import FMatrix, rank, reduce_rows
from .invsys import ann_piece, dprime_basis
from .polyring import DividedElem, basis, dim_P, mul_ranks

_KINDS = ("kappa", "eta", "eta_prime", "kos")


def _wedges(n: int, a: int) -> list[tuple[int, ...]]:
    if a < 0 or a > n:
        return []
    return list(combinations(range(n), a))


@lru_cache(maxsize=None)
def _mult_map(n: int, b: int, t: int) -> np.ndarray:
    """Index map S_b -> S_{b+1} (or P_b -> P_{b+1}) under the variable t."""
    return mul_ranks(b, basis(n, b).exps, np.eye(n, dtype=np.int64)[t])


@lru_cache(maxsize=None)
def _contr_map(n: int, b: int, t: int) -> np.ndarray:
    """Partial index map D_b -> D_{b-1} under contraction by X_t (-1 = killed):
    the inverse of _mult_map(n, b-1, t)."""
    out = np.full(dim_P(n, b), -1, dtype=np.int64)
    out[_mult_map(n, b - 1, t)] = np.arange(dim_P(n, b - 1))
    return out


def _kappa_matrix(p: int, n: int, a: int, b: int) -> FMatrix:
    Wa = _wedges(n, a)
    Wt = _wedges(n, a - 1)
    ds, dt = dim_P(n, b), dim_P(n, b + 1)
    M = np.zeros((len(Wa) * ds, len(Wt) * dt), dtype=np.int64)
    tpos = {T: i for i, T in enumerate(Wt)}
    idx = np.arange(ds)
    for wi, T in enumerate(Wa):
        for r, t in enumerate(T):
            sign = 1 if r % 2 == 0 else p - 1
            rest = T[:r] + T[r + 1 :]
            M[wi * ds + idx, tpos[rest] * dt + _mult_map(n, b, t)] = sign
    return FMatrix.of(p, M)


def _eta_matrix(p: int, n: int, a: int, b: int) -> FMatrix:
    Wa = _wedges(n, a)
    Wt = _wedges(n, a - 1)
    ds = dim_P(n, b)
    dt = dim_P(n, b - 1) if b >= 1 else 0
    M = np.zeros((len(Wa) * ds, len(Wt) * dt), dtype=np.int64)
    if dt:
        tpos = {T: i for i, T in enumerate(Wt)}
        for wi, T in enumerate(Wa):
            for r, t in enumerate(T):
                sign = 1 if r % 2 == 0 else p - 1
                rest = T[:r] + T[r + 1 :]
                cm = _contr_map(n, b, t)
                ok = cm >= 0
                M[wi * ds + np.nonzero(ok)[0], tpos[rest] * dt + cm[ok]] = sign
    return FMatrix.of(p, M)


def _dprime(phi: DividedElem, b: int) -> FMatrix:
    """Row basis of D′_b (zero-row matrix outside 0..s)."""
    if b < 0 or b > phi.deg:
        return FMatrix.zeros(phi.p, 0, dim_P(phi.n, max(b, 0)))
    return dprime_basis(phi, phi.deg - b)


def _eta_prime_matrix(phi: DividedElem, a: int, b: int, Vb: FMatrix, Vprev: FMatrix) -> FMatrix:
    """eta in D′ coordinates: rows Λ^a ⊗ (rows of Vb), cols Λ^(a-1) ⊗ (rows of Vprev)."""
    p, n = phi.p, phi.n
    Wa = _wedges(n, a)
    Wt = _wedges(n, a - 1)
    kb, kt = Vb.rows, Vprev.rows
    M = np.zeros((len(Wa) * kb, len(Wt) * kt), dtype=np.int64)
    if kb == 0 or kt == 0 or not Wt:
        return FMatrix.of(p, M)
    piv = list(np.argmax(Vprev.a != 0, axis=1))
    coords = []
    for t in range(n):
        cm = _contr_map(n, b, t)
        ok = cm >= 0
        contracted = np.zeros((kb, Vprev.cols), dtype=np.int64)
        contracted[:, cm[ok]] = Vb.a[:, ok]
        c, resid = reduce_rows(Vprev.a, piv, contracted, p)
        if resid.any():
            raise AssertionError("contraction left the D' subspace")
        coords.append(c)
    tpos = {T: i for i, T in enumerate(Wt)}
    for wi, T in enumerate(Wa):
        for r, t in enumerate(T):
            block = coords[t] if r % 2 == 0 else (-coords[t]) % p
            ci = tpos[T[:r] + T[r + 1 :]]
            M[wi * kb : (wi + 1) * kb, ci * kt : (ci + 1) * kt] = block
    return FMatrix.of(p, M)


@dataclass(frozen=True)
class StrandMatrix:
    """One strand differential as an exact matrix over GF(p).

    kind "kappa": Λ^a ⊗ S_b → Λ^(a-1) ⊗ S_(b+1)  (multiply by X_t)
    kind "kos":   Λ^a ⊗ P_b → Λ^(a-1) ⊗ P_(b+1)  (multiply by x_t)
    kind "eta":   Λ^a ⊗ D_b → Λ^(a-1) ⊗ D_(b-1)  (contract by X_t)
    kind "eta_prime": the eta matrix restricted to D′ coordinates.
    """

    kind: str
    a: int
    b: int
    matrix: FMatrix

    @property
    def source_dim(self) -> int:
        return self.matrix.rows

    @property
    def target_dim(self) -> int:
        return self.matrix.cols


def strand_matrix(
    kind: str,
    a: int,
    b: int,
    phi: DividedElem | None = None,
    *,
    p: int | None = None,
    n: int = 3,
) -> StrandMatrix:
    """Strand differential at position (a, b); see StrandMatrix for the kinds.

    eta_prime requires φ (it fixes p, n and the D′ bases); the other kinds
    take p (and n, default 3) directly or inherit them from φ if given.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown strand kind {kind!r}")
    if phi is not None:
        p, n = phi.p, phi.n
    if p is None:
        raise ValueError("p required when no φ is given")
    if not (0 <= a <= n) or b < 0:
        raise ValueError(f"strand index ({a}, {b}) out of range")
    if kind in ("kappa", "kos"):
        return StrandMatrix(kind, a, b, _kappa_matrix(p, n, a, b))
    if kind == "eta":
        return StrandMatrix(kind, a, b, _eta_matrix(p, n, a, b))
    if phi is None:
        raise ValueError("eta_prime requires φ")
    if b > phi.deg:
        raise ValueError(f"strand index ({a}, {b}) out of range: D'_{b} = 0 beyond s={phi.deg}")
    return StrandMatrix(kind, a, b, _eta_prime_matrix(phi, a, b, _dprime(phi, b), _dprime(phi, b - 1)))


@dataclass(frozen=True)
class CRank:
    """Homology rank C_{i,j} of the D′ strand at wedge degree i, power degree j."""

    i: int
    j: int
    rank: int


def c_rank(phi: DividedElem, i: int, j: int) -> CRank:
    """rank of the degree-(i, j) homology of the eta_prime subcomplex.

    Computed as (dim Λ^i ⊗ D′_j − rank η′_{i,j}) − rank η′_{i+1,j+1}; the
    second term is the image arriving from Λ^(i+1) ⊗ D′_(j+1), which lies
    in the kernel because the strand is a complex.
    """
    n, s = phi.n, phi.deg
    if not (0 <= i <= n) or not (0 <= j <= s):
        raise ValueError(f"position ({i}, {j}) out of range")
    Vprev, Vj, Vnext = _dprime(phi, j - 1), _dprime(phi, j), _dprime(phi, j + 1)
    nwedge = len(_wedges(n, i))
    cycles = nwedge * Vj.rows - rank(_eta_prime_matrix(phi, i, j, Vj, Vprev))
    if i + 1 > n:
        boundaries = 0
    else:
        boundaries = rank(_eta_prime_matrix(phi, i + 1, j + 1, Vnext, Vj))
    return CRank(i, j, cycles - boundaries)


@dataclass(frozen=True)
class TruncatedLedger:
    """Generator degrees of the truncated ideal J_{≥m}, measured and predicted.

    measured: degree -> number of minimal generators found there.
    predicted: superset the degrees must land in: {m, m+1} plus s+1-j for
    every j < s-m with C_{1,j} ≠ 0.
    """

    m: int
    measured: dict[int, int]
    predicted: frozenset[int]
    c_ranks: dict[int, int]

    @property
    def ok(self) -> bool:
        return set(self.measured) <= self.predicted

    def degrees(self) -> set[int]:
        return set(self.measured)


def _span_rank(p: int, n: int, vecs: np.ndarray, i: int) -> int:
    """rank of P_1 · (row space of vecs), vecs over the degree-(i-1) basis."""
    k = vecs.shape[0]
    prods = np.zeros((n * k, dim_P(n, i)), dtype=np.int64)
    for t in range(n):
        prods[t * k : (t + 1) * k, _mult_map(n, i - 1, t)] = vecs
    return rank(FMatrix.of(p, prods))


def truncated_degree_ledger(phi: DividedElem, m: int) -> TruncatedLedger:
    """Measure minimal generator degrees of J_{≥m} and the homology superset.

    J = ann(φ).  The truncation J_{≥m} is generated in degree m (all of
    J_m), degree m+1 (fresh elements of J_{m+1}), and degrees s+1-j where
    the strand homology C_{1,j} is nonzero (0 ≤ j ≤ s-m-1).  The measured
    profile scans degrees m..s+1 by span growth in full coordinates.
    """
    p, n, s = phi.p, phi.n, phi.deg
    if not (1 <= m <= s + 1):
        raise ValueError(f"truncation degree {m} outside 1..{s + 1}")
    measured: dict[int, int] = {}
    prev = ann_piece(phi, m) if m <= s else FMatrix.identity(p, dim_P(n, m))
    if prev.rows:
        measured[m] = prev.rows
    for i in range(m + 1, s + 2):
        Ji = ann_piece(phi, i) if i <= s else FMatrix.identity(p, dim_P(n, i))
        r = _span_rank(p, n, prev.a, i) if prev.rows else 0
        mu = Ji.rows - r
        if mu:
            measured[i] = mu
        prev = Ji
    c_ranks = {j: c_rank(phi, 1, j).rank for j in range(max(s - m, 0))}
    predicted = {m, m + 1} | {s + 1 - j for j, c in c_ranks.items() if c}
    return TruncatedLedger(m=m, measured=measured, predicted=frozenset(predicted), c_ranks=c_ranks)
