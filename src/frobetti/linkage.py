"""The linked ideal J_q = ((x_1^q..x_n^q) : f) and its generator/socle data.

J_q is the annihilator of the divided element φ = f / (x_1^(q-1)..x_n^(q-1)),
so its graded pieces split as J_i = c_i ⊕ K̂_i where c = (x_1^q..x_n^q) and
K̂_i is the left kernel of the B-restricted pairing matrix (B = monomials
with all exponents < q).  Generator counting works entirely in B-coordinates:
for i ≥ q+1 the degree-q part of the span is automatic (c_i = P_1·c_{i-1}),
so new generators at degree i are dim K̂_i − dim π_B(P_1·K̂_{i-1}).

One span scan, `_profile_scan`, does that arithmetic.  The literal profile
runs it with the kernel at every degree 1..s+1.  When the link is
relatively compressed (the kernel at ⌈s/2⌉ has its expected dimension),
dim K̂_i = max(0, |B_i| − |B_{s-i}|) in every degree, so the scan extracts
kernels only at degrees where the running span falls short of that
dimension — at large q this replaces hundreds of eliminations with two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ffla import FMatrix, Prime, block_rref, is_power_of, rank, reduce_rows, rref
from .invsys import MultigradeSplitter, bbasis, bhat_kernel, dim_B, is_relatively_compressed, link_inverse_poly
from .polyring import DividedElem, HomogPoly, basis, dim_P, mul_ranks, stack_products


@lru_cache(maxsize=None)
def _bshift(n: int, q: int, i: int, t: int) -> np.ndarray:
    """Index map B_i -> B_{i+1} under multiplication by x_t (-1 = lands in c)."""
    x_t = np.eye(n, dtype=np.int64)[t]
    return bbasis(n, i + 1, q).full_to_sub[mul_ranks(i, bbasis(n, i, q).exps, x_t)]


def _mul_into_B(vecs: np.ndarray, n: int, q: int, i: int) -> np.ndarray:
    """π_B(x_t · v) for all variables t, stacked: (n·k) × |B_{i+1}| rows."""
    return stack_products(vecs, [_bshift(n, q, i, t) for t in range(n)], bbasis(n, i + 1, q).size)


def _bkernel(phi: DividedElem, i: int, q: int) -> FMatrix:
    """Basis of K̂_i = J_i ∩ span(B_i), rows over the B_i monomial basis.

    Row vectors v with v·Φ̂_i = 0; since Φ̂_i is the transpose of Φ̂_{s-i},
    this is the right kernel of the (s-i)-degree matrix — built directly to
    avoid materializing both orientations at large q.
    """
    if i > phi.deg:
        return FMatrix.identity(phi.p, bbasis(phi.n, i, q).size)
    return bhat_kernel(phi, phi.deg - i, q)


def _grouped_rref(p, a: np.ndarray, ckey: np.ndarray):
    """RREF basis of the row space of a when every row's support sits in one
    column class (true of kernel rows and their variable shifts).  Splitting
    by class keeps each elimination at roughly a component's size.  Returns
    (basis rows, rank)."""
    nz = a != 0
    live = nz.any(axis=1)
    a = a[live]
    rcls = ckey[np.argmax(nz[live], axis=1)] if a.size else ckey[:0]
    cols = {c: np.flatnonzero(ckey == c) for c in np.unique(rcls)}
    blocks = [(cc, a[rcls == c][:, cc]) for c, cc in cols.items()]
    if sum(np.count_nonzero(sub) for _, sub in blocks) != np.count_nonzero(a):
        raise AssertionError("row support crosses column classes")
    return block_rref(p, a.shape[1], blocks)


@dataclass(frozen=True)
class GeneratorProfile:
    """Minimal generator counts by degree; bounds hold entries only known
    as upper bounds (the odd-socle-degree second candidate)."""

    counts: dict[int, int]
    bounds: dict[int, int] = field(default_factory=dict)
    ci_minimal: bool | None = None  # measured profiles: x_t^q independent mod P1·J

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def degrees(self) -> list[int]:
        return sorted(set(self.counts) | set(self.bounds))


def _count_at_q(phi: DividedElem, q: int, n: int, kprev: FMatrix, kq: FMatrix):
    """Generators at degree q itself: the c-monomials join here, and products
    of J_{q-1} can leave the B-span, so this one degree works in full P_q
    coordinates.  Returns (count, ci_minimal)."""
    p = phi.p
    full_q = basis(n, q)
    if kprev.rows == 0:
        return n + kq.rows, True
    src = bbasis(n, q - 1, q).exps
    maps = [mul_ranks(q - 1, src, x_t) for x_t in np.eye(n, dtype=np.int64)]
    prods = stack_products(kprev.a, maps, full_q.size)
    R, r, _ = rref(FMatrix.of(p, prods))
    cvecs = np.zeros((n, full_q.size), dtype=np.int64)
    cvecs[np.arange(n), full_q.rank_rows(q * np.eye(n, dtype=np.int64))] = 1
    kvecs = np.zeros((kq.rows, full_q.size), dtype=np.int64)
    kvecs[:, bbasis(n, q, q).idx] = kq.a
    total = rank(FMatrix.of(p, np.concatenate([R.a[:r], cvecs, kvecs], axis=0)))
    with_ci = rank(FMatrix.of(p, np.concatenate([R.a[:r], cvecs], axis=0)))
    return total - r, with_ci - r == n


def _profile_scan(phi: DividedElem, q: int, degrees, vecs: np.ndarray, counts: dict[int, int],
                  expected=None) -> np.ndarray:
    """Record dim K̂_i − rank π_B(P_1·K̂_{i-1}) new generators at each degree
    i.  vecs spans K̂ one degree below the first; returns rows spanning K̂ at
    the last.  Where expected(i) = dim K̂_i is given, a span that reaches it
    is K̂_i and no kernel is extracted; any other kernel dimension raises."""
    p, n = phi.p, phi.n
    sp = MultigradeSplitter.of(phi)
    for i in degrees:
        bi = bbasis(n, i, q)
        if len(vecs):
            span = _mul_into_B(vecs, n, q, i - 1)
            basis_rows, r = _grouped_rref(p, span, sp.keys(bi.exps)[0])
        else:
            basis_rows, r = np.zeros((0, bi.size), dtype=np.int64), 0
        if expected is not None and r == expected(i):
            vecs = basis_rows
            continue
        ki = _bkernel(phi, i, q)
        if expected is not None and ki.rows != expected(i):
            raise RuntimeError(
                f"compressed Hilbert function violated at degree {i}: "
                f"kernel dim {ki.rows} != {expected(i)}"
            )
        if ki.rows > r:
            counts[i] = ki.rows - r
        vecs = ki.a
    return vecs


def _profile_literal(phi: DividedElem, q: int, n: int) -> GeneratorProfile:
    """Kernels at every degree 1..s+1, with degree q counted in full P_q."""
    s = phi.deg
    counts: dict[int, int] = {}
    kprev = _profile_scan(phi, q, range(1, min(q, s + 2)), np.zeros((0, 1), dtype=np.int64), counts)
    if q > s + 1:  # n = 1: the scan ends below q
        return GeneratorProfile(counts=counts, ci_minimal=True)
    kq = _bkernel(phi, q, q)
    mu, ci_minimal = _count_at_q(phi, q, n, FMatrix.of(phi.p, kprev), kq)
    if mu:
        counts[q] = mu
    _profile_scan(phi, q, range(q + 1, s + 2), kq.a, counts)
    return GeneratorProfile(counts=counts, ci_minimal=ci_minimal)


def measured_generator_profile(f: HomogPoly, q: int, thorough: bool = False) -> GeneratorProfile:
    """Degrees and counts of minimal generators of J_q, by span growth.

    thorough=True takes the kernel at every degree; by default, when the
    link is relatively compressed, the same span scan reads dim K̂_i off
    the compressed Hilbert function instead (the two modes agree — the
    scan verifies every span dimension it uses).
    """
    phi = link_inverse_poly(f, q)
    n = f.n
    s = phi.deg
    # the shortcut needs every degree <= q to sit at or below the middle
    # (for n=3 this is q >= d+3), so that J has only the n CI generators there
    if not thorough and 2 * q <= s:

        def expected(i: int) -> int:
            return bbasis(n, i, q).size - (dim_B(n, s - i, q) if i <= s else 0)

        # the quick compressedness check at ⌈s/2⌉ is the same elimination
        # that yields the first kernel: the link is compressed iff its
        # dimension is the expected one
        i1 = (s + 1) // 2
        k1 = _bkernel(phi, i1, q)
        if k1.rows == expected(i1):
            counts = {q: n}
            if k1.rows:
                counts[i1] = k1.rows
            _profile_scan(phi, q, range(i1 + 1, s + 2), k1.a, counts, expected)
            return GeneratorProfile(counts=counts, ci_minimal=True)
    return _profile_literal(phi, q, n)


def predicted_generator_profile(n: int, d: int, q: int) -> GeneratorProfile:
    """Generator degrees/counts forced for relatively compressed links.

    Even s: n at degree q plus the four-binomial count at s/2+1 (equal to 2d
    when n=3).  Odd s: n at q, d at ⌈s/2⌉, and an upper bound 3d at ⌈s/2⌉+1.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if q * (n - 2) < n + d:
        raise ValueError(f"require q >= (n+d)/(n-2) (got q={q}, n={n}, d={d})")
    s = n * (q - 1) - d
    counts = {q: n}
    bounds: dict[int, int] = {}
    if s % 2 == 0:
        i0 = s // 2 + 1

        def dimc(j: int) -> int:
            return dim_P(n, j) - dim_B(n, j, q)

        counts[i0] = dim_P(n, i0) - dim_P(n, s - i0) + dimc(s - i0) - dimc(i0)
    else:
        counts[(s + 1) // 2] = d
        bounds[(s + 1) // 2 + 1] = 3 * d
    return GeneratorProfile(counts=counts, bounds=bounds)


@dataclass(frozen=True)
class SocleReport:
    dims: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.dims.values())


def _fmul_rows(f: HomogPoly, q: int, j: int) -> np.ndarray:
    """Rows spanning π_B(f·B_{j-d}) inside B_j."""
    n = f.n
    src = bbasis(n, j - f.deg, q)
    tgt = bbasis(n, j, q)
    out = np.zeros((src.size, tgt.size), dtype=np.int64)
    for m, c in f.terms():
        sub = tgt.full_to_sub[mul_ranks(j - f.deg, src.exps, m)]
        ok = sub >= 0
        out[np.nonzero(ok)[0], sub[ok]] = c
    return out


def fmul_rank(f: HomogPoly, q: int, j: int) -> int:
    """rank of π_B(f·B_{j-d}) inside B_j, summed over f's multidegree classes.

    Row m reaches only the columns m + t for t in f's support, so the
    matrix is block-diagonal over the classes of m + t0 (rows) and of the
    target monomial (columns), and its rank is the sum of the block ranks.
    """
    M = _fmul_rows(f, q, j)
    if not M.any():
        return 0
    sp = MultigradeSplitter.of(f)
    rkey, ckey = sp.keys(bbasis(f.n, j - f.deg, q).exps + sp.t0, bbasis(f.n, j, q).exps)
    return sum(rank(FMatrix.of(f.p, M[np.ix_(rkey == c, ckey == c)]))
               for c in np.intersect1d(rkey, ckey))


def quotient_hilbert(f: HomogPoly | None, q: int, *, p=None, n: int = 3) -> list[int]:
    """Hilbert function of A/fA, A = P/(x_1^q..x_n^q), up to its top degree.

    A product with any exponent >= q dies in A, so multiplication by f acts
    on the truncated monomial bases and the dimension in degree j is |B_j|
    minus fmul_rank(f, q, j).  A is Gorenstein with socle degree
    s = n(q-1) and multiplication by f is self-adjoint for the socle
    pairing, so rank_j = rank_{s+d-j}: only degrees up to (s+d)/2 are
    eliminated.  With f omitted this is the box A itself.
    """
    if f is not None:
        p, n = f.p, f.n
    elif p is None:
        raise ValueError("p is required when f is omitted")
    Prime(p)  # a bad p is refused even where no rank needs it
    s = n * (q - 1)
    ranks = [0] * (s + 1)
    if f is not None:
        d = f.deg
        for j in range(d, (s + d) // 2 + 1):
            ranks[j] = fmul_rank(f, q, j)
        for j in range((s + d) // 2 + 1, s + 1):
            ranks[j] = ranks[s + d - j]
    hf = [dim_B(n, j, q) - r for j, r in enumerate(ranks)]
    while hf and hf[-1] == 0:
        hf.pop()
    return hf


def socle_direct(f: HomogPoly | None, q: int, *, p=None, n: int = 3) -> SocleReport:
    """Socle of P/((x_1^q..x_n^q) + (f)) by simultaneous multiplication kernels.

    With f omitted this is the complete-intersection quotient P/c.
    Per degree j: soc_j = |B_j| − rank[x_1 .. x_n mod U_{j+1}] − rank U_j,
    where U_j = π_B(f·B_{j-d}) (the image rows are themselves closed under
    multiplication, so they always land inside the degree-(j+1) image).
    """
    if f is None:
        if p is None:
            raise ValueError("p required when f is omitted")
        p = Prime(p)
    else:
        p, n = f.p, f.n
    top = n * (q - 1)
    dims: dict[int, int] = {}
    U_next: tuple[np.ndarray, list[int]] | None = None  # rref rows, pivots at j+1
    for j in range(top, -1, -1):
        bj = bbasis(n, j, q)
        if f is not None:
            Uj_raw = _fmul_rows(f, q, j)
            R, rj, piv = rref(FMatrix.of(p, Uj_raw))
            Uj = (R.a[:rj], piv)
        else:
            Uj = (np.zeros((0, bj.size), dtype=np.int64), [])
        rank_Uj = len(Uj[1])
        quot_dim = bj.size - rank_Uj
        if quot_dim > 0:
            bnext = bbasis(n, j + 1, q)
            if bnext.size == 0 or (U_next is not None and len(U_next[1]) == bnext.size):
                soc = quot_dim  # everything above is zero: whole piece is socle
            else:
                blocks = []
                for t in range(n):
                    S = np.zeros((bj.size, bnext.size), dtype=np.int64)
                    sh = _bshift(n, q, j, t)
                    ok = sh >= 0
                    S[np.nonzero(ok)[0], sh[ok]] = 1
                    if U_next is not None and U_next[1]:
                        Urows, Upiv = U_next
                        _, S = reduce_rows(Urows, Upiv, S, p)
                    blocks.append(S)
                M = np.concatenate(blocks, axis=1)
                nullity = bj.size - rank(FMatrix.of(p, M))
                soc = nullity - rank_Uj
            if soc:
                dims[j] = soc
        U_next = Uj
    return SocleReport(dims=dims)


def socle_via_link(f: HomogPoly, q: int) -> SocleReport:
    """Socle read off the generator profile of J_q (degree j ↔ n(q-1) − j)."""
    profile = measured_generator_profile(f, q)
    if not profile.ci_minimal:
        raise ValueError("link degeneracy")
    n = f.n
    top = n * (q - 1)
    dims: dict[int, int] = {}
    for i, c in profile.counts.items():
        extra = c - n if i == q else c
        if extra > 0:
            dims[top - i] = extra
    return SocleReport(dims=dims)


def frobenius_shift(n: int, q0: int, q1: int) -> int | None:
    """The degree shift 3(q1 − q0)/2 that carries socle degrees and tail
    twists of the q0 instance to the q1 instance, or None when it is not
    an integer.  The formula holds for n = 3 variables only; other n raise
    ValueError."""
    if n != 3:
        raise ValueError(f"the shift 3(q1-q0)/2 holds for n = 3 only (got n={n})")
    return None if (3 * (q1 - q0)) % 2 else 3 * (q1 - q0) // 2


@dataclass(frozen=True)
class KUShiftReport:
    ok: bool
    shift: int
    q0: int
    q1: int
    pairs: list  # (degree at q0, degree at q0 + shift, dim at q0, dim at q1)

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def compare(cls, q0: int, s0: SocleReport, q1: int, s1: SocleReport) -> "KUShiftReport":
        """Compare the socle at q1 with the socle at q0 shifted by frobenius_shift
        (the socle shift theorem is for n = 3; require_ku_shift refuses other n)."""
        shift = frobenius_shift(3, q0, q1)
        degrees = sorted(set(j + shift for j in s0.dims) | set(s1.dims))
        pairs = [(j - shift, j, s0.dims.get(j - shift, 0), s1.dims.get(j, 0)) for j in degrees]
        ok = all(v0 == v1 for _, _, v0, v1 in pairs)
        return cls(ok=ok, shift=shift, q0=q0, q1=q1, pairs=pairs)


def require_ku_shift(f: HomogPoly, q0: int, q1: int) -> None:
    """Raise ValueError unless the socle shift theorem applies to f at q0 and q1:
    n = 3, q0 <= q1 both powers of p, q0 >= d+3, and both links relatively
    compressed."""
    d = f.deg
    p = int(f.p)
    frobenius_shift(f.n, q0, q1)  # refuses n != 3
    if not is_power_of(q0, p) or not is_power_of(q1, p):
        raise ValueError(f"q0, q1 must be powers of p={p}")
    if q1 < q0:
        raise ValueError("require q1 >= q0")
    if q0 < d + 3:
        raise ValueError(f"require q0 >= d+3 (got q0={q0}, d={d})")
    for q in (q0, q1):
        if not is_relatively_compressed(f, q):
            raise ValueError(f"link not relatively compressed at q={q}")


def ku_shift_check(f: HomogPoly, q0: int, q1: int) -> KUShiftReport:
    """Socle of the q1 instance = socle of the q0 instance shifted by (3/2)(q1−q0)."""
    require_ku_shift(f, q0, q1)
    return KUShiftReport.compare(q0, socle_via_link(f, q0), q1, socle_via_link(f, q1))
