"""Graded free resolutions by degreewise exact linear algebra.

Resolves P/(x_1^q,...,x_n^q,f) over the polynomial ring P and
R/(x_1^q,...,x_n^q)R over the hypersurface ring R = P/(f), one internal
degree at a time.  In each degree the boundary condition is a finite
linear system over GF(p): kernels come from exact elimination, and the
minimal generators of each syzygy module are split off as a complement
of the span of the variable shifts of the kernel one degree below
(`ffla.span_scan`).  From step 3 on, exactness gives dim ker(d_k)_j =
dim F_k,j − dim ker(d_(k-1))_j in every degree the step before scanned,
so a step eliminates its kernel only in step 2, past the previous cap, or
where the span falls short.  No Groebner machinery is involved; a single
polynomial f is the one place where division happens, and division by
one polynomial is a linear reduction computable monomial by monomial.

Over P the scan range of homological step i is certified by the top
nonzero degree of the artinian quotient (no minimal syzygy lives beyond
top + i).  Over R no a priori bound exists before the periodic tail
stabilizes, so each step scans to a cap (default: largest source degree
+ q + deg f) and raises if a generator appears at the cap boundary
itself, since that leaves later degrees unexcluded.

Betti tables serialize to JSON and to the text grid used by the golden
corpus.  Eventually periodic tails are detected from the table shape,
and two consecutive tail differentials lift to a matrix factorization
of f (entry degrees below deg f make the lifts unique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .ffla import (
    FMatrix, Prime, _mulmod, inv_small, int64_room, kernel_basis, rank, reduce_rows, rref, span_scan,
)
from .linkage import quotient_hilbert
from .polyring import HomogPoly, basis, dim_P, mul_ranks


def mult_matrix(g: HomogPoly, a: int) -> np.ndarray:
    """Matrix of multiplication by g from P_a to P_{a+deg g}.

    Rows index the monomial basis of P_a, so row-vector @ matrix is the
    coefficient vector of the product.
    """
    tgt = basis(g.n, a + g.deg)
    if a < 0:
        return np.zeros((0, tgt.size), dtype=np.int64)
    src = basis(g.n, a)
    out = np.zeros((src.size, tgt.size), dtype=np.int64)
    rows = np.arange(src.size)
    for m, c in g.terms():
        out[rows, mul_ranks(a, src.exps, m)] = c
    return out


class _PlainSlices:
    """Degreewise coordinate arithmetic for P itself."""

    def __init__(self, p: Prime, n: int):
        self.p = p
        self.n = n
        self._shifts: dict[tuple[int, int], np.ndarray] = {}

    def dim(self, a: int) -> int:
        return dim_P(self.n, a) if a >= 0 else 0

    def mult(self, g: HomogPoly, a: int) -> np.ndarray:
        return mult_matrix(g, a)

    def shift(self, a: int, t: int) -> np.ndarray:
        key = (a, t)
        if key not in self._shifts:
            src = basis(self.n, a)
            x_t = np.eye(self.n, dtype=np.int64)[t]
            out = np.zeros((src.size, dim_P(self.n, a + 1)), dtype=np.int64)
            out[np.arange(src.size), mul_ranks(a, src.exps, x_t)] = 1
            self._shifts[key] = out
        return self._shifts[key]

    def encode(self, g: HomogPoly) -> np.ndarray:
        return g.coef

    def decode(self, vec: np.ndarray, a: int) -> HomogPoly:
        return HomogPoly(self.p, self.n, a, vec)


class QuotientBasis:
    """Standard-monomial coordinates for the hypersurface quotient P/(f).

    Monomials not divisible by the graded-lex leading monomial of f form
    a basis of each graded piece (one generator is trivially its own
    Groebner basis).  Reduction rewrites a divisible monomial through f
    into strictly smaller monomials of the same degree, so a single
    descending pass over the basis produces the whole reduction matrix.
    """

    def __init__(self, f: HomogPoly):
        if f.is_zero() or f.deg < 1:
            raise ValueError("modulus must be a nonzero form of positive degree")
        self.f = f
        self.p = f.p
        self.n = f.n
        self.d = f.deg
        lm, lc = f.leading()
        self.lead = np.asarray(lm, dtype=np.int64)
        # lead = sum over the other terms of (-c / lc) * m, modulo f
        lcinv = pow(int(lc), -1, int(f.p))
        self._rest = [(m, -c * lcinv % f.p) for m, c in f.terms() if m != lm]
        self._reduce: dict[int, np.ndarray] = {}
        self._std: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._shifts: dict[tuple[int, int], np.ndarray] = {}

    def dim(self, a: int) -> int:
        if a < 0:
            return 0
        return dim_P(self.n, a) - dim_P(self.n, a - self.d)

    def _std_data(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices of standard monomials in basis(n, j), exponent rows)."""
        if j not in self._std:
            b = basis(self.n, j)
            divisible = np.all(b.exps >= self.lead, axis=1)
            idx = np.nonzero(~divisible)[0]
            self._std[j] = (idx, b.exps[idx])
        return self._std[j]

    def std_exps(self, j: int) -> np.ndarray:
        return self._std_data(j)[1]

    def reduce_matrix(self, j: int) -> np.ndarray:
        """dim_P(j) x dim(j) matrix sending P_j coordinates to reduced ones."""
        if j in self._reduce:
            return self._reduce[j]
        std_idx, _ = self._std_data(j)
        w = std_idx.size
        R = np.zeros((dim_P(self.n, j), w), dtype=np.int64)
        R[std_idx, np.arange(w)] = 1
        # the non-standard monomials are lead * P_{j-d}, in the same order;
        # all rewrite targets of index i sit at strictly larger index
        # (descending graded-lex), so one reverse pass suffices
        quo = basis(self.n, j - self.d).exps
        nonstd = mul_ranks(j - self.d, quo, self.lead)
        targets = [mul_ranks(j - self.d, quo, m) for m, _ in self._rest]
        room = int64_room(self.p)
        for pos in range(nonstd.size - 1, -1, -1):
            acc = np.zeros(w, dtype=np.int64)
            for k, ((_, c), t) in enumerate(zip(self._rest, targets), 1):
                acc += c * R[t[pos]]
                if k % room == 0:
                    acc %= self.p
            R[nonstd[pos]] = acc % self.p
        self._reduce[j] = R
        return R

    def mult(self, g: HomogPoly, a: int) -> np.ndarray:
        """Matrix of multiplication by g on reduced coordinates."""
        e = g.deg
        if a < 0:
            return np.zeros((0, self.dim(a + e)), dtype=np.int64)
        _, se = self._std_data(a)
        red = self.reduce_matrix(a + e)
        out = np.zeros((se.shape[0], self.dim(a + e)), dtype=np.int64)
        room = int64_room(self.p)
        for k, (m, c) in enumerate(g.terms(), 1):
            out += c * red[mul_ranks(a, se, m)]
            if k % room == 0:
                out %= self.p
        return out % self.p

    def shift(self, a: int, t: int) -> np.ndarray:
        key = (a, t)
        if key not in self._shifts:
            x_t = HomogPoly.monomial(self.p, self.n, np.eye(self.n, dtype=np.int64)[t])
            self._shifts[key] = self.mult(x_t, a)
        return self._shifts[key]

    def encode(self, g: HomogPoly) -> np.ndarray:
        return _mulmod(g.coef[None, :], self.reduce_matrix(g.deg), self.p)[0]

    def decode(self, vec: np.ndarray, a: int) -> HomogPoly:
        std_idx, _ = self._std_data(a)
        coef = np.zeros(dim_P(self.n, a), dtype=np.int64)
        coef[std_idx] = vec
        return HomogPoly(self.p, self.n, a, coef)

    def reduce_poly(self, g: HomogPoly) -> HomogPoly:
        """The standard-monomial representative of g mod f."""
        return self.decode(self.encode(g), g.deg)


@dataclass(frozen=True)
class GradedFreeMap:
    """One differential of a graded free resolution.

    Generator r of the source (degree src_degs[r]) maps to
    sum_c entries[r][c] * E_c; entry (r, c) is homogeneous of degree
    src_degs[r] - tgt_degs[c], with None standing for zero (mandatory
    when that degree is negative).
    """

    src_degs: tuple[int, ...]
    tgt_degs: tuple[int, ...]
    entries: tuple[tuple[HomogPoly | None, ...], ...]

    def entry(self, r: int, c: int) -> HomogPoly | None:
        return self.entries[r][c]

    def validate(self) -> None:
        if len(self.entries) != len(self.src_degs):
            raise ValueError("entry rows do not match source rank")
        for r, row in enumerate(self.entries):
            if len(row) != len(self.tgt_degs):
                raise ValueError("entry columns do not match target rank")
            for c, g in enumerate(row):
                want = self.src_degs[r] - self.tgt_degs[c]
                if g is None:
                    continue
                if want < 0:
                    raise ValueError(f"entry ({r},{c}) must vanish (degree {want})")
                if g.deg != want:
                    raise ValueError(
                        f"entry ({r},{c}) has degree {g.deg}, forced {want}"
                    )


class BettiTable:
    """Graded Betti numbers beta_{i,j} of one resolution, with ring tag."""

    def __init__(self, ring: str, steps: int, entries: dict[tuple[int, int], int]):
        if ring not in ("P", "R"):
            raise ValueError("ring tag must be 'P' or 'R'")
        self.ring = ring
        self.steps = steps
        self.entries = {k: int(v) for k, v in entries.items() if v}

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def twists(self, i: int) -> dict[int, int]:
        return {j: b for (k, j), b in sorted(self.entries.items()) if k == i}

    def total(self, i: int) -> int:
        return sum(b for (k, _), b in self.entries.items() if k == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.steps + 1)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "ring": self.ring,
                "steps": self.steps,
                "entries": [[i, j, b] for (i, j), b in sorted(self.entries.items())],
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        obj = json.loads(text)
        entries = {(int(i), int(j)): int(b) for i, j, b in obj["entries"]}
        return cls(obj["ring"], int(obj["steps"]), entries)

    def to_grid(self) -> str:
        """Text grid: one column per homological degree, rows labeled j-i."""
        cols = list(range(self.steps + 1))
        rows = sorted({j - i for i, j in self.entries})
        cells = {
            (j - i, i): str(b) for (i, j), b in self.entries.items()
        }
        body = [("total:", [str(self.total(i)) for i in cols])]
        for r in rows:
            body.append((f"{r}:", [cells.get((r, i), ".") for i in cols]))
        widths = [
            max(len(str(c)), max(len(line[1][k]) for line in body))
            for k, c in enumerate(cols)
        ]
        lw = max(len(label) for label, _ in body)
        lines = [
            " " * lw + " " + " ".join(str(c).rjust(widths[k]) for k, c in enumerate(cols))
        ]
        for label, vals in body:
            lines.append(
                label.rjust(lw) + " " + " ".join(v.rjust(widths[k]) for k, v in enumerate(vals))
            )
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and (self.ring, self.steps, self.entries)
            == (other.ring, other.steps, other.entries)
        )

    def __repr__(self) -> str:
        return f"BettiTable(ring={self.ring!r}, steps={self.steps}, entries={self.entries!r})"


@dataclass(frozen=True)
class Resolution:
    """A computed stretch of a minimal graded free resolution."""

    ring: str
    q: int
    modulus: HomogPoly | None
    maps: tuple[GradedFreeMap, ...]
    table: BettiTable
    ops: object = field(repr=False, compare=False)


def _slot_layout(ops, degs, j):
    dims = [ops.dim(j - d) for d in degs]
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    return dims, offs


def _eval_matrix(ops, gmap: GradedFreeMap, j: int) -> FMatrix:
    """Evaluation of the map in internal degree j, columns = source coords."""
    sdims, soff = _slot_layout(ops, gmap.src_degs, j)
    tdims, toff = _slot_layout(ops, gmap.tgt_degs, j)
    K = np.zeros((toff[-1], soff[-1]), dtype=np.int64)
    for r, dsr in enumerate(gmap.src_degs):
        if sdims[r] == 0:
            continue
        for c in range(len(gmap.tgt_degs)):
            g = gmap.entries[r][c]
            if g is None or tdims[c] == 0:
                continue
            K[toff[c] : toff[c + 1], soff[r] : soff[r + 1]] = ops.mult(
                g, j - dsr
            ).T
    return FMatrix.of(ops.p, K)


def _shift_rows(ops, degs, rows: np.ndarray, jm1: int) -> np.ndarray:
    """All variable shifts of degree-(jm1) block vectors, stacked."""
    dims2, off2 = _slot_layout(ops, degs, jm1 + 1)
    k = rows.shape[0]
    out = np.zeros((ops.n * k, off2[-1]), dtype=np.int64)
    if k == 0:
        return out
    dims1, off1 = _slot_layout(ops, degs, jm1)
    for t in range(ops.n):
        blk = out[t * k : (t + 1) * k]
        for r, dg in enumerate(degs):
            if dims1[r] == 0 or dims2[r] == 0:
                continue
            sh = ops.shift(jm1 - dg, t)
            blk[:, off2[r] : off2[r + 1]] = _mulmod(
                rows[:, off1[r] : off1[r + 1]], sh, ops.p
            )
    return out


def _decode_row(ops, degs, row: np.ndarray, j: int) -> tuple[HomogPoly | None, ...]:
    dims, offs = _slot_layout(ops, degs, j)
    out = []
    for c in range(len(degs)):
        if dims[c] == 0:
            out.append(None)
            continue
        piece = row[offs[c] : offs[c + 1]]
        out.append(ops.decode(piece, j - degs[c]) if piece.any() else None)
    return tuple(out)


def _syzygy_step(ops, gmap: GradedFreeMap, cap: int, *, hard_cap: bool, ranks: dict, kers: dict):
    """Minimal generators of ker(gmap), scanning degrees up to cap.

    ranks[j], where present, is the rank of gmap in degree j, so the kernel
    there has dimension dim F_j − ranks[j] and is not eliminated once the
    shifts of the degree below span that much.  kers receives dim ker(gmap)_j
    for every scanned degree j."""
    p, degs = ops.p, gmap.src_degs
    j0 = min(degs)

    def span(j: int, rows: np.ndarray) -> np.ndarray:
        R, r, _ = rref(FMatrix.of(p, _shift_rows(ops, degs, rows, j - 1)))
        return R.a[:r]

    def expected(j: int) -> int | None:
        return _slot_layout(ops, degs, j)[1][-1] - ranks[j] if j in ranks else None

    start = np.zeros((0, _slot_layout(ops, degs, j0 - 1)[1][-1]), np.int64)
    news, dims, _ = span_scan(p, range(j0, cap + 1), start, span,
                              lambda j: kernel_basis(_eval_matrix(ops, gmap, j)), expected)
    if hard_cap and cap in news:
        raise ValueError(
            f"uncertified degree cap: syzygy generators found at the "
            f"cap boundary {cap}; rerun with degree_cap > {cap}"
        )
    kers.update(dims)
    found = [(j, v) for j, G in news.items() for v in G]
    entries = tuple(_decode_row(ops, degs, v, j) for j, v in found)
    return GradedFreeMap(tuple(j for j, _ in found), degs, entries)


def _minimal_ideal_gens(ops, gens: list[HomogPoly]) -> list[HomogPoly]:
    """Drop generators lying in the ideal spanned by earlier (lower) ones."""
    keep: list[HomogPoly] = []
    for g in sorted(gens, key=lambda h: h.deg):
        if g.is_zero():
            continue
        rows = [ops.mult(h, g.deg - h.deg) for h in keep if h.deg <= g.deg]
        vec = ops.encode(g).reshape(1, -1)
        if not vec.any():
            continue
        if rows:
            Rf, r, piv = rref(FMatrix.of(ops.p, np.concatenate(rows)))
            _, resid = reduce_rows(Rf.a, piv, vec, ops.p)
            if not resid.any():
                continue
        keep.append(g)
    return keep


def _ci_gens(p: Prime, n: int, q: int) -> list[HomogPoly]:
    if q < 1:
        raise ValueError(f"q must be >= 1 (got q={q})")
    out = []
    for t in range(n):
        e = [0] * n
        e[t] = q
        out.append(HomogPoly.from_terms(p, n, q, {tuple(e): 1}))
    return out


def _build_table(ring: str, steps: int, maps) -> BettiTable:
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for i, gmap in enumerate(maps, start=1):
        for j in gmap.src_degs:
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(ring, steps, entries)


def _resolve(ring: str, f, q: int, ops, gens: list[HomogPoly], steps: int, cap, hard_cap: bool) -> Resolution:
    """The resolution driver: minimal generators, the first map, then one
    syzygy step per homological degree up to steps.  cap(i, prev) is the
    last internal degree step i scans for the kernel of the map prev; a
    step after an empty one is empty.  In every degree a step scans, its
    generators span ker(prev), so it hands the next step the new map's
    rank there."""
    gens = _minimal_ideal_gens(ops, gens)
    maps = [GradedFreeMap(tuple(g.deg for g in gens), (0,), tuple((g,) for g in gens))]
    ranks: dict[int, int] = {}  # rank of maps[-1] by degree, where exactness fixes it
    for i in range(2, steps + 1):
        prev = maps[-1]
        if prev.src_degs:
            kers: dict[int, int] = {}
            maps.append(_syzygy_step(ops, prev, cap(i, prev), hard_cap=hard_cap, ranks=ranks, kers=kers))
            ranks = kers
        else:
            maps.append(GradedFreeMap((), prev.src_degs, ()))
    return Resolution(ring, q, f, tuple(maps), _build_table(ring, steps, maps), ops)


def resolve_over_P(
    f: HomogPoly | None, q: int, *, p=None, n: int = 3
) -> Resolution:
    """Minimal graded free resolution of P/(x_1^q,...,x_n^q,f) over P.

    The quotient is artinian, so the resolution has length exactly n and
    homological step i needs no internal degree beyond top + i, where
    top is the last nonzero degree of the quotient.
    """
    if f is not None:
        p, n = f.p, f.n
    elif p is None:
        raise ValueError("p is required when f is omitted")
    p = p if isinstance(p, Prime) else Prime(p)
    gens = _ci_gens(p, n, q) + ([f] if f is not None else [])
    top = len(quotient_hilbert(f, q, p=p, n=n)) - 1
    return _resolve("P", f, q, _PlainSlices(p, n), gens, n, lambda i, prev: top + i, False)


def betti_over_P(f: HomogPoly | None, q: int, *, p=None, n: int = 3) -> BettiTable:
    return resolve_over_P(f, q, p=p, n=n).table


def resolve_over_R(
    f: HomogPoly, q: int, steps: int, degree_cap: int | None = None
) -> Resolution:
    """Resolution of R/(x_1^q,...,x_n^q)R over the hypersurface R = P/(f).

    Each syzygy step scans internal degrees up to degree_cap (default:
    largest source degree + q + deg f) and raises if a minimal generator
    shows up at the cap itself, since that cannot exclude later ones.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")

    def cap(i: int, prev: GradedFreeMap) -> int:
        return max(prev.src_degs) + q + f.deg if degree_cap is None else degree_cap

    return _resolve("R", f, q, QuotientBasis(f), _ci_gens(f.p, f.n, q), steps, cap, True)


def betti_over_R(
    f: HomogPoly, q: int, steps: int, degree_cap: int | None = None
) -> BettiTable:
    if degree_cap is not None:
        return resolve_over_R(f, q, steps, degree_cap).table
    # default-cap resolutions are cached; early steps of a longer
    # resolution are the resolution, so a truncated table is exact
    table = _cached_resolution_R(f, q, steps).table
    if table.steps == steps:
        return table
    return BettiTable(
        table.ring, steps, {(i, j): b for (i, j), b in table.entries.items() if i <= steps}
    )


@dataclass(frozen=True)
class PeriodicTail:
    """Shape of the eventually periodic end of a Betti table."""

    found: bool
    start: int | None
    rank: int | None
    gaps: tuple[int, int] | None
    twists: tuple[int, ...]
    message: str


def detect_periodic_tail(table: BettiTable) -> PeriodicTail:
    """Find the first stretch of single-twist steps with constant rank and
    alternating twist gaps, running to the end of the table.

    Needs at least three such steps (two gaps) to certify alternation;
    anything else reports found=False rather than raising.
    """
    per_step = [table.twists(i) for i in range(table.steps + 1)]
    for start in range(1, table.steps - 1):
        window = per_step[start:]
        if any(len(tw) != 1 for tw in window):
            continue
        ranks = [next(iter(tw.values())) for tw in window]
        if len(set(ranks)) != 1 or ranks[0] == 0:
            continue
        js = [next(iter(tw)) for tw in window]
        gaps = [b - a for a, b in zip(js, js[1:])]
        if len(gaps) < 2:
            continue
        if any(g != gaps[k % 2] for k, g in enumerate(gaps)):
            continue
        return PeriodicTail(
            True,
            start,
            ranks[0],
            (gaps[0], gaps[1]),
            tuple(js),
            f"periodic from step {start}: rank {ranks[0]}, gaps {(gaps[0], gaps[1])}",
        )
    return PeriodicTail(False, None, None, None, (), "no tail")


def poly_matmul(A, B):
    """Product of two matrices of homogeneous polynomials (None = zero)."""
    rows = len(A)
    mid = len(B)
    cols = len(B[0]) if mid else 0
    out = []
    for r in range(rows):
        line = []
        for c in range(cols):
            acc: HomogPoly | None = None
            for m in range(mid):
                g, h = A[r][m], B[m][c]
                if g is None or h is None:
                    continue
                prod = g * h
                acc = prod if acc is None else acc + prod
            line.append(acc)
        out.append(tuple(line))
    return tuple(out)


def _scaled_row_sum(polys, coeffs) -> HomogPoly | None:
    """Linear combination sum_m coeffs[m]*polys[m] (None entries = zero)."""
    acc: HomogPoly | None = None
    for g, c in zip(polys, coeffs):
        if g is None or c % g.p == 0:
            continue
        term = g.scale(int(c))
        acc = term if acc is None else acc + term
    if acc is not None and acc.is_zero():
        return None
    return acc


def scalar_of(e: HomogPoly | None, f: HomogPoly) -> int | None:
    """c with e = c*f, or None if e is not a scalar multiple of f."""
    if e is None or e.is_zero():
        return 0
    if e.deg != f.deg:
        return None
    lead = int(np.nonzero(f.coef)[0][0])
    c = (int(e.coef[lead]) * pow(int(f.coef[lead]), -1, int(f.p))) % f.p
    return c if e == f.scale(c) else None


@dataclass(frozen=True)
class MatrixFactorization:
    """Square polynomial matrices with A*B = B*A = f*Identity exactly."""

    a: tuple[tuple[HomogPoly | None, ...], ...]
    b: tuple[tuple[HomogPoly | None, ...], ...]
    f: HomogPoly
    a_degree: int
    b_degree: int

    @property
    def size(self) -> int:
        return len(self.a)

    def verify(self) -> bool:
        for prod in (
            poly_matmul(self.a, self.b),
            poly_matmul(self.b, self.a),
        ):
            for r in range(self.size):
                for c in range(self.size):
                    want = 1 if r == c else 0
                    if scalar_of(prod[r][c], self.f) != want:
                        return False
        return True


_TAIL_CACHE: dict[tuple, Resolution] = {}


def _cached_resolution_R(f: HomogPoly, q: int, steps: int) -> Resolution:
    key = (int(f.p), f.n, f.deg, f.coef.tobytes(), q)
    hit = _TAIL_CACHE.get(key)
    if hit is None or len(hit.maps) < steps:
        hit = resolve_over_R(f, q, steps)
        _TAIL_CACHE[key] = hit
    return hit


def extract_tail_mf(f: HomogPoly, q: int, at_step: int) -> MatrixFactorization:
    """Lift the tail differentials at (at_step, at_step+1) to a matrix
    factorization of f over P.

    Tail entries have degrees 1 and deg f - 1, both below deg f, so the
    reduced representatives are the unique homogeneous lifts; their two
    products must then equal a unit times f on the diagonal.
    """
    res = _cached_resolution_R(f, q, at_step + 1)
    tail = detect_periodic_tail(res.table)
    if not tail.found or at_step < tail.start + 1:
        raise ValueError(
            f"no periodic tail covers step {at_step}: {tail.message}"
        )
    A_map = res.maps[at_step - 1]
    B_map = res.maps[at_step]
    k = len(A_map.src_degs)
    if len(A_map.tgt_degs) != k or len(B_map.src_degs) != k:
        raise ValueError("not a matrix factorization: tail maps are not square")
    a_deg = A_map.src_degs[0] - A_map.tgt_degs[0]
    b_deg = B_map.src_degs[0] - B_map.tgt_degs[0]
    if a_deg + b_deg != f.deg:
        raise ValueError(
            "not a matrix factorization: tail entry degrees "
            f"{a_deg}+{b_deg} do not sum to deg f = {f.deg}"
        )
    A = A_map.entries
    B = B_map.entries
    prod = poly_matmul(B, A)
    C = np.zeros((k, k), dtype=np.int64)
    for r in range(k):
        for c in range(k):
            s = scalar_of(prod[r][c], f)
            if s is None:
                raise ValueError("not a matrix factorization: B*A is not C*f")
            C[r, c] = s
    try:
        Cinv = inv_small(C, int(f.p))
    except ValueError:
        raise ValueError(
            "not a matrix factorization: composite splits off a singular part"
        ) from None
    # left-multiplying B by C^{-1} rebases the outer free module, after
    # which the pair composes to f times the identity in both orders
    B_norm = tuple(
        tuple(
            _scaled_row_sum([B[m][c] for m in range(k)], Cinv[r])
            for c in range(k)
        )
        for r in range(k)
    )
    mf = MatrixFactorization(A, B_norm, f, a_deg, b_deg)
    if not mf.verify():
        raise ValueError("not a matrix factorization: identity check failed")
    return mf


def audit_resolution(res: Resolution, jmax: int | None = None) -> None:
    """Raise AssertionError unless the resolution is exact where computed.

    Checks that consecutive differentials compose to zero symbolically,
    that in each internal degree the rank of one evaluated map equals the
    kernel dimension of the previous, and that the alternating dimension
    sum returns the Hilbert function of the resolved quotient.
    """
    ops = res.ops
    p, n = ops.p, ops.n
    hf = quotient_hilbert(res.modulus, res.q, p=p, n=n)
    if jmax is None:
        degs = [d for m in res.maps for d in m.src_degs]
        jmax = max(degs) + 1 if degs else res.q + 1
    for a, b in zip(res.maps, res.maps[1:]):
        prod = poly_matmul(b.entries, a.entries)
        for row in prod:
            for e in row:
                dead = e is None or e.is_zero()
                if not dead and res.ring == "R":
                    dead = not ops.encode(e).any()
                assert dead, "consecutive maps do not compose to zero"
    for j in range(jmax + 1):
        dims = [ops.dim(j)] + [
            _slot_layout(ops, m.src_degs, j)[1][-1] for m in res.maps
        ]
        ranks = [rank(_eval_matrix(ops, m, j)) for m in res.maps]
        for i in range(1, len(res.maps)):
            assert ranks[i] == dims[i] - ranks[i - 1], (
                f"exactness fails at step {i+1}, degree {j}"
            )
        euler = dims[0] - ranks[0]
        want = hf[j] if j < len(hf) else 0
        assert euler == want, f"Euler characteristic off in degree {j}"
