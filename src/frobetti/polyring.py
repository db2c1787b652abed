"""Monomial combinatorics and homogeneous polynomial arithmetic.

S = k[x_1..x_n] acts on the divided-power module D by contraction:
x^J . x^(I) = x^(I-J) when the difference is componentwise nonnegative and
0 otherwise, with coefficient 1 — no binomial factors.  The differentiation
action would pick up binomial coefficients that vanish mod p, so contraction
is the only correct pairing in small characteristic; everything built on
catalecticants depends on this choice.

All graded pieces are indexed by a fixed graded-lexicographic basis with
x_1 > x_2 > ... > x_n and exponent vectors in descending lex order, so
every matrix in the package is reproducible across runs and machines.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .ffla import Prime, int64_room

_VAR_LETTERS = "xyzwuv"


def dim_P(n: int, a: int) -> int:
    """Dimension of the degree-a piece of k[x_1..x_n] (0 for negative a)."""
    return math.comb(a + n - 1, n - 1) if a >= 0 else 0


def _comb_vec(x: np.ndarray, m: int) -> np.ndarray:
    """C(x, m) elementwise for small fixed m, with C(x<m, m) = 0."""
    x = np.asarray(x, dtype=np.int64)
    out = np.ones_like(x)
    for j in range(m):
        out = out * (x - j)
    out //= math.factorial(m)
    return np.where(x >= m, out, 0)


def _gen_exps(n: int, a: int) -> np.ndarray:
    if a < 0:
        return np.zeros((0, n), dtype=np.int64)
    if n == 1:
        return np.array([[a]], dtype=np.int64)
    blocks = []
    for e in range(a, -1, -1):
        sub = _gen_exps(n - 1, a - e)
        head = np.full((sub.shape[0], 1), e, dtype=np.int64)
        blocks.append(np.concatenate([head, sub], axis=1))
    return np.concatenate(blocks, axis=0)


class GradedBasis:
    """The monomials of one degree, in descending graded-lex order."""

    __slots__ = ("n", "deg", "exps", "size")

    def __init__(self, n: int, deg: int):
        self.n = n
        self.deg = deg
        self.exps = _gen_exps(n, deg)
        self.exps.setflags(write=False)
        self.size = self.exps.shape[0]

    def rank_rows(self, E: np.ndarray) -> np.ndarray:
        """Vectorized rank of exponent rows (each row must have degree deg)."""
        E = np.asarray(E, dtype=np.int64)
        r = np.zeros(E.shape[0], dtype=np.int64)
        rem = np.full(E.shape[0], self.deg, dtype=np.int64)
        for i in range(self.n - 1):
            m = self.n - 1 - i
            r += _comb_vec(rem - E[:, i] - 1 + m, m)
            rem = rem - E[:, i]
        return r

    def rank(self, exps) -> int:
        return int(self.rank_rows(np.asarray([exps]))[0])

    def unrank(self, i: int) -> tuple[int, ...]:
        return tuple(int(e) for e in self.exps[i])

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"GradedBasis(n={self.n}, deg={self.deg}, size={self.size})"


@lru_cache(maxsize=None)
def basis(n: int, deg: int) -> GradedBasis:
    return GradedBasis(n, deg)


def mul_ranks(a: int, exps: np.ndarray, m) -> np.ndarray:
    """Index in basis(n, a + |m|) of x^m times each row of exps.

    The rows are monomials of degree a: all of P_a, or only the ones in
    use (standard monomials, the box B_a).  Every multiply-by-monomial
    index map of the package is built here.
    """
    m = np.asarray(m, dtype=np.int64)
    return basis(m.size, a + int(m.sum())).rank_rows(exps + m)


def stack_products(vecs: np.ndarray, maps, width: int) -> np.ndarray:
    """x_t · rows, stacked over t: block t of the (len(maps)·k) × width
    result is the k rows of vecs scattered by the index map maps[t] (as
    mul_ranks builds them); a negative index drops its column."""
    k = vecs.shape[0]
    out = np.zeros((len(maps) * k, width), dtype=np.int64)
    for t, sh in enumerate(maps):
        ok = sh >= 0
        out[t * k : (t + 1) * k, sh[ok]] = vecs[:, ok]
    return out


def mono_degree(m) -> int:
    return int(sum(m))


def mono_mul(m1, m2) -> tuple[int, ...]:
    return tuple(int(a) + int(b) for a, b in zip(m1, m2))


def mono_div(m1, m2):
    """m1 / m2 as an exponent tuple, or None when not divisible."""
    d = tuple(int(a) - int(b) for a, b in zip(m1, m2))
    return d if all(e >= 0 for e in d) else None


def mono_str(m) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        v = _VAR_LETTERS[i] if len(m) <= len(_VAR_LETTERS) else f"x{i + 1}"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts) if parts else "1"


class _GradedVec:
    """Shared plumbing for HomogPoly and DividedElem: a dense coefficient
    vector over the graded-lex basis of one degree."""

    __slots__ = ("p", "n", "deg", "coef")

    def __init__(self, p, n: int, deg: int, coef):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.n = n
        self.deg = deg
        c = np.array(coef, dtype=np.int64) % self.p
        if c.shape != (dim_P(n, deg),):
            raise ValueError(
                f"coefficient vector has length {c.shape}, expected {dim_P(n, deg)}"
            )
        c.setflags(write=False)
        self.coef = c

    @classmethod
    def zero(cls, p, n: int, deg: int):
        return cls(p, n, deg, np.zeros(dim_P(n, deg), dtype=np.int64))

    @classmethod
    def from_terms(cls, p, n: int, deg: int, terms: dict):
        b = basis(n, deg)
        c = np.zeros(b.size, dtype=np.int64)
        for m, v in terms.items():
            if mono_degree(m) != deg:
                raise ValueError(f"monomial {m} does not have degree {deg}")
            c[b.rank(m)] += v
        return cls(p, n, deg, c)

    @classmethod
    def monomial(cls, p, n: int, m, c: int = 1):
        return cls.from_terms(p, n, mono_degree(m), {tuple(m): c})

    def is_zero(self) -> bool:
        return not self.coef.any()

    def terms(self):
        b = basis(self.n, self.deg)
        for i in np.nonzero(self.coef)[0]:
            yield b.unrank(int(i)), int(self.coef[i])

    def leading(self):
        """Greatest monomial present under graded-lex, or None if zero."""
        nz = np.nonzero(self.coef)[0]
        if nz.size == 0:
            return None
        b = basis(self.n, self.deg)
        i = int(nz[0])
        return b.unrank(i), int(self.coef[i])

    def _like(self, coef):
        out = object.__new__(type(self))
        out.p = self.p
        out.n = self.n
        out.deg = self.deg
        coef = coef % self.p
        coef.setflags(write=False)
        out.coef = coef
        return out

    def _check_compatible(self, other):
        if self.p != other.p or self.n != other.n or self.deg != other.deg:
            raise ValueError("incompatible graded pieces")

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self.coef + other.coef)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self.coef - other.coef)

    def scale(self, c: int):
        return self._like(self.coef * (c % self.p))

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and (self.p, self.n, self.deg) == (other.p, other.n, other.deg)
            and bool(np.array_equal(self.coef, other.coef))
        )

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.n, self.deg, self.coef.tobytes()))

    def __str__(self) -> str:
        parts = []
        for m, c in self.terms():
            ms = mono_str(m)
            if ms == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            else:
                parts.append(f"{c}*{ms}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class HomogPoly(_GradedVec):
    """A homogeneous polynomial in S of one fixed degree."""

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        return poly_mul(self, other)


class DividedElem(_GradedVec):
    """An element of one graded piece of the divided-power module D."""


def poly_mul(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Product in S, coefficients mod p."""
    if a.p != b.p or a.n != b.n:
        raise ValueError("incompatible polynomials")
    deg = a.deg + b.deg
    out = np.zeros(dim_P(a.n, deg), dtype=np.int64)
    src = basis(b.n, b.deg).exps
    room = int64_room(a.p)
    for k, (m, c) in enumerate(a.terms(), 1):
        out[mul_ranks(b.deg, src, m)] += c * b.coef
        if k % room == 0:
            out %= a.p
    return HomogPoly(a.p, a.n, deg, out)


def contract(m, g: DividedElem) -> DividedElem:
    """Contraction of a divided element by a monomial (coefficient-1 transfer):
    out[J] = g[J + m]."""
    a = g.deg - mono_degree(m)
    if a < 0:
        raise ValueError("degree underflow")
    return DividedElem(g.p, g.n, a, g.coef[mul_ranks(a, basis(g.n, a).exps, m)])


def poly_apply(pq: HomogPoly, g: DividedElem) -> DividedElem:
    """Linear extension of contraction: the value of the pairing map at pq."""
    if pq.p != g.p or pq.n != g.n:
        raise ValueError("incompatible arguments")
    if pq.deg > g.deg:
        raise ValueError("degree underflow")
    out = DividedElem.zero(g.p, g.n, g.deg - pq.deg)
    for m, c in pq.terms():
        out = out + contract(m, g).scale(c)
    return out


_TERM_RE = re.compile(r"(\d+)|([a-z])(?:\^?(\d+))?|(\*)", re.IGNORECASE)


def parse_poly(s: str, p, n: int, cls=HomogPoly):
    """Parse '2*x*y^3 + yz3 - z^4' style input into a homogeneous polynomial.

    Variables are x, y, z, w, u, v (n of them, in that order) or x1..xn;
    exponents accept '^3' or a bare trailing integer; '*' is optional.
    """
    s = s.replace("-", "+-").replace(" ", "")
    if s.startswith("+"):
        s = s[1:]
    terms: list[tuple[tuple[int, ...], int]] = []
    for raw in s.split("+"):
        if not raw:
            raise ValueError(f"empty term in polynomial: {s!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:]
        coeff = 1
        exps = [0] * n
        pos = 0
        saw_var = False
        expect_exp_for = None
        while pos < len(raw):
            mt = _TERM_RE.match(raw, pos)
            if not mt:
                raise ValueError(f"cannot parse term {raw!r}")
            num, var, caret_exp, star = mt.group(1), mt.group(2), mt.group(3), mt.group(4)
            if star:
                expect_exp_for = None
            elif num is not None:
                if expect_exp_for is not None:
                    exps[expect_exp_for] += int(num) - 1
                    expect_exp_for = None
                elif saw_var:
                    raise ValueError(f"unexpected integer inside term {raw!r}")
                else:
                    coeff *= int(num)
            else:
                if var == "x" and pos + 1 < len(raw) and raw[pos + 1].isdigit() and n > len(_VAR_LETTERS):
                    # x1..xn naming for many variables
                    mt2 = re.match(r"x(\d+)(?:\^(\d+))?", raw[pos:])
                    idx = int(mt2.group(1)) - 1
                    e = int(mt2.group(2) or 1)
                    if not 0 <= idx < n:
                        raise ValueError(f"variable x{idx + 1} out of range for n={n}")
                    exps[idx] += e
                    pos += mt2.end()
                    saw_var = True
                    expect_exp_for = None
                    continue
                idx = _VAR_LETTERS.find(var.lower())
                if idx < 0 or idx >= n:
                    raise ValueError(f"unknown variable {var!r} for n={n}")
                e = int(caret_exp) if caret_exp else 1
                exps[idx] += e
                saw_var = True
                expect_exp_for = idx if not caret_exp else None
            pos = mt.end()
        terms.append((tuple(exps), sign * coeff))
    degs = {mono_degree(m) for m, _ in terms}
    if len(degs) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
    deg = degs.pop()
    out: dict[tuple[int, ...], int] = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return cls.from_terms(p, n, deg, out)
