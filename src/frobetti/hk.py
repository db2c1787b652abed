"""Hilbert-Kunz functions of hypersurface quotients by Frobenius powers.

HK(q) is the length of R/(x_1^q,...,x_n^q)R for R = P/(f), computed one
degree at a time inside the monomial complete intersection quotient
A = P/(x_1^q,...,x_n^q): products with any exponent >= q die on the
truncated monomial basis, so multiplication by f acts there directly and
dim (A/fA)_j is the basis count minus a rank (`linkage.quotient_hilbert`).
That matrix is block-diagonal over the multidegree classes of f's
support, so each rank is a sum of block ranks (`linkage.fmul_rank`), each
found by forward elimination alone.  A is artinian Gorenstein with socle
degree s = n(q-1), and multiplication by f is self-adjoint for the socle
pairing, so the rank landing in degree j equals the rank landing in
degree s+d-j; only half the degrees need elimination.

The closed form (3/4)dq^2 - (d^3-d)/12 holds for forms whose link is
relatively compressed with d and the characteristic of opposite parity;
it is evaluated in exact rational arithmetic, and the degreewise profile
can be cross-checked against the rational-function expansion of the
corresponding Hilbert series numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .invsys import is_relatively_compressed
from .linkage import quotient_hilbert
from .polyring import HomogPoly


@dataclass(frozen=True)
class HKReport:
    """One Hilbert-Kunz value with its degreewise provenance."""

    q: int
    direct: int
    formula: Fraction | None
    profile: tuple[int, ...]
    opposite_parity: bool

    def agrees(self) -> bool:
        """Direct count equals the closed form (as an exact integer)."""
        return self.formula is not None and self.formula == self.direct


def hk_formula(d: int, q: int) -> Fraction:
    """(3/4)dq^2 - (d^3-d)/12, exactly."""
    return Fraction(3 * d * q * q, 4) - Fraction(d**3 - d, 12)


def hk_direct(f: HomogPoly, q: int) -> HKReport:
    """Length of R/m^[q]: the sum of linkage.quotient_hilbert(f, q)."""
    if q < 1:
        raise ValueError(f"q must be >= 1 (got q={q})")
    profile = quotient_hilbert(f, q)
    return HKReport(
        q=q,
        direct=sum(profile),
        formula=hk_formula(f.deg, q) if f.n == 3 else None,
        profile=tuple(profile),
        opposite_parity=(int(f.p) - f.deg) % 2 == 1,
    )


def hilbert_series_check(f: HomogPoly, q: int) -> bool | str:
    """Compare the degreewise profile against the closed Hilbert series.

    Applies only to n = 3 variables and relatively compressed links with
    d and p of opposite parity and q >= d+3; anything else returns
    "inapplicable".  When it applies, the profile of R/m^[q] must equal
    the expansion of

        (1 - 3t^q - t^d + 2d t^b + 3t^{q+d} - 2d t^{b+1}) / (1-t)^3

    with b = (3q+d-1)/2, and True/False reports exact agreement.
    """
    d = f.deg
    if f.n != 3 or q < d + 3:
        return "inapplicable"
    if (int(f.p) - d) % 2 == 0:
        return "inapplicable"
    if not is_relatively_compressed(f, q):
        return "inapplicable"
    report = hk_direct(f, q)
    b = (3 * q + d - 1) // 2
    width = max(len(report.profile), b + 2) + 3
    num = np.zeros(width, dtype=np.int64)
    num[0] += 1
    num[q] -= 3
    num[d] -= 1
    num[b] += 2 * d
    num[q + d] += 3
    num[b + 1] -= 2 * d
    series = num
    for _ in range(3):
        series = np.cumsum(series)
    got = np.zeros(width, dtype=np.int64)
    got[: len(report.profile)] = report.profile
    return bool(np.array_equal(series, got))
