"""Truncated characters of simple highest-weight modules over affine sl(2).

The character of L(k, lam) is assembled from the resolution by Verma
modules: an alternating sum of terms

    (-1)^i * q^(h_{lam_i} - h_lam) * (finite sl(2) character of weight lam_i)
    / prod_{m>=1} (1 - z^2 q^m)(1 - q^m)(1 - z^-2 q^m),

where lam_{2j} = lam + 2j(k+2) and lam_{2j-1} = -lam - 2 + 2j(k+2).  Each
factor of the denominator touches only q-grades >= m, so the inverse is a
well-defined two-variable truncated series, and the resolution is cut off
adaptively: every term whose conformal-weight gap is below the requested
order is included, so all reported coefficients are exact.

Coefficients of z^a q^n count states of h-weight a at conformal grade n
above the ground state; rows are sparse maps from z-exponent to an
integer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .sl2data import _check_label, _conformal_weight, rep_dimension

__all__ = ["ZQCharacter", "simple_character", "trivial_multiplicity"]

Row = dict[int, int]


def _zconv(a: Row, b: Row) -> Row:
    out: Row = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class ZQCharacter(namedtuple("ZQCharacter", "level weight qorder rows")):
    """Rows of a two-variable character, one sparse z-row per q-grade:
    ``rows`` holds ``qorder`` of them, each a ``Row``."""

    __slots__ = ()

    def coefficient(self, z_exponent: int, n: int) -> int:
        self._check_grade(n)
        return self.rows[n].get(z_exponent, 0)

    def trivial_multiplicity(self, n: int) -> int:
        """Multiplicity of the trivial sl(2) module at grade n: the
        difference of the z^0 and z^2 coefficients."""
        self._check_grade(n)
        return self.rows[n].get(0, 0) - self.rows[n].get(2, 0)

    def graded_dimension(self, n: int) -> int:
        """Total dimension of the grade-n space (z -> 1 specialisation)."""
        self._check_grade(n)
        return sum(self.rows[n].values())

    def _check_grade(self, n: int) -> None:
        if not 0 <= n < self.qorder:
            raise ValueError(f"grade {n} outside computed range 0..{self.qorder - 1}")

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight,
            "qorder": self.qorder,
            "rows": [
                [[e, str(c)] for e, c in sorted(row.items())]
                for row in self.rows
            ],
        }


@lru_cache(maxsize=None)
def _denominator_inverse(qorder: int) -> tuple[tuple[int, int], ...]:
    """Rows of 1 / prod_{m>=1} (1-z^2 q^m)(1-q^m)(1-z^-2 q^m), truncated.

    Independent of level and weight, so cached per order.  Returned as
    hashable tuples of (z-exponent, coefficient) pairs.
    """
    inv: list[Row] = [{0: 1}] + [{} for _ in range(qorder - 1)]
    for m in range(1, qorder):
        for shift in (2, 0, -2):
            # divide by (1 - z^shift q^m) in place: with n ascending, grade
            # n - m is already divided, so the geometric series sums
            for n in range(m, qorder):
                row = inv[n]
                for e, c in inv[n - m].items():
                    row[e + shift] = row.get(e + shift, 0) + c
    return tuple(tuple(sorted(row.items())) for row in inv)


def _resolution_weight(lam: int, k: int, i: int) -> int:
    """Finite weight of the i-th Verma term in the resolution."""
    if i % 2 == 0:
        return lam + (i // 2) * 2 * (k + 2)
    return -lam - 2 + ((i + 1) // 2) * 2 * (k + 2)


def simple_character(k: int, lam: int, qorder: int) -> ZQCharacter:
    """Character rows of L(k, lam) through q-grade qorder - 1."""
    _check_label(k, lam)
    if qorder < 1:
        raise ValueError("qorder must be >= 1")
    inv = [dict(row) for row in _denominator_inverse(qorder)]
    h_lam = _conformal_weight(k, lam)
    rows: list[Row] = [{} for _ in range(qorder)]
    i = 0
    while True:
        w = _resolution_weight(lam, k, i)
        gap = _conformal_weight(k, w) - h_lam
        if gap.denominator != 1:
            raise ArithmeticError("non-integer conformal gap in the resolution")
        n0 = int(gap)
        if i > 0 and n0 >= qorder:
            break
        if n0 < qorder:
            sign = -1 if i % 2 else 1
            numerator = {w - 2 * t: sign for t in range(w + 1)}
            for n in range(n0, qorder):
                for e, cc in _zconv(numerator, inv[n - n0]).items():
                    rows[n][e] = rows[n].get(e, 0) + cc
        i += 1
    rows = [{e: cc for e, cc in row.items() if cc} for row in rows]
    return ZQCharacter(level=k, weight=lam, qorder=qorder, rows=tuple(rows))


def trivial_multiplicity(k: int, lam: int, n: int) -> int:
    """Multiplicity of the trivial sl(2) module at conformal grade n of
    L(k, lam), for even lam: coeff(z^0 q^n) - coeff(z^2 q^n)."""
    rep_dimension(k, lam)
    if n < 0:
        raise ValueError("grade must be non-negative")
    return simple_character(k, lam, n + 1).trivial_multiplicity(n)
