"""The scalar routes of the categorical layer, kept as oracles.

Test fixture only.  ``_six_j_2`` evaluates one quantum 6j-symbol by a
Python loop over z with its own admissibility check and its own tables
of quantum factorials; ``s_matrix_loop`` assembles S^(p) one (i, j, r)
term at a time from it and from ``mtc._r_phase``.  The library replaced
both with array code (``mtc._six_j`` and the blocks of
``mtc.gen_modular_pair``), which the tests compare against these.
"""

import math
from functools import lru_cache

import numpy as np

from sl2onepoint import mtc
from sl2onepoint.sl2data import fusion_coefficient


def _triad_ok_2(k: int, a2: int, b2: int, c2: int) -> bool:
    """Admissibility of a spin triad in doubled labels: triangle
    inequalities, integral sum, and sum <= k."""
    return (
        (a2 + b2 + c2) % 2 == 0
        and abs(a2 - b2) <= c2 <= a2 + b2
        and a2 + b2 + c2 <= 2 * k
    )


class _QNumbers:
    """Per-level tables of quantum integers and factorials, indexed by
    doubled arguments where half-integer values never occur."""

    def __init__(self, k: int):
        self.k = k
        self.qint = [mtc.quantum_integer(k, n) for n in range(k + 3)]
        fact = [1.0] * (k + 2)
        for n in range(2, k + 2):
            fact[n] = fact[n - 1] * self.qint[n]
        self.qfact = fact

    def fact2(self, n2: int) -> float:
        """[n]! with the argument given doubled (must be even, 0 <= n <= k+1)."""
        if n2 % 2 != 0:
            raise ValueError("quantum factorial of a genuine half-integer")
        n = n2 // 2
        if n < 0 or n > self.k + 1:
            raise ValueError(f"quantum factorial needs 0 <= n <= {self.k + 1}, got {n}")
        return self.qfact[n]


@lru_cache(maxsize=None)
def _qnumbers(k: int) -> _QNumbers:
    return _QNumbers(k)


def _delta2(q: _QNumbers, a2: int, b2: int, c2: int) -> float:
    return math.sqrt(
        q.fact2(-a2 + b2 + c2)
        * q.fact2(a2 - b2 + c2)
        * q.fact2(a2 + b2 - c2)
        / q.fact2(a2 + b2 + c2 + 2)
    )


def _six_j_2(k: int, a2: int, b2: int, e2: int, d2: int, c2: int, f2: int) -> float:
    """Unitary quantum 6j-symbol {a b e; d c f} in doubled labels.

    Summation runs z from the largest triad sum to the smallest of the
    quadrilateral sums and k ([k+2] = 0 kills anything beyond k).
    """
    q = _qnumbers(k)
    for triad in ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2)):
        if not _triad_ok_2(k, *triad):
            raise ValueError(f"inadmissible spin triad {tuple(x / 2 for x in triad)} at level {k}")
    phase = (-1.0) ** ((a2 + b2 - c2 - d2 - 2 * e2) // 2)
    pref = (
        phase
        * math.sqrt(q.qint[e2 + 1] * q.qint[f2 + 1])
        * _delta2(q, a2, b2, e2)
        * _delta2(q, a2, c2, f2)
        * _delta2(q, c2, e2, d2)
        * _delta2(q, d2, b2, f2)
    )
    triad_sums = (a2 + b2 + e2, a2 + c2 + f2, b2 + d2 + f2, c2 + d2 + e2)
    quad_sums = (a2 + b2 + c2 + d2, a2 + d2 + e2 + f2, b2 + c2 + e2 + f2)
    z_lo2 = max(triad_sums)
    z_hi2 = min(min(quad_sums), 2 * k)
    total = 0.0
    for z2 in range(z_lo2, z_hi2 + 2, 2):
        term = ((-1.0) ** (z2 // 2)) * q.fact2(z2 + 2)
        denom = 1.0
        for t in triad_sums:
            denom *= q.fact2(z2 - t)
        for s in quad_sums:
            denom *= q.fact2(s - z2)
        total += term / denom
    return pref * total


def _f_entry(k: int, r: int, s: int, t: int, u: int, p: int, q: int) -> float:
    """F^{(rst)u}_{pq} = {t/2 s/2 p/2; r/2 u/2 q/2}."""
    return _six_j_2(k, t, s, p, r, u, q)


def _g_entry(k: int, i: int, j: int, kt: int, l: int, p: int, q: int) -> complex:
    """G^{(ijk)l}_{pq} = R^{(jk)q} R^{(iq)l} / (R^{(ij)p} R^{(pk)l}) * F^{(kji)l}_{pq}."""
    num = mtc._r_phase(k, j, kt, q) * mtc._r_phase(k, i, q, l)
    den = mtc._r_phase(k, i, j, p) * mtc._r_phase(k, p, kt, l)
    return num / den * _f_entry(k, kt, j, i, l, p, q)


def s_matrix_loop(k: int, p: int) -> np.ndarray:
    """S^(p) on the basis {i : N_{p,i}^i = 1}, summed one admissible
    (i, j, r) at a time."""
    labels, theta, _, _, qdim, global_dim_root = mtc._level_constants(k)
    basis = tuple(i for i in labels if fusion_coefficient(k, p, i, i) == 1)
    dim = len(basis)
    s = np.zeros((dim, dim), dtype=complex)
    for a, i in enumerate(basis):
        for b, j in enumerate(basis):
            acc = 0.0 + 0.0j
            for r in labels:
                if fusion_coefficient(k, i, j, r) != 1:
                    continue
                acc += (
                    theta[r]
                    / (theta[i] * theta[j])
                    * _g_entry(k, i, i, j, j, 0, r)
                    * _f_entry(k, i, i, j, j, r, 0)
                    * _g_entry(k, p, i, r, j, i, j)
                )
            s[a, b] = qdim[i] * qdim[j] / global_dim_root * acc
    return s
