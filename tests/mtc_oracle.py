"""The scalar routes of the categorical layer, kept as oracles, the
full recoupling tensors that only the coherence tests read, and the
subset enumeration behind the irreducibility probe.

Test fixture only.  ``_six_j_2`` evaluates one quantum 6j-symbol by a
Python loop over z with its own admissibility check and its own tables
of unscaled quantum integers [n] and factorials [n]!.  ``r_phase`` is
the braiding phase R^{(rs)t} = (-1)^(r+s-t) e((h_r + h_s - h_t)/2),
taken from the exact sum of the conformal weights; the library holds no
braiding phase, since all of them cancel from its modular pairs.
``s_matrix_loop`` assembles S^(p) one (i, j, r) term at a time from
these two, as the categorical definition reads: three 6j-symbols per
term, two of them inside G-entries, and every braiding phase.  The
library sums the one-punctured-torus formula of ``mtc.gen_modular_pair``
instead, one symbol per term and no phase, as table rows on the rescaled
tables of ``sixj._six_j2``, and the tests compare it against these.

``f_tensor``, ``r_tensor`` and ``g_tensor`` tabulate F (the library's
6j-symbols), R (``r_phase``) and G on every admissible index tuple of a level, a count that grows like
the sixth power of the level, so they serve the coherence tests at
k <= 8 only.  f_tensor[(r,s,t,u,p,q)] is the recoupling coefficient from
the tree r(st) with inner edge p to the tree (rs)t with inner edge q,
both mapping to u; g_tensor has the inverse index convention (p couples
(r,s), q couples (s,t)); r_tensor[(r,s,t)] is the braiding phase on the
coupling r (x) s -> t.

``irreducibility_by_subsets`` walks every proper non-empty subset of a
pair's basis, O(2^d d^2), where ``mtc.irreducibility_probe`` decides the
same question by two reachability sweeps.

``certification`` forms the products of the braid relations as they
read, four full matrix products, 4 d^3 complex products, and takes each
residual entry by entry; ``mtc.gen_modular_pair`` forms two quarter
products, d^3/2, and bounds both residuals from above in O(d^2).

``_self_coupling_six_j`` evaluates the one symbol of the modular pair,
{p/2 i/2 i/2; r/2 j/2 j/2}, by its own collapsed z-sum on the library's
rescaled tables, and ``s_entry_by_symbols`` sums it over r as the
one-punctured-torus formula reads, one symbol at a time.  That sum is
the oracle of the table rows of ``mtc._s_rows``, which reorder the same
terms by m = z - t and sum only the anti-diagonals i + j <= k, mirroring
the rest; the oracle sums every entry and mirrors nothing.
``sixj._six_j2`` is the oracle of the symbol.
"""

import math
from functools import lru_cache
from itertools import combinations
from operator import mul

import numpy as np

from sl2onepoint import mtc, sixj
from sl2onepoint.sl2data import conformal_weight, fusion_coefficient


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
        self.qint = [sixj.quantum_integer(k, n) for n in range(k + 3)]
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


@lru_cache(maxsize=None)
def r_phase(k: int, r: int, s: int, t: int) -> complex:
    """R^{(rs)t} = (-1)^(r+s-t) e((h_r + h_s - h_t)/2), the exponent
    reduced mod 1 in exact arithmetic before it becomes a float."""
    exact = (conformal_weight(k, r) + conformal_weight(k, s) - conformal_weight(k, t)) / 2
    return (-1) ** (r + s - t) * mtc._e(exact % 1)


def _g_entry(k: int, i: int, j: int, kt: int, l: int, p: int, q: int) -> complex:
    """G^{(ijk)l}_{pq} = R^{(jk)q} R^{(iq)l} / (R^{(ij)p} R^{(pk)l}) * F^{(kji)l}_{pq}."""
    num = r_phase(k, j, kt, q) * r_phase(k, i, q, l)
    den = r_phase(k, i, j, p) * r_phase(k, p, kt, l)
    return num / den * _f_entry(k, kt, j, i, l, p, q)


def s_matrix_loop(k: int, p: int) -> np.ndarray:
    """S^(p) on the basis {i : N_{p,i}^i = 1}, summed one admissible
    (i, j, r) at a time."""
    data = mtc.f_r_g_matrices(k)
    labels, theta, qdim = data.labels, data.theta, data.qdim
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
            s[a, b] = qdim[i] * qdim[j] / data.global_dim_root * acc
    return s


@lru_cache(maxsize=None)
def r_tensor(k: int) -> dict:
    """R^{(rs)t} = ``r_phase`` on every admissible triple."""
    labels = range(k + 1)
    return {
        (r, s, t): r_phase(k, r, s, t)
        for r in labels
        for s in labels
        for t in labels
        if _triad_ok_2(k, r, s, t)
    }


@lru_cache(maxsize=None)
def f_tensor(k: int) -> dict:
    """F^{(rst)u}_{pq} = {t/2 s/2 p/2; r/2 u/2 q/2} on every admissible
    index tuple, from the library's 6j-symbols."""
    labels = range(k + 1)
    keys = [
        (r, s, t, u, p, q)
        for r in labels
        for s in labels
        for t in labels
        for p in labels
        if _triad_ok_2(k, s, t, p)
        for u in labels
        if _triad_ok_2(k, r, p, u)
        for q in labels
        if _triad_ok_2(k, r, s, q) and _triad_ok_2(k, q, t, u)
    ]
    data = mtc.f_r_g_matrices(k)
    return {(r, s, t, u, p, q): sixj._six_j2(data, t, s, p, r, u, q) for r, s, t, u, p, q in keys}


@lru_cache(maxsize=None)
def g_tensor(k: int) -> dict:
    """G^{(ijk)l}_{pq} = R^{(jk)q} R^{(iq)l} / (R^{(ij)p} R^{(pk)l}) * F^{(kji)l}_{pq}
    from the stored F and R; it is admissible exactly where F^{(kji)l}_{pq} is."""
    f, r = f_tensor(k), r_tensor(k)
    return {
        (i, j, kt, l, p, q): r[(j, kt, q)] * r[(i, q, l)] / (r[(i, j, p)] * r[(p, kt, l)]) * value
        for (kt, j, i, l, p, q), value in f.items()
    }


def irreducibility_by_subsets(
    pair: mtc.GenModularPair, tolerance: float = mtc.DEFAULT_TOLERANCE
) -> str:
    """The probe's verdict by enumeration: "inconclusive" if two
    T-eigenvalues collide or some proper non-empty subset of the basis has
    no S-entry above ``tolerance`` into its complement, else "irreducible"."""
    dim = len(pair.basis)
    tdiag = pair.t_diagonal
    if any(abs(tdiag[a] - tdiag[b]) <= tolerance for a in range(dim) for b in range(a + 1, dim)):
        return "inconclusive"
    indices = range(dim)
    for size in range(1, dim):
        for subset in combinations(indices, size):
            outside = [o for o in indices if o not in subset]
            if not any(abs(pair.s_matrix[o][i]) > tolerance for i in subset for o in outside):
                return "inconclusive"
    return "irreducible"


def _matmul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def certification(s, t_diag, theta_p) -> tuple:
    """(S^2, S^4, residuals) by four full products: (S T)(S T)(S T)
    against S S, and S^2 S^2 against theta_p^{-1} Id, each residual the
    largest entrywise |difference|, keyed as ``relation_residuals``."""
    st = tuple(tuple(x * t for x, t in zip(row, t_diag)) for row in s)
    st3 = _matmul(_matmul(st, st), st)
    s2 = _matmul(s, s)
    s4 = _matmul(s2, s2)
    braid = max(abs(x - y) for row3, row2 in zip(st3, s2) for x, y in zip(row3, row2))
    dehn = max(abs(x - (a == b) / theta_p) for a, row in enumerate(s4) for b, x in enumerate(row))
    return s2, s4, {"st_cubed_vs_s_squared": braid, "s_fourth_vs_inverse_twist": dehn}


def _coupling_norm(data: mtc.MtcLevelData, p: int, i: int) -> float:
    """A_i = [p/2]! sqrt([i+1] [i-p/2]! / [i+p/2+1]!) for a label i with
    Hom(p (x) i, i) != 0, from the rescaled tables of ``data``: the part
    of the prefactor of {p/2 i/2 i/2; r/2 j/2 j/2} that depends on i
    alone.  NaN when the factorial table underflows, so that the first
    symbol using it raises."""
    fact = data.qfact
    try:
        return math.sqrt(data.qint[i + 1] * fact[i - p // 2] / fact[i + p // 2 + 1]) * fact[p // 2]
    except ZeroDivisionError:
        return math.nan


def _self_coupling_six_j(
    data: mtc.MtcLevelData, p: int, i: int, j: int, r: int, norm_i: float, norm_j: float
) -> float:
    """{p/2 i/2 i/2; r/2 j/2 j/2} for admissible integer labels, with
    ``norm_i`` and ``norm_j`` the ``_coupling_norm`` of i and j.

    The Kirillov-Reshetikhin formula of ``sixj._six_j2`` collapses here:
    the triad sums are i + p/2, j + p/2 and twice t = (i+j+r)/2, the
    quadrilateral sums twice t + p/2 and once i + j, and the prefactor is
    A_i A_j [t-i]! [t-j]! [t-r]! / [t+1]!, with no square root.  Every
    product is formed so that swapping i and j gives the same float: the
    tetrahedral symmetry holds exactly.  Underflow raises
    ``PrecisionLossError`` as in ``sixj._six_j2``."""
    k, fact = data.level, data.qfact
    t1, t2, t = i + p // 2, j + p // 2, (i + j + r) // 2
    s, s3 = t + p // 2, i + j
    try:
        pref = norm_i * norm_j * (fact[t - i] * fact[t - j]) * fact[t - r] / fact[t + 1]
        total = 0.0
        for z in range(max(t1, t2, t), min(s, s3, k) + 1):
            term = fact[z + 1] / (
                fact[z - t1] * fact[z - t2] * fact[z - t] * fact[z - t]
                * fact[s - z] * fact[s - z] * fact[s3 - z]
            )
            total += -term if z % 2 else term
        value = -pref * total if (p - i - j - r) // 2 % 2 else pref * total
    except ZeroDivisionError:
        value = math.nan
    if not math.isfinite(value):
        raise mtc._precision_loss(k, p, i, i, r, j, j)
    return value


def s_entry_by_symbols(k: int, p: int, i: int, j: int) -> tuple[complex, int]:
    """S^(p)_ij = (D theta_i theta_j)^-1 sum_r d_r theta_r
    {p/2 i/2 i/2; r/2 j/2 j/2}, one ``_self_coupling_six_j`` per r with
    N_ij^r = 1, ascending, and the number of symbols summed."""
    data = mtc.f_r_g_matrices(k)
    theta, qdim = data.theta, data.qdim
    norm_i, norm_j = _coupling_norm(data, p, i), _coupling_norm(data, p, j)
    rs = range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2)
    acc = sum(qdim[r] * theta[r] * _self_coupling_six_j(data, p, i, j, r, norm_i, norm_j) for r in rs)
    return acc / (data.global_dim_root * theta[i] * theta[j]), len(rs)
