"""Numerical modular-tensor-category data for sl(2) at level k.

Quantum 6j-symbols in the unitary normalisation, the F and G recoupling
entries built from them, and the generalised modular pair (S^(p), T^(p))
acting on the self-coupling spaces Hom(p (x) i, i).  Arithmetic is
double-precision complex at every level, and every pair is certified on
construction by the braid-group relations

    (S T)^3 = S^2,      S^4 = theta_p^{-1} * Id,

with residuals stored on the object and a loud error when they exceed
tolerance or are not numbers at all (a convention bug or lost precision,
never a user error).  These residuals are the only precision guard.

Per-level tables, each built once and cached by level: rescaled quantum
integers and factorials (``_qnumbers``), the twists and character
S-matrix (``_level_constants``), and the half-twists e(h_i/2)
(``_half_twists``).  The quantum integers are tabulated as
sin(pi n/(k+2)) = [n] sin(pi/(k+2)), so the factorials stay in (0, 1]
at every level, where the unscaled [k+1]! overflows a double from
k = 202 on.  The 6j formula is homogeneous of degree 0 in the quantum
integers, so the rescaling cancels in every symbol.  A braiding phase
R^{(rs)t} is the product (-1)^(r+s-t) e(h_r/2) e(h_s/2) / e(h_t/2) of
table entries, with no rational arithmetic or exponential per call.  The
product form loses no precision in the modular pair: the four R-phases
of a G-entry carry the exponents h_j+h_k+h_i-h_l above and
h_i+h_j+h_k-h_l below the fraction bar, which cancel exactly.

Array assembly.  One kernel, ``_six_j``, evaluates the
Kirillov-Reshetikhin 6j formula elementwise over integer arrays of
doubled labels; ``six_j``, ``_f_entry`` and ``_g_entry`` all call it.
``gen_modular_pair`` enumerates, by the fusion rule
(``_admissible``), the triples (i, j, r) that contribute to S^(p)[i, j],
evaluates the three recoupling factors of all of them in a few array
calls and accumulates the terms with ``np.add.at``, in the same order of
r as the sum it replaces.  It does so ``_ROW_BLOCK`` basis rows at a
time, so that the arrays of one pass stay small (about 1.5 MB at k = 48)
instead of growing with the whole triple set.  Braiding phases are
gathered through ``_r_phase`` on every pass, once per distinct triple
(``_r_phases``), and are never cached across pairs: a pair is certified
by its relations, and that check must see whatever ``_r_phase`` gives,
which a stale phase table or a cached pair would hide.

Label conventions: integer labels 0..k; 6j-symbols take the spin (half
label) values.  All self-couplings here are multiplicity-free, so no
degeneracy indices appear.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .errors import RelationViolationError
from .qseries import fraction_to_str
from .sl2data import (
    _check_level,
    central_charge,
    conformal_weight,
    fusion_coefficient,
    multiplier,
    rho_t,
    xi_set,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "MtcLevelData",
    "GenModularPair",
    "quantum_integer",
    "six_j",
    "f_r_g_matrices",
    "adjoint_members",
    "gen_modular_pair",
    "irreducibility_probe",
    "compare_with_analytic",
    "s_k_report",
    "verlinde_fusion",
]

DEFAULT_TOLERANCE = 1e-9

# Basis rows of S^(p) per pass of the array assembly.  At k = 48 the
# arrays of one pass peak near 1.5 MB with 4 rows, 2.8 MB with 8 and 11 MB
# with all rows at once; the larger passes showed as 2-6% more peak RSS
# of an `mtc` job and saved about 0.02 s.
_ROW_BLOCK = 4


def _e(x) -> complex:
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(2j * cmath.pi * float(x))


def quantum_integer(k: int, n: int) -> float:
    """[n] = sin(pi n/(k+2)) / sin(pi/(k+2))."""
    return math.sin(math.pi * n / (k + 2)) / math.sin(math.pi / (k + 2))


def _as_twice(x) -> int:
    """A half-integer as its doubled integer value."""
    d = Fraction(x) * 2
    if d.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return int(d)


def _admissible(k: int, a, b, c):
    """The fusion rule N_{ab}^c = 1 at level k, which is also the
    admissibility of the spin triad with doubled labels (a, b, c):
    triangle inequalities, even sum, and sum <= 2k.  Elementwise on
    integer arrays; plain ints give a bool."""
    return ((a + b + c) % 2 == 0) & (abs(a - b) <= c) & (c <= a + b) & (a + b + c <= 2 * k)


class _QNumbers:
    """Per-level arrays of the rescaled quantum integers
    sin(pi n/(k+2)) = [n] sin(pi/(k+2)), n = 0..k+2, and of their running
    products, the rescaled factorials [n]! sin(pi/(k+2))^n, n = 0..k+1,
    all in (0, 1].  The 6j formula is homogeneous of degree 0 in the
    quantum integers, so it takes these in place of [n] and [n]!."""

    def __init__(self, k: int):
        self.k = k
        self.qint = np.sin(np.pi * np.arange(k + 3) / (k + 2))
        self.qfact = np.concatenate(([1.0], np.cumprod(self.qint[1 : k + 2])))


@lru_cache(maxsize=None)
def _qnumbers(k: int) -> _QNumbers:
    return _QNumbers(k)


def _fact2(q: _QNumbers, n2: np.ndarray) -> np.ndarray:
    """The rescaled [n]! elementwise, with the arguments given doubled
    (each must be even, 0 <= n <= k+1)."""
    if np.any(n2 & 1):
        raise ValueError("quantum factorial of a genuine half-integer")
    if n2.size and (n2.min() < 0 or n2.max() > 2 * q.k + 2):
        got = int(n2[(n2 < 0) | (n2 > 2 * q.k + 2)].flat[0]) // 2
        raise ValueError(f"quantum factorial needs 0 <= n <= {q.k + 1}, got {got}")
    return q.qfact[n2 >> 1]


def _delta2(q: _QNumbers, a2, b2, c2) -> np.ndarray:
    return np.sqrt(
        _fact2(q, -a2 + b2 + c2)
        * _fact2(q, a2 - b2 + c2)
        * _fact2(q, a2 + b2 - c2)
        / _fact2(q, a2 + b2 + c2 + 2)
    )


def _six_j(k: int, a2, b2, e2, d2, c2, f2) -> np.ndarray:
    """Unitary quantum 6j-symbol {a b e; d c f} elementwise over integer
    arrays (or ints) of doubled labels, by the Kirillov-Reshetikhin
    formula (Kirillov & Reshetikhin, "Representations of the algebra
    U_q(sl(2)), q-orthogonal polynomials and invariants of links", 1989).

    The sum runs z from the largest triad sum to the smallest of the
    quadrilateral sums and k ([k+2] = 0 kills anything beyond k).  The
    terms of all symbols of one call are laid out as one flat array of
    (symbol, z) cells, each symbol's own range of z and no padding, and
    summed per symbol in the order of z.  Any inadmissible triad, and any
    factorial argument that is a genuine half-integer or outside 0..k+1,
    raises ``ValueError``.
    """
    q = _qnumbers(k)
    a2, b2, e2, d2, c2, f2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.int64) for x in (a2, b2, e2, d2, c2, f2))
    )
    triads = ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2))
    for triad in triads:
        bad = ~_admissible(k, *triad)
        if np.any(bad):
            first = tuple(int(x[bad].flat[0]) / 2 for x in triad)
            raise ValueError(f"inadmissible spin triad {first} at level {k}")
    pref = np.where((a2 + b2 - c2 - d2 - 2 * e2) // 2 % 2 == 0, 1.0, -1.0)
    pref *= np.sqrt(q.qint[e2 + 1] * q.qint[f2 + 1])
    for triad in triads:
        pref *= _delta2(q, *triad)
    triad_sums = (a2 + b2 + e2, a2 + c2 + f2, b2 + d2 + f2, c2 + d2 + e2)
    quad_sums = (a2 + b2 + c2 + d2, a2 + d2 + e2 + f2, b2 + c2 + e2 + f2)
    z_lo2 = reduce(np.maximum, triad_sums)
    z_hi2 = np.minimum(reduce(np.minimum, quad_sums), 2 * k)
    # the (symbol, z) cells, symbol by symbol and z ascending within each:
    # admissible triads make every count at least 1
    count = ((z_hi2 - z_lo2) // 2 + 1).ravel()
    owner = np.repeat(np.arange(count.size), count)
    z2 = z_lo2.ravel()[owner] + 2 * (np.arange(owner.size) - (np.cumsum(count) - count)[owner])
    denom = np.ones(z2.shape)
    for t in triad_sums:
        denom *= _fact2(q, z2 - t.ravel()[owner])
    for s in quad_sums:
        denom *= _fact2(q, s.ravel()[owner] - z2)
    terms = np.where(z2 // 2 % 2 == 0, 1.0, -1.0) * _fact2(q, z2 + 2) / denom
    total = np.zeros(count.size)
    np.add.at(total, owner, terms)
    return pref * total.reshape(pref.shape)


def six_j(k: int, a, b, e, d, c, f) -> float:
    """Quantum 6j-symbol {a b e; d c f} for half-integer spins at level k."""
    _check_level(k)
    return float(_six_j(k, *(_as_twice(x) for x in (a, b, e, d, c, f))))


@dataclass
class MtcLevelData:
    """Immutable-by-convention bundle of the level-k constants: labels,
    twists, zeta = e(c/24), character S-matrix, quantum dimensions and
    the global dimension root."""

    level: int
    labels: tuple[int, ...]
    theta: tuple[complex, ...]
    zeta: complex
    s_char: np.ndarray
    qdim: np.ndarray
    global_dim_root: float


@lru_cache(maxsize=None)
def _level_constants(k: int):
    """(labels, theta, zeta, s_char, qdim, D): O(k^2) work, without any
    recoupling data."""
    n = k + 2
    labels = tuple(range(k + 1))
    s_char = np.array(
        [
            [
                math.sqrt(2.0 / n) * math.sin(math.pi * (i + 1) * (j + 1) / n)
                for j in labels
            ]
            for i in labels
        ]
    )
    qdim = s_char[:, 0] / s_char[0, 0]
    global_dim_root = 1.0 / s_char[0, 0]
    theta = tuple(_e(conformal_weight(k, i)) for i in labels)
    zeta = _e(central_charge(k) / 24)
    return labels, theta, zeta, s_char, qdim, global_dim_root


@lru_cache(maxsize=None)
def _half_twists(k: int) -> tuple[complex, ...]:
    """e(h_i/2) for every label i at level k."""
    return tuple(_e(conformal_weight(k, i) / 2) for i in range(k + 1))


def _r_phase(k: int, r: int, s: int, t: int) -> complex:
    """R^{(rs)t} = (-1)^(r+s-t) e((h_r + h_s - h_t)/2)."""
    half = _half_twists(k)
    return ((-1.0) ** (r + s - t)) * half[r] * half[s] / half[t]


def _r_phases(k: int, *triples) -> np.ndarray:
    """R^{(rs)t} elementwise for each triple (r, s, t) of label arrays, in
    one array with a leading axis over the triples, calling ``_r_phase``
    once per distinct triple among all of them."""
    n = k + 1
    codes = np.stack(np.broadcast_arrays(*((r * n + s) * n + t for r, s, t in triples)))
    distinct, inverse = np.unique(codes, return_inverse=True)
    rs, ts = np.divmod(distinct, n)
    rs, ss = np.divmod(rs, n)
    phases = np.array(
        [_r_phase(k, *triple) for triple in zip(rs.tolist(), ss.tolist(), ts.tolist())],
        dtype=complex,
    )
    return phases[inverse].reshape(codes.shape)


def _f_entry(k: int, r, s, t, u, p, q) -> np.ndarray:
    """F^{(rst)u}_{pq} = {t/2 s/2 p/2; r/2 u/2 q/2} elementwise over label
    arrays; an inadmissible entry raises ``ValueError``."""
    return _six_j(k, t, s, p, r, u, q)


def _g_entry(k: int, i, j, kt, l, p, q) -> np.ndarray:
    """G^{(ijk)l}_{pq} = R^{(jk)q} R^{(iq)l} / (R^{(ij)p} R^{(pk)l}) * F^{(kji)l}_{pq}
    elementwise over label arrays."""
    f = _f_entry(k, kt, j, i, l, p, q)
    r_jkq, r_iql, r_ijp, r_pkl = _r_phases(k, (j, kt, q), (i, q, l), (i, j, p), (p, kt, l))
    return r_jkq * r_iql / (r_ijp * r_pkl) * f


@lru_cache(maxsize=None)
def f_r_g_matrices(k: int) -> MtcLevelData:
    """The level-k category constants: character S-matrix, twists,
    quantum dimensions and global dimension root.  The modular pairs below
    fetch the F, R and G entries they need directly (``_f_entry``,
    ``_r_phase``, ``_g_entry``); no full tensor is ever built."""
    _check_level(k)
    labels, theta, zeta, s_char, qdim, global_dim_root = _level_constants(k)
    return MtcLevelData(
        level=k,
        labels=labels,
        theta=theta,
        zeta=zeta,
        s_char=s_char,
        qdim=qdim,
        global_dim_root=global_dim_root,
    )


def adjoint_members(k: int) -> list[int]:
    """Labels p admitting a self-coupling Hom(p (x) i, i) != 0 for some i,
    found by a fusion sweep (the even labels, but computed, not assumed)."""
    _check_level(k)
    out = []
    for p in range(k + 1):
        if any(fusion_coefficient(k, p, i, i) == 1 for i in range(k + 1)):
            out.append(p)
    return out


@dataclass(frozen=True)
class GenModularPair:
    """The action of the once-punctured-torus mapping class group on the
    self-coupling spaces of p, in the basis {i : Hom(p (x) i, i) != 0}."""

    level: int
    p_label: int
    basis: tuple[int, ...]
    s_matrix: np.ndarray
    t_matrix: np.ndarray
    relation_residuals: dict[str, float]

    def to_json(self) -> dict:
        def cpx(z: complex) -> list[float]:
            return [float(z.real), float(z.imag)]

        return {
            "level": self.level,
            "p": self.p_label,
            "basis": list(self.basis),
            "s_matrix": [[cpx(z) for z in row] for row in self.s_matrix],
            "t_diagonal": [cpx(z) for z in np.diag(self.t_matrix)],
            "relation_residuals": {key: float(v) for key, v in self.relation_residuals.items()},
        }


def gen_modular_pair(k: int, p: int, tolerance: float = DEFAULT_TOLERANCE) -> GenModularPair:
    """Build (S^(p), T^(p)) from the categorical data and certify the
    relations (S T)^3 = S^2 and S^4 = theta_p^{-1} Id.  A residual above
    ``tolerance``, or one that is NaN, raises ``RelationViolationError``."""
    _check_level(k)
    if p % 2 != 0 or not 0 <= p <= k:
        raise ValueError(f"p must be an even label in 0..{k}, got {p}")
    labels, theta, zeta, _, qdim, global_dim_root = _level_constants(k)
    basis = tuple(i for i in labels if fusion_coefficient(k, p, i, i) == 1)
    if not basis:
        raise ValueError(f"label {p} has no self-couplings at level {k}")
    dim = len(basis)
    basis_arr = np.array(basis)
    theta_arr = np.array(theta)
    s = np.zeros((dim, dim), dtype=complex)
    for start in range(0, dim, _ROW_BLOCK):
        rows = basis_arr[start : start + _ROW_BLOCK]
        # every admissible (i, j, r) with i in these rows, in the order (i, j, r)
        a, b, r = np.nonzero(
            _admissible(k, rows[:, None, None], basis_arr[None, :, None], np.arange(k + 1))
        )
        i, j = rows[a], basis_arr[b]
        # G^{(iij)j}_{0r} and G^{(pir)j}_{ij} in one call, so that each
        # braiding triple of these rows goes through _r_phase once
        g_first, g_second = _g_entry(
            k,
            np.stack([i, np.full_like(i, p)]),
            i,
            np.stack([j, r]),
            j,
            np.stack([np.zeros_like(i), i]),
            np.stack([r, j]),
        )
        terms = (
            theta_arr[r]
            / (theta_arr[i] * theta_arr[j])
            * g_first
            * _f_entry(k, i, i, j, j, r, 0)
            * g_second
        )
        np.add.at(s, (start + a, b), terms)
    s = np.outer(qdim[basis_arr], qdim[basis_arr]) / global_dim_root * s
    t = np.diag([theta[i] / zeta for i in basis])

    st3 = np.linalg.matrix_power(s @ t, 3)
    s2 = s @ s
    res_braid = float(np.max(np.abs(st3 - s2)))
    s4 = s2 @ s2
    res_dehn = float(np.max(np.abs(s4 - np.eye(dim) / theta[p])))
    residuals = {"st_cubed_vs_s_squared": res_braid, "s_fourth_vs_inverse_twist": res_dehn}
    # phrased so that a NaN residual fails too
    if not (res_braid <= tolerance and res_dehn <= tolerance):
        raise RelationViolationError(
            f"modular pair relations violated at level {k}, p={p}: {residuals}"
        )
    return GenModularPair(
        level=k,
        p_label=p,
        basis=basis,
        s_matrix=s,
        t_matrix=t,
        relation_residuals=residuals,
    )


def irreducibility_probe(
    pair: GenModularPair, multiplier_weight=0, tolerance: float = DEFAULT_TOLERANCE
) -> str:
    """Numerical irreducibility certificate: with distinct T-eigenvalues,
    any invariant subspace is spanned by basis vectors, and is ruled out
    if every proper non-empty subset couples to its complement through a
    non-negligible S-entry.  The multiplier weight is irrelevant to the
    existence of invariant subspaces (a scalar rescaling) and is accepted
    only for interface symmetry with the analytic side."""
    del multiplier_weight
    dim = len(pair.basis)
    if dim > 20:
        raise ValueError(f"refusing subset enumeration for basis size {dim} > 20")
    if dim == 1:
        return "irreducible"
    tdiag = np.diag(pair.t_matrix)
    for a in range(dim):
        for b in range(a + 1, dim):
            if abs(tdiag[a] - tdiag[b]) <= tolerance:
                return "inconclusive"
    indices = range(dim)
    for size in range(1, dim):
        for subset in combinations(indices, size):
            inside = set(subset)
            outside = [m for m in indices if m not in inside]
            coupled = any(
                abs(pair.s_matrix[o, i]) > tolerance for i in inside for o in outside
            )
            if not coupled:
                return "inconclusive"
    return "irreducible"


def _given_or_built(
    pair: GenModularPair | None, k: int, p: int, tolerance: float
) -> GenModularPair:
    """The caller's pair after checking that it is (S^(p), T^(p)) at
    level k, or a freshly built one when the caller has none."""
    if pair is None:
        return gen_modular_pair(k, p, tolerance)
    if (pair.level, pair.p_label) != (k, p):
        raise ValueError(
            f"pair is for level {pair.level}, p={pair.p_label}, not level {k}, p={p}"
        )
    return pair


def compare_with_analytic(
    k: int,
    lam: int,
    tolerance: float = DEFAULT_TOLERANCE,
    pair: GenModularPair | None = None,
) -> dict:
    """Compare the categorical T^(lam), divided by the weight-h_lam
    multiplier value on T, against the analytic diagonal exponents
    e(r_mu); report per-entry residuals.  The S-side comparison is
    reported as data without asserting equality.

    ``pair`` is the certified (S^(lam), T^(lam)) at level k when the
    caller already holds it; otherwise it is built here."""
    if lam % 2 != 0:
        raise ValueError(f"lambda must be even, got {lam}")
    pair = _given_or_built(pair, k, lam, tolerance)
    sig = rho_t(k, lam)
    if list(pair.basis) != xi_set(k, lam):
        raise RelationViolationError("categorical basis disagrees with the label set")
    nu_t = _e(multiplier(sig.multiplier_weight, "T"))
    nu_s = _e(multiplier(sig.multiplier_weight, "S"))
    t_resid = {}
    tdiag = np.diag(pair.t_matrix)
    for (mu, r), t_entry in zip(zip(pair.basis, sig.t_exponents), tdiag):
        t_resid[mu] = float(abs(t_entry / nu_t - _e(r)))
    s_over_nu = pair.s_matrix / nu_s
    return {
        "level": k,
        "lambda": lam,
        "t_residuals": {int(mu): v for mu, v in t_resid.items()},
        "max_t_residual": max(t_resid.values()),
        "t_consistent": max(t_resid.values()) < tolerance,
        "s_over_nu": [[[float(z.real), float(z.imag)] for z in row] for row in s_over_nu],
        "nu_t_exponent": fraction_to_str(multiplier(sig.multiplier_weight, "T")),
        "nu_s_exponent": fraction_to_str(multiplier(sig.multiplier_weight, "S")),
    }


def s_k_report(k: int, pair: GenModularPair | None = None) -> dict:
    """The three competing values for the one-dimensional S^(k): the
    coupling-space computation, e(-3k/16) (the weight-3k/4 multiplier
    value on S), and e(-3k/32).  Reported, not adjudicated.  ``pair`` is
    the certified (S^(k), T^(k)) when the caller already holds it."""
    if k % 2 != 0:
        raise ValueError("the one-dimensional pair needs even k")
    pair = _given_or_built(pair, k, k, DEFAULT_TOLERANCE)
    computed = complex(pair.s_matrix[0, 0])
    return {
        "level": k,
        "computed": [computed.real, computed.imag],
        "e_minus_3k_16": [_e(Fraction(-3 * k, 16)).real, _e(Fraction(-3 * k, 16)).imag],
        "e_minus_3k_32": [_e(Fraction(-3 * k, 32)).real, _e(Fraction(-3 * k, 32)).imag],
    }


def verlinde_fusion(k: int, lam: int, mu: int, nu: int) -> float:
    """Fusion number from the character S-matrix:
    sum_m S_{lam,m} S_{mu,m} conj(S_{nu,m}) / S_{0,m}."""
    _check_level(k)
    for label in (lam, mu, nu):
        if not 0 <= label <= k:
            raise ValueError(f"label {label} out of range 0..{k}")
    labels, _, _, s, _, _ = _level_constants(k)
    return float(
        np.real(sum(s[lam, m] * s[mu, m] * np.conj(s[nu, m]) / s[0, m] for m in labels))
    )
