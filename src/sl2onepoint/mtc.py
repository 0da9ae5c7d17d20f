"""Numerical modular-tensor-category data for sl(2) at level k.

Quantum 6j-symbols in the unitary normalisation and the generalised
modular pair (S^(p), T^(p)) acting on the self-coupling spaces
Hom(p (x) i, i).  Arithmetic is double-precision complex at every level,
in plain Python floats and nested tuples, and every pair is certified on
construction by the braid-group relations

    (S T)^3 = S^2,      S^4 = theta_p^{-1} * Id,

with residuals stored on the object and a loud error when they exceed
tolerance or are not numbers at all (a convention bug or lost precision,
never a user error).  These residuals are the only precision guard.

Per-level state lives in one table, the immutable ``MtcLevelData`` that
``f_r_g_matrices`` builds once and caches by level: the twists, quantum
dimensions and character S-matrix, and the rescaled quantum integers and
factorials.  The quantum integers are tabulated as sin(pi n/(k+2)) =
[n] sin(pi/(k+2)), so the factorials stay in (0, 1] at every level,
where the unscaled [k+1]! overflows a double from k = 202 on.  The 6j
formula is homogeneous of degree 0 in the quantum integers, so the
rescaling cancels in every symbol.  The 6j kernels take the table, not
the level.

The modular pair.  The categorical definition sums, over the admissible
r, theta_r/(theta_i theta_j) G^{(iij)j}_{0r} F^{(iij)j}_{r0}
G^{(pir)j}_{ij}, with G^{(ijk)l}_{pq} = R^{(jk)q} R^{(iq)l} /
(R^{(ij)p} R^{(pk)l}) F^{(kji)l}_{pq}, F^{(rst)u}_{pq} =
{t s p; r u q} and the braiding phase R^{(rs)t} = (-1)^(r+s-t)
e((h_r + h_s - h_t)/2).  Two of its three 6j-symbols carry a zero label
and are equal, so their product is d_r/(d_i d_j).  Every braiding phase
cancels: those of the first G give phi_ijr = R^{(ij)r} R^{(ir)j} /
(R^{(ii)0} R^{(0j)j}) = e(h_i)/e(h_i) = 1, and those of the last reduce
to R^{(pj)j}/R^{(pi)i} = 1, since R^{(pi)i} = e(h_p/2) for every i when
p is even.  The hexagon-compatible sign (-1)^((r+s-t)/2) cancels in the
same way, so the pair depends on no braiding convention.  What is left
is the one-punctured-torus formula

    S^(p)_ij = (1/(D theta_i theta_j))
               * sum_r N_ij^r d_r theta_r {p/2 i/2 i/2; r/2 j/2 j/2},

one 6j-symbol per term, each with at most p/2 + 1 terms of its own
alternating sum.  That symbol collapses: two of its triads coincide, and
``_self_coupling_six_j`` evaluates it with no square root, from a factor
A_i per basis label (``_coupling_norm``) and table entries.  It is
symmetric in i and j (its tetrahedral symmetry), and so is every other
factor, so each unordered pair {i, j} is summed once and S is exactly
symmetric; ``_six_j2``, the general kernel behind ``six_j``, is the
symbol's oracle.  ``tests/mtc_oracle.py`` keeps the three-symbol sum,
term by term and with every braiding phase, as the oracle of S: it
alone checks that the phases cancel.  Nothing is cached across pairs.
The certification is plain Python too, O(d^3) in the basis size d.
Since S is exactly symmetric, so are S^2, S^4, S T S and S T S T S =
(S T)^3 T^-1, and each is half a product, the row products on and above
the diagonal mirrored: 2 d^3 complex products in all, where the four full
products (S T)(S T)(S T), S S and S^2 S^2 take 4 d^3.  S^2 and S^4 equal
the full products float for float; the oracle keeps those in
``tests/mtc_oracle.py``.

Label conventions: integer labels 0..k; 6j-symbols take the spin (half
label) values.  All self-couplings here are multiplicity-free, so no
degeneracy indices appear.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .errors import PrecisionLossError, RelationViolationError
from .sl2data import (
    _check_label,
    _check_level,
    central_charge,
    conformal_weight,
    fusion_coefficient,
    multiplier,
    rep_dimension,
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

Matrix = tuple[tuple[complex, ...], ...]


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


def _six_j2(
    data: MtcLevelData, a2: int, b2: int, e2: int, d2: int, c2: int, f2: int
) -> float:
    """Unitary quantum 6j-symbol {a b e; d c f} at the level of ``data``,
    from the rescaled tables there and doubled labels whose
    four triads are admissible (not checked here), by the
    Kirillov-Reshetikhin formula (Kirillov & Reshetikhin, "Representations
    of the algebra U_q(sl(2)), q-orthogonal polynomials and invariants of
    links", 1989).

    Admissible triads make every factorial argument an integer in
    0..k+1.  The sum runs z from the largest triad sum to the smallest of
    the quadrilateral sums and k ([k+2] = 0 kills anything beyond k), in
    the order of z.  A value lost to underflow or overflow raises
    ``PrecisionLossError``: such a symbol is not representable in double
    precision, and returning NaN or a zero would pass it on silently.
    """
    k, qint, fact = data.level, data.qint, data.qfact
    # triad sums, halved
    t1, t2 = (a2 + b2 + e2) // 2, (a2 + c2 + f2) // 2
    t3, t4 = (b2 + d2 + f2) // 2, (c2 + d2 + e2) // 2
    # quadrilateral sums, halved
    s1, s2, s3 = (a2 + b2 + c2 + d2) // 2, (a2 + d2 + e2 + f2) // 2, (b2 + c2 + e2 + f2) // 2
    try:
        # sqrt([2e+1][2f+1]) times the four triangle coefficients, all positive
        pref = math.sqrt(qint[e2 + 1] * qint[f2 + 1])
        pref *= math.sqrt(fact[t1 - a2] * fact[t1 - b2] * fact[t1 - e2] / fact[t1 + 1])
        pref *= math.sqrt(fact[t2 - a2] * fact[t2 - c2] * fact[t2 - f2] / fact[t2 + 1])
        pref *= math.sqrt(fact[t4 - c2] * fact[t4 - e2] * fact[t4 - d2] / fact[t4 + 1])
        pref *= math.sqrt(fact[t3 - d2] * fact[t3 - b2] * fact[t3 - f2] / fact[t3 + 1])
        total = 0.0
        for z in range(max(t1, t2, t3, t4), min(s1, s2, s3, k) + 1):
            term = fact[z + 1] / (
                fact[z - t1] * fact[z - t2] * fact[z - t3] * fact[z - t4]
                * fact[s1 - z] * fact[s2 - z] * fact[s3 - z]
            )
            total += -term if z % 2 else term
        value = -pref * total if (a2 + b2 - c2 - d2 - 2 * e2) // 2 % 2 else pref * total
    except ZeroDivisionError:
        value = math.nan
    if not math.isfinite(value):
        raise _precision_loss(k, a2, b2, e2, d2, c2, f2)
    return value


def _precision_loss(k: int, *doubled: int) -> PrecisionLossError:
    """The error for the 6j-symbol {a b e; d c f} at level k, given by its
    doubled labels, whose value a double cannot hold."""
    spins = [str(Fraction(x, 2)) for x in doubled]
    return PrecisionLossError(
        f"6j-symbol {{{' '.join(spins[:3])}; {' '.join(spins[3:])}}} at level {k} "
        "is not representable in double precision: its factorial products underflow"
    )


def _coupling_norm(data: MtcLevelData, p: int, i: int) -> float:
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
    data: MtcLevelData, p: int, i: int, j: int, r: int, norm_i: float, norm_j: float
) -> float:
    """{p/2 i/2 i/2; r/2 j/2 j/2}, the one 6j-symbol of the modular pair,
    for admissible integer labels, with ``norm_i`` and ``norm_j`` the
    ``_coupling_norm`` of i and j.

    The Kirillov-Reshetikhin formula of ``_six_j2`` collapses here: the
    triad sums are i + p/2, j + p/2 and twice t = (i+j+r)/2, the
    quadrilateral sums twice t + p/2 and once i + j, and the prefactor is
    A_i A_j [t-i]! [t-j]! [t-r]! / [t+1]!, with no square root.  Every
    product is formed so that swapping i and j gives the same float: the
    tetrahedral symmetry holds exactly.  Underflow raises
    ``PrecisionLossError`` as in ``_six_j2``."""
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
        raise _precision_loss(k, p, i, i, r, j, j)
    return value


def six_j(k: int, a, b, e, d, c, f) -> float:
    """Quantum 6j-symbol {a b e; d c f} for half-integer spins at level k.
    A spin triad whose doubled labels break the fusion rule raises
    ``ValueError``."""
    a2, b2, e2, d2, c2, f2 = (_as_twice(x) for x in (a, b, e, d, c, f))
    for triad in ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2)):
        if not fusion_coefficient(k, *triad):
            raise ValueError(f"inadmissible spin triad {tuple(x / 2 for x in triad)} at level {k}")
    return _six_j2(f_r_g_matrices(k), a2, b2, e2, d2, c2, f2)


class MtcLevelData(NamedTuple):
    """The level-k constants: labels, twists, zeta = e(c/24), character
    S-matrix, quantum dimensions and the global dimension root; the
    rescaled quantum integers sin(pi n/(k+2)), n = 0..k+2, and their
    running products, the rescaled factorials, n = 0..k+1, all in (0, 1].
    It holds no braiding phase: none survives in the modular pairs.
    A named tuple, so it refuses assignment, because ``f_r_g_matrices``
    shares one cached instance per level."""

    level: int
    labels: tuple[int, ...]
    theta: tuple[complex, ...]
    zeta: complex
    s_char: tuple[tuple[float, ...], ...]
    qdim: tuple[float, ...]
    global_dim_root: float
    qint: tuple[float, ...]
    qfact: tuple[float, ...]


@lru_cache(maxsize=None)
def f_r_g_matrices(k: int) -> MtcLevelData:
    """The level-k table, O(k^2) work, and the only per-level state of
    this module.  The 6j-symbols are evaluated directly from it
    (``_six_j2``, ``_self_coupling_six_j``), and the modular pairs need
    no braiding phase; no F, R or G tensor is ever built."""
    _check_level(k)
    n = k + 2
    labels = tuple(range(k + 1))
    s_char = tuple(
        tuple(math.sqrt(2.0 / n) * math.sin(math.pi * (i + 1) * (j + 1) / n) for j in labels)
        for i in labels
    )
    qint = tuple(math.sin(math.pi * m / n) for m in range(k + 3))
    qfact = [1.0]
    for m in range(1, k + 2):
        qfact.append(qfact[-1] * qint[m])
    return MtcLevelData(
        level=k,
        labels=labels,
        theta=tuple(_e(conformal_weight(k, i)) for i in labels),
        zeta=_e(central_charge(k) / 24),
        s_char=s_char,
        qdim=tuple(row[0] / s_char[0][0] for row in s_char),
        global_dim_root=1.0 / s_char[0][0],
        qint=qint,
        qfact=tuple(qfact),
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


class GenModularPair(NamedTuple):
    """The action of the once-punctured-torus mapping class group on the
    self-coupling spaces of p, in the basis {i : Hom(p (x) i, i) != 0}.
    S is symmetric, each unordered {i, j} summed once with no braiding
    phase.  ``stages`` records what building it cost: the number of
    6j-symbols evaluated (one per unordered {i, j} and r),
    the assembly and certification times in seconds, and the headroom of
    the worst residual below the tolerance in decimal digits."""

    level: int
    p_label: int
    basis: tuple[int, ...]
    s_matrix: Matrix
    t_diagonal: tuple[complex, ...]
    relation_residuals: dict[str, float]
    # read-only when not given, so that no two pairs share a mutable default
    stages: Mapping[str, float] = MappingProxyType({})

    def to_json(self) -> dict:
        def cpx(z: complex) -> list[float]:
            return [float(z.real), float(z.imag)]

        return {
            "level": self.level,
            "p": self.p_label,
            "basis": list(self.basis),
            "s_matrix": [[cpx(z) for z in row] for row in self.s_matrix],
            "t_diagonal": [cpx(z) for z in self.t_diagonal],
            "relation_residuals": {key: float(v) for key, v in self.relation_residuals.items()},
            "stages": dict(self.stages),
        }


def _symmetric_product(a: Matrix, b: Matrix) -> list[list[complex]]:
    """a b for an exactly symmetric b when the product is symmetric too:
    the row products a_i . b_j on and above the diagonal, mirrored, d^3/2
    complex products.  For a square of a symmetric matrix (a = b), every
    entry is bit for bit that of the full product."""
    dim = len(a)
    rows = [[0j] * dim for _ in range(dim)]
    for i, row in enumerate(a):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = sum(map(mul, row, b[j]))
    return rows


def _max_abs_diff(a: Matrix, b: Matrix) -> float:
    """The largest entrywise |a - b|, NaN if any difference is NaN."""
    diffs = [abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs)


def gen_modular_pair(k: int, p: int, tolerance: float = DEFAULT_TOLERANCE) -> GenModularPair:
    """Build (S^(p), T^(p)) from the categorical data and certify the
    relations (S T)^3 = S^2 and S^4 = theta_p^{-1} Id.  A residual above
    ``tolerance``, or one that is NaN, raises ``RelationViolationError``."""
    dim = rep_dimension(k, p)
    data = f_r_g_matrices(k)
    theta, qdim = data.theta, data.qdim
    basis = tuple(i for i in data.labels if fusion_coefficient(k, p, i, i) == 1)

    # S^(p)_ij by the one-punctured-torus formula of the module docstring;
    # it is symmetric in i and j, so each unordered pair is summed once
    start = time.perf_counter()
    evaluations = 0
    norm = [_coupling_norm(data, p, i) for i in basis]
    rows = [[0j] * dim for _ in basis]
    for a, i in enumerate(basis):
        for b in range(a, dim):
            j = basis[b]
            acc = 0j
            # the r with N_ij^r = 1, ascending
            for r in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                acc += qdim[r] * theta[r] * _self_coupling_six_j(data, p, i, j, r, norm[a], norm[b])
                evaluations += 1
            rows[a][b] = rows[b][a] = acc / (data.global_dim_root * theta[i] * theta[j])
    s = tuple(map(tuple, rows))
    t_diag = tuple(theta[i] / data.zeta for i in basis)
    assembled = time.perf_counter()

    def times_t(a):
        return [[x * t for x, t in zip(row, t_diag)] for row in a]

    # S is exactly symmetric, and so are S^2, S^4, S T S and S T S T S, with
    # (S T)^3 = (S T S T S) T: four half products, 2 d^3 complex products
    s2 = _symmetric_product(s, s)
    ststs = _symmetric_product(times_t(_symmetric_product(times_t(s), s)), s)
    res_braid = _max_abs_diff(times_t(ststs), s2)
    s4 = _symmetric_product(s2, s2)
    res_dehn = _max_abs_diff(s4, [[(a == b) / theta[p] for b in range(dim)] for a in range(dim)])
    residuals = {"st_cubed_vs_s_squared": res_braid, "s_fourth_vs_inverse_twist": res_dehn}
    # phrased so that a NaN residual fails too
    if not (res_braid <= tolerance and res_dehn <= tolerance):
        raise RelationViolationError(
            f"modular pair relations violated at level {k}, p={p}: {residuals}"
        )
    # a residual below one ulp of 1.0 counts as one ulp
    worst = max(res_braid, res_dehn, sys.float_info.epsilon)
    stages = {
        "six_j_evaluations": evaluations,
        "assembly_s": assembled - start,
        "certification_s": time.perf_counter() - assembled,
        "headroom_digits": math.log10(tolerance / worst),
    }
    return GenModularPair(
        level=k,
        p_label=p,
        basis=basis,
        s_matrix=s,
        t_diagonal=t_diag,
        relation_residuals=residuals,
        stages=stages,
    )


def irreducibility_probe(pair: GenModularPair, tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Numerical irreducibility certificate: with distinct T-eigenvalues,
    any invariant subspace is spanned by basis vectors, and is ruled out
    if every proper non-empty subset couples to its complement through a
    non-negligible S-entry, that is, if the edges i -> o with
    |S_oi| > ``tolerance`` make the basis strongly connected.  Two sweeps
    from basis vector 0, one along the edges and one against them, decide
    that in O(d^2).  A pair whose S is not finite everywhere is refused
    with ``ValueError``."""
    if not all(cmath.isfinite(z) for row in pair.s_matrix for z in row):
        raise ValueError("refusing a pair whose S-matrix has non-finite entries")
    dim = len(pair.basis)
    # no longer needed, but the benchmark's mtc references pin this message (ROADMAP item 2)
    if dim > 20:
        raise ValueError(f"refusing subset enumeration for basis size {dim} > 20")
    if dim == 1:
        return "irreducible"
    tdiag = pair.t_diagonal
    for a in range(dim):
        for b in range(a + 1, dim):
            if abs(tdiag[a] - tdiag[b]) <= tolerance:
                return "inconclusive"
    s = pair.s_matrix
    # along the edges i -> o, then against them
    for coupled in (lambda i, o: s[o][i], lambda o, i: s[o][i]):
        reached, stack = {0}, [0]
        while stack:
            a = stack.pop()
            for b in range(dim):
                if b not in reached and abs(coupled(a, b)) > tolerance:
                    reached.add(b)
                    stack.append(b)
        if len(reached) < dim:
            return "inconclusive"
    return "irreducible"


def compare_with_analytic(
    k: int, lam: int, tolerance: float = DEFAULT_TOLERANCE, pair: GenModularPair | None = None
) -> dict:
    """Compare the categorical T^(lam), divided by the weight-h_lam
    multiplier value on T, against the analytic diagonal exponents
    e(r_mu); report per-entry residuals.  The S-side comparison is
    reported as data without asserting equality.  ``pair`` is the
    certified (S^(lam), T^(lam)) at level k when the caller holds it;
    otherwise it is built here."""
    if pair is None:
        pair = gen_modular_pair(k, lam, tolerance)
    elif (pair.level, pair.p_label) != (k, lam):
        raise ValueError(f"pair is for level {pair.level}, p={pair.p_label}, not {k}, {lam}")
    sig = rho_t(k, lam)
    if list(pair.basis) != xi_set(k, lam):
        raise RelationViolationError("categorical basis disagrees with the label set")
    nu_t = _e(multiplier(sig.multiplier_weight, "T"))
    nu_s = _e(multiplier(sig.multiplier_weight, "S"))
    t_resid = {}
    for mu, t, r in zip(pair.basis, pair.t_diagonal, sig.t_exponents):
        t_resid[mu] = float(abs(t / nu_t - _e(r)))
    s_over_nu = [[z / nu_s for z in row] for row in pair.s_matrix]
    return {
        "level": k,
        "lambda": lam,
        "t_residuals": {int(mu): v for mu, v in t_resid.items()},
        "max_t_residual": max(t_resid.values()),
        "t_consistent": max(t_resid.values()) < tolerance,
        "s_over_nu": [[[z.real, z.imag] for z in row] for row in s_over_nu],
        "nu_t_exponent": str(multiplier(sig.multiplier_weight, "T")),
        "nu_s_exponent": str(multiplier(sig.multiplier_weight, "S")),
    }


def s_k_report(pair: GenModularPair) -> dict:
    """The three competing values for the one-dimensional S^(k) of a pair
    with p = k: the coupling-space computation, e(-3k/16) (the weight-3k/4
    multiplier value on S), and e(-3k/32).  Reported, not adjudicated.
    Any other pair raises ``ValueError``."""
    k = pair.level
    if pair.p_label != k:
        raise ValueError(f"the one-dimensional report needs p = k = {k}, got p={pair.p_label}")
    computed = complex(pair.s_matrix[0][0])
    return {
        "level": k,
        "computed": [computed.real, computed.imag],
        "e_minus_3k_16": [_e(Fraction(-3 * k, 16)).real, _e(Fraction(-3 * k, 16)).imag],
        "e_minus_3k_32": [_e(Fraction(-3 * k, 32)).real, _e(Fraction(-3 * k, 32)).imag],
    }


def verlinde_fusion(k: int, lam: int, mu: int, nu: int) -> float:
    """Fusion number from the character S-matrix:
    sum_m S_{lam,m} S_{mu,m} conj(S_{nu,m}) / S_{0,m}; the matrix is
    real, so the conjugation is the identity."""
    for label in (lam, mu, nu):
        _check_label(k, label)
    s = f_r_g_matrices(k).s_char
    return float(sum(s[lam][m] * s[mu][m] * s[nu][m] / s[0][m] for m in range(k + 1)))
