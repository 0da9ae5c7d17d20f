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
dimensions, and the rescaled quantum integers and factorials.  It reads
the character S-matrix's column 0 only; the whole matrix, which the
Verlinde formula and ``verify`` read, is ``character_s_matrix``, cached
apart.  The quantum integers are tabulated as sin(pi n/(k+2)) =
[n] sin(pi/(k+2)), so the factorials stay in (0, 1] at every level,
where the unscaled [k+1]! overflows a double from k = 202 on; each
sine's argument is folded to at most pi/2, which keeps every entry
within about an ulp.  The 6j formula is homogeneous of degree 0 in the
quantum integers, so the rescaling cancels in every symbol.  The 6j
kernels take the table, not the level.

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

one 6j-symbol per term.  With h = p/2, sigma = i + j and t = (sigma +
r)/2, the symbol's Kirillov-Reshetikhin sum runs over z = t + m, m =
0..h, and its sign (-1)^(h-t) (-1)^z = (-1)^(h+m) no longer holds r.  In
the q-falling factorials F_c[n] = [n]!/[n-c]! (0 for n < c), the binomial
B_m = ([h]!/([m]! [h-m]!))^2 and a_i = sqrt([i+1] [i-h]!/[i+h+1]!), and
term by term over the same (r, z),

    S^(p)_ij = a_i a_j/(D theta_i theta_j) sum_{m=0..h} (-1)^(h+m) B_m
               * sum_t d_r theta_r F_{h-m}[t-i] F_{h-m}[t-j]
                       F_m[sigma-t] F_m[t+m+1],

t from max(i, j) + h - m to min(sigma, k) - m and r = 2t - sigma.  So
for one anti-diagonal sigma and one m, Q_m[t] = (-1)^(h+m) B_m d_r
theta_r F_m[sigma-t] F_m[t+m+1] is one row shared by every pair {i, j}
on it, and each pair's S entry is p/2 + 1 dot products of table rows
with tails of those rows, each one ``sum(map(mul, ...))``
(``_s_rows``).  Every F is a ratio of two factorial-table entries, and
each term is symmetric in i and j, so each unordered pair {i, j} is
summed once and S is exactly symmetric.  The extra tables are O(p k):
the rows F_c, c = 0..h, and the Q_m of one sigma at a time.  Each F lies
in (0, 1] and is a normal double wherever the factorial table is, up to
k = 1030; the symbol kernel instead divides by a product of seven table
entries, which underflows from k = 600 when p is near k.  The symbol
kernel, ``_self_coupling_six_j`` in ``tests/mtc_oracle.py``, evaluates
the same sum one symbol at a time and is the oracle of this one, with
``_six_j2``, the general kernel behind ``six_j``, as its own.
``tests/mtc_oracle.py`` also keeps the three-symbol sum, term by term
and with every braiding phase, as the oracle of S: it alone checks that
the phases cancel.  Nothing is cached across pairs.
The certification is plain Python too, d^3 complex products in the
basis size d, where the four half products S^2, S^4, S T S and S T S T S
took 2 d^3.  S is exactly symmetric, so S^2 and S T S are half products,
the row products on and above the diagonal mirrored; each relation is
then bounded in O(d^2) by an identity that holds exactly on the float
matrices.  The braid relation: (S T)^3 - S^2 = S T F T with the symmetric
F = S T S - T^-1 S T^-1, so with |t_i| = 1 every entry is at most
max_i |S_i| max_j |F_j| (row norms, Cauchy-Schwarz).  The Dehn twist:
S^2 = D + E with D diagonal, so S^4 - theta_p^-1 Id = (D^2 - theta_p^-1
Id) + (D E + E D) + E^2; the first two terms are exact entry by entry and
|(E^2)_ij| <= |E_i| |E_j|.  Every sl(2) label is self-dual, so S^2 maps
each coupling space to itself and is diagonal: E is rounding (under
7e-15 for every pair with k <= 40) and the Dehn bound is tight.  A pair
whose S^2 is not diagonal fails the bound; it never passes silently.
Neither bound is below the entrywise residual of the full products,
which ``tests/mtc_oracle.py`` keeps, by more than rounding.

Label conventions: integer labels 0..k; 6j-symbols take the spin (half
label) values.  All self-couplings here are multiplicity-free, so no
degeneracy indices appear.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub, truediv
from types import MappingProxyType

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
    "character_s_matrix",
    "adjoint_members",
    "gen_modular_pair",
    "irreducibility_probe",
    "compare_with_analytic",
    "s_k_report",
    "verlinde_fusion",
    "verlinde_numbers",
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


def _s_rows(data: MtcLevelData, p: int, basis: tuple[int, ...]) -> tuple[list[list[complex]], int]:
    """The rows of S^(p) on ``basis`` = (p/2, ..., k - p/2), by the m-form
    of the module docstring, and the number of 6j-symbols they sum.

    Each anti-diagonal sigma = i + j gets the rows Q_m[t], m = 0..p/2, on
    the t that its most central pair reads; every other pair of that
    sigma reads a tail of each row.  A zero, subnormal or non-finite value
    of the factorial table or of a row raises ``PrecisionLossError``,
    naming a symbol that reads it, before anything is summed."""
    k, qfact = data.level, data.qfact
    h, dim = p // 2, len(basis)
    tiny, huge = sys.float_info.min, sys.float_info.max
    # the table decreases, so its smallest entry is [k+1]!, which the symbol
    # with i = j = k - p/2 and r = 0 reads at z = k
    if not min(qfact) >= tiny:
        raise _precision_loss(k, p, k - h, k - h, 0, k - h, k - h)
    # F[c][n] = [n]!/[n-c]! (0 for n < c), each a ratio of two normal
    # entries of (0, 1], so itself normal and in (0, 1]
    falling = [[0.0] * c + [qfact[n] / qfact[n - c] for n in range(c, k + 2)] for c in range(h + 1)]
    signed_binomial = [(-1) ** (h + m) * (qfact[h] / qfact[m] / qfact[h - m]) ** 2 for m in range(h + 1)]
    norm = [math.sqrt(data.qint[i + 1] * qfact[i - h] / qfact[i + h + 1]) for i in basis]
    theta, root = data.theta, data.global_dim_root
    d_theta = list(map(mul, data.qdim, theta))
    rows = [[0j] * dim for _ in basis]
    evaluations = 0
    for sigma in range(2 * h, 2 * (k - h) + 1):
        # the central pair reads t = centre + h - m .. top - m of Q_m, r = 2t - sigma
        centre, top = sigma - sigma // 2, min(sigma, k)
        windows, flat = [], []
        for m in range(h + 1):
            lo, hi, f_m = centre + h - m, top - m, falling[m]
            # (d_r theta_r F_m[sigma-t]) (sign B_m F_m[t+m+1]): each factor has
            # modulus at least that of its F, so only the product can underflow
            q = list(map(
                mul,
                map(mul, d_theta[2 * lo - sigma:2 * hi - sigma + 1:2], reversed(f_m[sigma - hi:sigma - lo + 1])),
                map(mul, f_m[lo + m + 1:hi + m + 2], repeat(signed_binomial[m])),
            ))
            windows.append((falling[h - m], h - m, hi, q))
            flat += q
        # the row Q_p/2 holds the central pair's r, so flat is never empty
        sizes = list(map(abs, flat))
        if not (tiny <= min(sizes) and max(sizes) <= huge):
            m, n = next((m, n) for m, w in enumerate(windows) for n, x in enumerate(w[3]) if not tiny <= abs(x) <= huge)
            raise _precision_loss(k, p, sigma // 2, sigma // 2, 2 * (centre + h - m + n) - sigma, centre, centre)
        for i in range(sigma // 2, max(h, sigma - k + h) - 1, -1):
            j = sigma - i
            # pair (i, j) reads t = j + h - m .. top - m: the tail of Q_m from j - centre
            total = 0j
            for f_c, c, hi, q in windows:
                total += sum(map(mul, map(mul, f_c[j - i + c:hi - i + 1], f_c[c:hi - j + 1]), q[j - centre:]))
            a, b = i - h, j - h
            rows[a][b] = rows[b][a] = norm[a] * norm[b] * total / (root * theta[i] * theta[j])
            evaluations += (min(sigma, 2 * k - sigma) - j + i) // 2 + 1
    return rows, evaluations


def six_j(k: int, a, b, e, d, c, f) -> float:
    """Quantum 6j-symbol {a b e; d c f} for half-integer spins at level k.
    A spin triad whose doubled labels break the fusion rule raises
    ``ValueError``."""
    a2, b2, e2, d2, c2, f2 = (_as_twice(x) for x in (a, b, e, d, c, f))
    for triad in ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2)):
        if not fusion_coefficient(k, *triad):
            raise ValueError(f"inadmissible spin triad {tuple(x / 2 for x in triad)} at level {k}")
    return _six_j2(f_r_g_matrices(k), a2, b2, e2, d2, c2, f2)


class MtcLevelData(namedtuple("MtcLevelData", "level labels theta zeta qdim global_dim_root qint qfact")):
    """The level-k constants: labels, twists (complex), zeta = e(c/24),
    quantum dimensions and the global dimension root, from column 0 of
    the character S-matrix (``character_s_matrix``); the
    rescaled quantum integers sin(pi n/(k+2)), n = 0..k+2, and their
    running products, the rescaled factorials, n = 0..k+1, all in (0, 1].
    Every sequence is a tuple.
    It holds no braiding phase: none survives in the modular pairs.
    A named tuple, so it refuses assignment, because ``f_r_g_matrices``
    shares one cached instance per level."""

    __slots__ = ()


@lru_cache(maxsize=None)
def f_r_g_matrices(k: int) -> MtcLevelData:
    """The level-k table, O(k^2) work, and the only per-level state of
    this module.  The 6j-symbols (``_six_j2``) and the rows of the modular
    pairs (``_s_rows``) are evaluated directly from it, and the pairs need
    no braiding phase; no F, R or G tensor is ever built."""
    _check_level(k)
    n = k + 2
    labels = tuple(range(k + 1))
    # sin(pi m/n) = sin(pi (n-m)/n): an argument rounded near pi loses digits
    qint = tuple(math.sin(math.pi * min(m, n - m) / n) for m in range(k + 3))
    # column 0 of character_s_matrix(k), bit for bit: m = (i+1)(0+1) < n
    s_col = [math.sqrt(2.0 / n) * qint[i + 1] for i in labels]
    qfact = [1.0]
    for m in range(1, k + 2):
        qfact.append(qfact[-1] * qint[m])
    return MtcLevelData(
        level=k,
        labels=labels,
        theta=tuple(_e(conformal_weight(k, i)) for i in labels),
        zeta=_e(central_charge(k) / 24),
        qdim=tuple(x / s_col[0] for x in s_col),
        global_dim_root=1.0 / s_col[0],
        qint=qint,
        qfact=tuple(qfact),
    )


@lru_cache(maxsize=None)
def character_s_matrix(k: int) -> tuple[tuple[float, ...], ...]:
    """The character S-matrix S_ij = sqrt(2/(k+2)) sin(pi (i+1)(j+1)/(k+2))
    of level k, real and symmetric; cached by level and immutable.  The
    sine's argument is folded into [0, pi/2] as ``qint``'s is: (i+1)(j+1)
    is reduced mod 2n, n = k + 2, with the sign of its half-period, and m
    is taken to min(m, n - m)."""
    _check_level(k)
    n = k + 2
    scale = math.sqrt(2.0 / n)

    def entry(m: int) -> float:
        m %= 2 * n
        if m < n:
            return scale * math.sin(math.pi * min(m, n - m) / n)
        m -= n
        return -(scale * math.sin(math.pi * min(m, n - m) / n))

    labels = range(1, k + 2)
    return tuple(tuple(entry(a * b) for b in labels) for a in labels)


def adjoint_members(k: int) -> list[int]:
    """Labels p admitting a self-coupling Hom(p (x) i, i) != 0 for some i,
    found by a fusion sweep (the even labels, but computed, not assumed)."""
    _check_level(k)
    out = []
    for p in range(k + 1):
        if any(fusion_coefficient(k, p, i, i) == 1 for i in range(k + 1)):
            out.append(p)
    return out


class GenModularPair(
    namedtuple(
        "GenModularPair",
        "level p_label basis s_matrix t_diagonal relation_residuals stages",
        defaults=(MappingProxyType({}),),
    )
):
    """The action of the once-punctured-torus mapping class group on the
    self-coupling spaces of p, in the basis {i : Hom(p (x) i, i) != 0}.
    S is symmetric, each unordered {i, j} summed once with no braiding
    phase.  ``relation_residuals`` holds the two certified bounds of the
    module docstring, each at least the largest entrywise |difference| of
    its relation.  ``stages`` records what building it cost: the number of
    6j-symbols in the sum (one per unordered {i, j} and r; each is now
    summed as a slice of the table rows, not evaluated on its own), the
    assembly and certification times in seconds, and the headroom of the
    worst residual below the tolerance in decimal digits; read-only when
    not given, so that no two pairs share a mutable default."""

    __slots__ = ()

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


def _symmetric_product(a: Iterable[Sequence[complex]], b: Matrix) -> list[list[complex]]:
    """a b for an exactly symmetric b when the product is symmetric too:
    the row products a_i . b_j on and above the diagonal, mirrored, d^3/2
    complex products.  ``a`` is read once, row by row, so it may be a
    generator.  For a square of a symmetric matrix (a = b), every entry is
    bit for bit that of the full product."""
    dim = len(b)
    rows = [[0j] * dim for _ in range(dim)]
    for i, row in enumerate(a):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = sum(map(mul, row, b[j]))
    return rows


def _row_norm(row) -> float:
    """The Euclidean norm of a complex row (NaN if an entry is NaN and
    none is infinite)."""
    return math.hypot(*map(abs, row))


def _nan_max(values) -> float:
    """The largest of ``values``, NaN if any of them is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def gen_modular_pair(k: int, p: int, tolerance: float = DEFAULT_TOLERANCE) -> GenModularPair:
    """Build (S^(p), T^(p)) from the categorical data and certify the
    relations (S T)^3 = S^2 and S^4 = theta_p^{-1} Id.  A residual above
    ``tolerance``, or one that is NaN, raises ``RelationViolationError``."""
    rep_dimension(k, p)  # refuses a bad level or label
    data = f_r_g_matrices(k)
    theta = data.theta
    basis = tuple(i for i in data.labels if fusion_coefficient(k, p, i, i) == 1)

    # S^(p)_ij by the m-form of the module docstring; it is symmetric in i
    # and j, so each unordered pair is summed once
    start = time.perf_counter()
    rows, evaluations = _s_rows(data, p, basis)
    s = tuple(map(tuple, rows))
    t_diag = tuple(theta[i] / data.zeta for i in basis)
    assembled = time.perf_counter()

    # S is exactly symmetric, and so are S^2 and S T S: two half products,
    # d^3 complex products
    s2 = _symmetric_product(s, s)
    sts = _symmetric_product((list(map(mul, row, t_diag)) for row in s), s)
    # braid: (S T)^3 - S^2 = S T F T, F = S T S - T^-1 S T^-1 symmetric;
    # with |t| = 1, each entry is at most |S_i| |F_j| (Cauchy-Schwarz)
    inv = [1 / t for t in t_diag]
    f_norms = (
        _row_norm(map(sub, sts_row, map(mul, row, [u * v for v in inv])))
        for row, sts_row, u in zip(s, sts, inv)
    )
    res_braid = _nan_max(map(_row_norm, s)) * _nan_max(f_norms)
    # Dehn: S^2 = D + E, D diagonal, so S^4 - theta_p^-1 Id = (D^2 -
    # theta_p^-1 Id) + (D E + E D) + E^2, the first two exact entry by
    # entry and |(E^2)_ij| <= |E_i| |E_j|
    diag = [row[a] for a, row in enumerate(s2)]
    off_norms = [_row_norm(row[:a] + row[a + 1:]) for a, row in enumerate(s2)]
    worst_rows = []
    for a, row in enumerate(s2):
        exact = [abs((diag[a] + x) * y) for x, y in zip(diag, row)]
        exact[a] = abs(diag[a] * diag[a] - 1 / theta[p])
        worst_rows.append(_nan_max(map(add, exact, map(mul, repeat(off_norms[a]), off_norms))))
    res_dehn = _nan_max(worst_rows)
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
    # no longer needed, but the benchmark's mtc references pin this message (ROADMAP item 5)
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
    e(r_mu); report per-entry residuals.  There is no S side: the report
    gives the exponent of the multiplier value on S, from which S / nu_S
    is rebuilt, but nothing here compares S with the analytic action.
    ``pair`` is the certified (S^(lam), T^(lam)) at level k when the
    caller holds it; otherwise it is built here."""
    if pair is None:
        pair = gen_modular_pair(k, lam, tolerance)
    elif (pair.level, pair.p_label) != (k, lam):
        raise ValueError(f"pair is for level {pair.level}, p={pair.p_label}, not {k}, {lam}")
    sig = rho_t(k, lam)
    if list(pair.basis) != xi_set(k, lam):
        raise RelationViolationError("categorical basis disagrees with the label set")
    nu_t = _e(multiplier(sig.multiplier_weight, "T"))
    t_resid = {}
    for mu, t, r in zip(pair.basis, pair.t_diagonal, sig.t_exponents):
        t_resid[mu] = float(abs(t / nu_t - _e(r)))
    return {
        "level": k,
        "lambda": lam,
        "t_residuals": {int(mu): v for mu, v in t_resid.items()},
        "max_t_residual": max(t_resid.values()),
        "t_consistent": max(t_resid.values()) < tolerance,
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
    s = character_s_matrix(k)
    return float(sum(s[lam][m] * s[mu][m] * s[nu][m] / s[0][m] for m in range(k + 1)))


def verlinde_numbers(k: int) -> list[list[list[float]]]:
    """Every fusion number of level k by the Verlinde formula, in one pass:
    N[lam][mu][nu] is the weights S_{lam,m} S_{mu,m} / S_{0,m} of the pair
    (lam, mu) dotted with row nu of the character S-matrix, one label
    check for the level.  The sum of ``verlinde_fusion`` in another order,
    so equal to it up to rounding."""
    s = character_s_matrix(k)
    table = []
    for s_lam in s:
        ratios = list(map(truediv, s_lam, s[0]))
        by_mu = []
        for s_mu in s:
            weights = list(map(mul, ratios, s_mu))
            by_mu.append([sum(map(mul, weights, s_nu)) for s_nu in s])
        table.append(by_mu)
    return table
