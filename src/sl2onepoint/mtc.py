"""Numerical modular-tensor-category data for sl(2) at level k: the
generalised modular pair (S^(p), T^(p)) acting on the self-coupling
spaces Hom(p (x) i, i), in the basis ``sl2data.xi_set(k, p)`` of the
labels p/2..k - p/2 that have one (``test_xi_set_matches_fusion_sweep``
checks it against the fusion sweep).  Arithmetic is double-precision
complex at every level, in plain Python floats and nested tuples, and
every pair is certified on construction by the braid-group relations

    (S T)^3 = S^2,      S^4 = theta_p^{-1} * Id,

with residuals stored on the object and a loud error when they exceed
tolerance or are not numbers at all (a convention bug or lost precision,
never a user error).  These residuals are the only precision guard.

No 6j-symbol is evaluated on its own here.  The general 6j-symbol
``six_j``, its kernel ``_six_j2`` and ``quantum_integer`` are oracles in
``tests/mtc_oracle.py``; the character S-matrix and the Verlinde formula,
which only ``verify`` reads, are in ``suites``.  So an ``mtc`` job
compiles none of them.

Per-level state lives in one table, the immutable ``MtcLevelData`` that
``f_r_g_matrices`` builds once and caches by level: the twists, quantum
dimensions, and the rescaled quantum integers and factorials.  It reads
the character S-matrix's column 0 only; the whole matrix, which the
Verlinde formula and ``verify`` read, is ``suites.character_s_matrix``,
cached apart, with its sines read from this table.  The quantum integers
are tabulated as sin(pi n/(k+2)) = [n] sin(pi/(k+2)), so the factorials
stay in (0, 1] at every level, where the unscaled [k+1]! overflows a
double from k = 202 on; each sine's argument is folded to at most pi/2,
which keeps every entry within about an ulp.  Each twist e(h_i) has its
exponent reduced mod 1 exactly, as a Fraction, before it becomes a
float: h_i grows to about k/4, and 2 pi h_i rounded at that size would
cost digits.  The 6j formula is homogeneous of degree 0 in the quantum
integers, so the rescaling cancels in every symbol.

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
the general kernel ``_six_j2`` there as its own.
``tests/mtc_oracle.py`` also keeps the three-symbol sum, term by term
and with every braiding phase, as the oracle of S: it alone checks that
the phases cancel.  Nothing is cached across pairs.

The simple current.  The label J = k fuses with i to k - i, and it gives
the pair an exact symmetry, the sl(2) case of the simple-current
symmetry of the quantum 6j-symbols (Kirillov & Reshetikhin 1989): with
the basis (h, ..., k - h) indexed a = i - h and d = k - p + 1 its size,
label i sits at a and k - i at d - 1 - a, and

    S^(p)_{k-i,k-j} = (-1)^(k+i+j) S^(p)_ij,    theta_{k-i} = i^k (-1)^i theta_i,

the second because h_{k-i} - h_i = k/4 - i/2.  So ``_s_rows`` sums only
the anti-diagonals sigma <= k, about half of the entries, and writes
each entry's mirror (d-1-a, d-1-b) with the sign (-1)^(k+sigma);
``_t_diagonal`` computes T on the lower half of the basis and mirrors it
by a quarter turn and a sign.  Both are exact in floats, so both laws
hold exactly, float for float, on the pair, and ``gen_modular_pair``
checks that they do, in O(d^2), before it certifies: a pair that breaks
either is refused with the entries named, however small its residuals.

The certification is plain Python too, d^3/2 complex products in the
basis size d.  S^2 and S T S are the only products formed.  Both are
symmetric, and by the two laws their mirror entries are (S^2)_{a'c'} =
(-1)^(i+j) (S^2)_ac and (S T S)_{a'c'} = i^k (-1)^(i+j) (E - O), where
a' = d-1-a, c' = d-1-c and E + O = (S T S)_ac splits the sum over the
middle label l into its even and odd l.  So only the entries a <= c,
a + c <= d - 1 are summed, a quarter of each matrix (``_quarter_products``),
where two half products took d^3.  Each relation is then bounded in
O(d^2) by an identity that holds exactly on the float matrices.  The
braid relation: (S T)^3 - S^2 = S T F T with the symmetric F = S T S -
T^-1 S T^-1, so with |t_i| = 1 every entry is at most max_i |S_i|
max_j |F_j| (row norms, Cauchy-Schwarz).  The Dehn twist: S^2 = D + E
with D diagonal, so S^4 - theta_p^-1 Id = (D^2 - theta_p^-1 Id) + (D E
+ E D) + E^2; the first two terms are exact entry by entry and
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

import math
import sys
import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, neg, sub

from .errors import PrecisionLossError, RelationViolationError
from .sl2data import (
    _check_level,
    central_charge,
    conformal_weight,
    multiplier,
    rep_dimension,
    rho_t,
    xi_set,
)

# Names of ``suites`` that ``__getattr__`` resolves here: only the one the
# benchmark's tracer looks up by this module (ROADMAP item 6).
_SUITES = ("verlinde_fusion",)

__all__ = [
    "DEFAULT_TOLERANCE",
    "MtcLevelData",
    "GenModularPair",
    "f_r_g_matrices",
    "gen_modular_pair",
    "irreducibility_probe",
    "compare_with_analytic",
    *_SUITES,
]


def __getattr__(name: str):
    if name in _SUITES:
        from . import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_TOLERANCE = 1e-9

# i^k by k mod 4, as exact complex units: multiplying by one is exact
_QUARTER_TURNS = (1, 1j, -1, -1j)


def _e(x) -> complex:
    """e(x) = exp(2 pi i x), with x reduced mod 1 first; exactly, when x
    is a Fraction, as every caller passes.  It is cos t + i sin t at t =
    2 pi x, the value ``cmath.exp(2j * cmath.pi * x)`` gives float for
    float (``tests/mtc_oracle.py``), without loading ``cmath``."""
    t = 2.0 * math.pi * float(x % 1)
    return complex(math.cos(t), math.sin(t))


def _precision_loss(k: int, *doubled: int, reason: str = "its factorial products underflow") -> PrecisionLossError:
    """The error for the 6j-symbol {a b e; d c f} at level k, given by its
    doubled labels, whose value a double cannot hold, and why."""
    spins = [str(Fraction(x, 2)) for x in doubled]
    return PrecisionLossError(
        f"6j-symbol {{{' '.join(spins[:3])}; {' '.join(spins[3:])}}} at level {k} "
        f"is not representable in double precision: {reason}"
    )


def _s_rows(data: "MtcLevelData", p: int, basis: tuple[int, ...]) -> tuple[list[list[complex]], int]:
    """The rows of S^(p) on ``basis`` = (p/2, ..., k - p/2), by the m-form
    of the module docstring, and the number of 6j-symbols they sum.

    Each anti-diagonal sigma = i + j <= k gets the rows Q_m[t], m =
    0..p/2, on the t that its most central pair reads; every other pair
    of that sigma reads a tail of each row.  The anti-diagonals sigma > k
    are the mirrors 2k - sigma of those: each entry (a, b) summed is also
    written at (d-1-a, d-1-b) with the sign (-1)^(k+sigma), and its
    symbols are counted again.  A zero, subnormal or non-finite value of
    the factorial table or of a row raises ``PrecisionLossError``, naming
    a symbol that reads it, before anything is summed."""
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
    last, evaluations = dim - 1, 0
    for sigma in range(2 * h, k + 1):
        # the central pair reads t = centre + h - m .. sigma - m of Q_m, r = 2t - sigma
        centre = sigma - sigma // 2
        windows, flat = [], []
        for m in range(h + 1):
            lo, hi, f_m = centre + h - m, sigma - m, falling[m]
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
        # the mirror anti-diagonal 2k - sigma, which is sigma itself at sigma = k
        mirrored, odd = sigma < k, (k + sigma) % 2
        for i in range(sigma // 2, h - 1, -1):
            j = sigma - i
            # pair (i, j) reads t = j + h - m .. sigma - m: the tail of Q_m from j - centre
            total = 0j
            for f_c, c, hi, q in windows:
                total += sum(map(mul, map(mul, f_c[j - i + c:hi - i + 1], f_c[c:hi - j + 1]), q[j - centre:]))
            a, b = i - h, j - h
            x = rows[a][b] = rows[b][a] = norm[a] * norm[b] * total / (root * theta[i] * theta[j])
            symbols = (sigma - j + i) // 2 + 1
            if mirrored:
                rows[last - a][last - b] = rows[last - b][last - a] = -x if odd else x
                symbols *= 2
            evaluations += symbols
    return rows, evaluations


class MtcLevelData(namedtuple("MtcLevelData", "level labels theta zeta qdim global_dim_root qint qfact")):
    """The level-k constants: labels, twists (complex), zeta = e(c/24),
    quantum dimensions and the global dimension root, from column 0 of
    the character S-matrix (``suites.character_s_matrix``); the
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
    this module.  The rows of the modular pairs (``_s_rows``) are evaluated
    directly from it, and the pairs need no braiding phase; no F, R or G
    tensor is ever built."""
    _check_level(k)
    n = k + 2
    labels = tuple(range(k + 1))
    # sin(pi m/n) = sin(pi (n-m)/n): an argument rounded near pi loses digits
    qint = tuple(math.sin(math.pi * min(m, n - m) / n) for m in range(k + 3))
    # column 0 of suites.character_s_matrix(k), bit for bit: m = (i+1)(0+1) < n
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


class GenModularPair(
    namedtuple(
        "GenModularPair",
        "level p_label s_matrix t_diagonal relation_residuals stages",
    )
):
    """The action of the once-punctured-torus mapping class group on the
    self-coupling spaces of p, in the basis ``xi_set(k, p)``, the labels i
    with Hom(p (x) i, i) != 0 (``test_xi_set_matches_fusion_sweep``).
    S is symmetric, each unordered {i, j} with i + j <= k summed once with
    no braiding phase, and keeps the simple-current symmetry exactly:
    S_{k-i,k-j} = (-1)^(k+i+j) S_ij, the mirror of each summed entry, and
    T_{k-i} = i^k (-1)^i T_i.  ``relation_residuals`` holds the two
    certified bounds of the module docstring, each at least the largest
    entrywise |difference| of its relation, from quarter products of d^3/2
    complex products.  ``stages`` records what building it cost: the
    number of 6j-symbols in the sum (one per unordered {i, j} and r,
    mirrored ones included; each is summed as a slice of the table rows,
    not evaluated on its own), the assembly and certification times in
    seconds, and the headroom of the worst residual below the tolerance in
    decimal digits; every field is required.  The basis is derived from
    (level, p_label)."""

    __slots__ = ()
    basis = property(lambda self: tuple(xi_set(self.level, self.p_label)))

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


def _t_diagonal(data: MtcLevelData, basis: tuple[int, ...]) -> tuple[complex, ...]:
    """T^(p) = theta_i / zeta on ``basis``: divided out on the lower half,
    the middle label included, and mirrored to k - i by theta_{k-i} =
    i^k (-1)^i theta_i, a quarter turn and a sign, both exact in floats."""
    k, theta, zeta = data.level, data.theta, data.zeta
    dim, turn = len(basis), _QUARTER_TURNS[k % 4]
    t = [theta[i] / zeta for i in basis[:dim - dim // 2]]
    t += [(-turn if basis[a] % 2 else turn) * t[a] for a in range(dim // 2 - 1, -1, -1)]
    return tuple(t)


def _symmetry_break(k: int, basis: tuple[int, ...], s, t_diag) -> str | None:
    """Where S or T breaks its simple-current law of the module docstring,
    named by the two entries that disagree, or None when both laws hold
    exactly, entry by entry; O(d^2)."""
    last, turn = len(basis) - 1, _QUARTER_TURNS[k % 4]
    for a, row in enumerate(s):
        # S_{k-i,k-j} = (-1)^(k+i+j) S_ij: the sign is -1 on every other j
        want = list(row)
        flip = (k + basis[a] + basis[0] + 1) % 2
        want[flip::2] = map(neg, row[flip::2])
        mirror = list(reversed(s[last - a]))
        if want != mirror:
            b = next(b for b, (x, y) in enumerate(zip(want, mirror)) if x != y)
            i, j = basis[a], basis[b]
            return (
                f"S breaks S_(k-i,k-j) = (-1)^(k+i+j) S_ij at i={i}, j={j}: "
                f"S_({i},{j}) = {row[b]}, S_({k - i},{k - j}) = {mirror[b]}"
            )
    want = [(-turn if i % 2 else turn) * x for i, x in zip(basis, t_diag)]
    for i, x, y, z in zip(basis, t_diag, want, t_diag[::-1]):
        if y != z:
            return f"T breaks theta_(k-i) = i^k (-1)^i theta_i at i={i}: T_{i} = {x}, T_{k - i} = {z}"
    return None


def _quarter_products(s, t_diag, k: int, h: int) -> tuple[list[list[complex]], list[list[complex]]]:
    """S^2 and S T S for a pair that keeps both laws exactly: each entry
    a <= c, a + c <= d - 1 summed, and the rest filled by symmetry and by
    the mirror rules of the module docstring, d^3/2 complex products."""
    dim, last, turn = len(s), len(s) - 1, _QUARTER_TURNS[k % 4]
    # label h + b is even at b = h mod 2
    ev, od = h % 2, 1 - h % 2
    evens, odds = [row[ev::2] for row in s], [row[od::2] for row in s]
    s2 = [[0j] * dim for _ in s]
    sts = [[0j] * dim for _ in s]
    for a in range(dim - dim // 2):
        row = s[a]
        st = list(map(mul, row, t_diag))
        st_even, st_odd = st[ev::2], st[od::2]
        for c in range(a, dim - a):
            x = s2[a][c] = s2[c][a] = sum(map(mul, row, s[c]))
            e, o = sum(map(mul, st_even, evens[c])), sum(map(mul, st_odd, odds[c]))
            sts[a][c] = sts[c][a] = e + o
            if a + c < last:
                # (S^2)_{a'c'} = (-1)^(i+j) x and (S T S)_{a'c'} = i^k (-1)^(i+j) (E - O)
                y = turn * (e - o)
                if (a + c) % 2:
                    x, y = -x, -y
                s2[last - a][last - c] = s2[last - c][last - a] = x
                sts[last - a][last - c] = sts[last - c][last - a] = y
    return s2, sts


def _row_norm(row) -> float:
    """The Euclidean norm of a complex row (NaN if an entry is NaN and
    none is infinite)."""
    return math.hypot(*map(abs, row))


def _finite(z: complex) -> bool:
    """Whether both parts of z are finite, as ``cmath.isfinite`` says."""
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _nan_max(values) -> float:
    """The largest of ``values``, NaN if any of them is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def gen_modular_pair(k: int, p: int, tolerance: float = DEFAULT_TOLERANCE) -> GenModularPair:
    """Build (S^(p), T^(p)) on the basis ``xi_set(k, p)`` from the
    categorical data and certify the relations (S T)^3 = S^2 and S^4 =
    theta_p^{-1} Id.  A pair that breaks the simple-current symmetry of S
    or of T anywhere, or a residual above ``tolerance`` or NaN, raises
    ``RelationViolationError``."""
    rep_dimension(k, p)  # refuses a bad level or label
    data = f_r_g_matrices(k)
    theta = data.theta
    basis = tuple(xi_set(k, p))

    # S^(p)_ij by the m-form of the module docstring, each unordered pair
    # on the anti-diagonals i + j <= k summed once and the rest mirrored;
    # T on the lower half of the basis, mirrored
    start = time.perf_counter()
    rows, evaluations = _s_rows(data, p, basis)
    s = tuple(map(tuple, rows))
    t_diag = _t_diagonal(data, basis)
    assembled = time.perf_counter()

    # the quarter products hold only for a pair that keeps both laws exactly
    broken = _symmetry_break(k, basis, s, t_diag)
    if broken is not None:
        raise RelationViolationError(f"modular pair relations violated at level {k}, p={p}: {broken}")
    s2, sts = _quarter_products(s, t_diag, k, p // 2)
    # braid: (S T)^3 - S^2 = S T F T, F = S T S - T^-1 S T^-1 symmetric;
    # with |t| = 1, each entry is at most |S_i| |F_j| (Cauchy-Schwarz)
    inv = [1 / t for t in t_diag]
    f_norms = (
        _row_norm(map(sub, sts_row, map(mul, row, map(mul, repeat(u), inv))))
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
        exact = list(map(abs, map(mul, map(add, repeat(diag[a]), diag), row)))
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
    s = pair.s_matrix
    # a row's sum is finite when every entry is, unless it overflows, so
    # the entries are tested one by one only where a sum is not
    if not all(map(_finite, map(sum, s))) and not all(_finite(z) for row in s for z in row):
        raise ValueError("refusing a pair whose S-matrix has non-finite entries")
    dim = len(s)
    # no longer needed, but the benchmark's mtc references pin this message (ROADMAP item 6)
    if dim > 20:
        raise ValueError(f"refusing subset enumeration for basis size {dim} > 20")
    tdiag = pair.t_diagonal
    for a in range(dim):
        for b in range(a + 1, dim):
            if abs(tdiag[a] - tdiag[b]) <= tolerance:
                return "inconclusive"
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
    nu_t_exponent = multiplier(sig.multiplier_weight, "T")
    nu_t = _e(nu_t_exponent)
    t_resid = {}
    for mu, t, r in zip(pair.basis, pair.t_diagonal, sig.t_exponents):
        t_resid[mu] = float(abs(t / nu_t - _e(r)))
    return {
        "level": k,
        "lambda": lam,
        "t_residuals": {int(mu): v for mu, v in t_resid.items()},
        "max_t_residual": max(t_resid.values()),
        "t_consistent": max(t_resid.values()) < tolerance,
        "nu_t_exponent": str(nu_t_exponent),
        "nu_s_exponent": str(multiplier(sig.multiplier_weight, "S")),
    }
