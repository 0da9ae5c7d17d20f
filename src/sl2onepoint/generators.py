"""Cyclic generators of the holomorphic form spaces in dimensions 1-3.

A single vector of q-series generates, under the modular-differential-
operator algebra, every form attached to insertions from the simple
module with finite weight lam = k, k-1 or k-2.  Dimension one is a pure
eta power.  In dimension d = 2 or 3 every component solves one monic
modular differential equation D^d + sum_t kappa_t eis_w D^(d-2-t), acting
at the generator's weight, with the forms eis_w of ``_FORMS``.  Its
indicial roots are the components' leading exponents, which fix the
kappas in closed form.  Written as sum_j a_j(q) theta^j with
theta = q d/dq, the equation yields each component one coefficient at a
time (``mlde_solutions``), in O(N^2) exact operations for N coefficients,
all of them on Python ints: each component is held over the lcm of its
reduced denominators, which is its canonical ``QExpansion.den``.
No two exponents differ by an integer, so each component is the unique
solution with leading coefficient 1; that normalisation, which an
intertwiner rescaling always permits, keeps the pipeline in exact
rationals.

What the generators are checked against (the hypergeometric oracle, the
equation applied by modular derivatives, the published-table fixtures)
lives in ``generator_checks``, so that an ``expand`` job compiles only
the construction; import those names from there.
"""

import math
from fractions import Fraction
from collections import namedtuple
from functools import lru_cache

from .errors import DegenerateMldeError, InternalInconsistencyError, UnsupportedDimensionError
from .qseries import QExpansion, _convolve, _from_ints, eisenstein, eta_power
from .sl2data import form_weight, leading_exponents, rep_dimension, xi_set

# Names of ``generator_checks`` that ``__getattr__`` still resolves here: only
# the ones the benchmark's tracer looks up by this module (ROADMAP item 6).
_CHECKS = ("hypergeom_series", "mlde_residual", "table_fixture_check")

__all__ = ["VvmfVector", "cyclic_generator", "mlde_equation", "mlde_solutions", *_CHECKS]


def __getattr__(name: str):
    if name in _CHECKS:
        from . import generator_checks

        return getattr(generator_checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# weights w of the forms eis_w that the kappas multiply, in order
_FORMS = (4, 6)
_MAX_ORDER = len(_FORMS) + 1  # an equation of order d uses d - 1 forms


class VvmfVector(namedtuple("VvmfVector", "level weight_label components")):
    """A vector of trace-function expansions, one component per label mu
    in the self-coupling set of (level, weight_label): ``components``
    holds the pairs (mu, QExpansion).  Its dimension and form weight are
    derived: the number of components, and h_lam + lam/2 as a Fraction."""

    __slots__ = ()
    dimension = property(lambda self: len(self.components))
    form_weight = property(lambda self: form_weight(self.level, self.weight_label))

    def component(self, mu: int) -> QExpansion:
        for label, series in self.components:
            if label == mu:
                return series
        raise KeyError(f"no component with label {mu}")

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "weight_label": self.weight_label,
            "form_weight": str(self.form_weight),
            "components": [
                {"mu": mu, "series": series.to_json()} for mu, series in self.components
            ],
        }


def _dimension(k: int, lam: int) -> int:
    """Validate a generator's (k, lam); return its dimension."""
    d = rep_dimension(k, lam)
    if d > _MAX_ORDER:
        raise UnsupportedDimensionError(f"no generator formula for dimension {d}")
    return d


def cyclic_generator(k: int, lam: int, order: int) -> VvmfVector:
    """The normalised cyclic generator for (k, lam) with k-lam in {0,1,2}.

    Dimension 1 is eta^{3k/2}.  Dimensions 2 and 3 are the solutions of
    the generator's monic differential equation (``mlde_equation``) with
    indicial roots (2 mu^2 + 4 mu - k)/(8(k+2)), one component per label
    mu, each with leading coefficient 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d = _dimension(k, lam)
    mus = xi_set(k, lam)
    exps = leading_exponents(k, lam)
    if d == 1:
        comps = [eta_power(Fraction(3 * k, 2), order)]
    else:
        weight, kappas = mlde_equation(k, lam)
        comps = _solve_mlde(weight, exps, kappas, order)
    for comp, exponent in zip(comps, exps):
        _check_component(comp, exponent)
    return VvmfVector(k, lam, tuple(zip(mus, comps)))


def _check_component(comp: QExpansion, expected_exponent: Fraction) -> None:
    if comp.leading_exponent != expected_exponent:
        raise InternalInconsistencyError(
            f"component leading exponent {comp.leading_exponent} != expected {expected_exponent}"
        )
    if comp.nums[0] != comp.den:
        raise InternalInconsistencyError("component is not normalised to leading coefficient 1")


# -- the monic differential equations ----------------------------------


def _roots_polynomial(roots) -> list[Fraction]:
    """Coefficients of prod (x - r), lowest degree first."""
    poly = [Fraction(1)]
    for r in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return poly


def _indicial_kappas(weight, exponents) -> tuple[Fraction, ...]:
    """The kappas of the monic equation of order d = len(exponents),
    acting at ``weight``, whose indicial roots are ``exponents``.

    D_w sends q^x to (x - w/12) q^x + O(q^{x+1}), so with s_i = w/12 + i/6
    the indicial polynomial is prod_{i<d} (x - s_i) + sum_t kappa_t e_t
    prod_{i<d-2-t} (x - s_i), e_t the constant term of eis_w.  Each product
    is monic, so matching it against prod (x - exponent) gives the kappas in
    turn from the coefficients of x^(d-2), x^(d-3), ..., provided the
    exponents sum to the s_i.
    """
    w = Fraction(weight)
    d = len(exponents)
    if not 2 <= d <= _MAX_ORDER:
        raise UnsupportedDimensionError(f"monic equations of order 2-{_MAX_ORDER} only, got {d}")
    shifts = [w / 12 + Fraction(i, 6) for i in range(d)]
    diff = [a - b for a, b in zip(_roots_polynomial(exponents), _roots_polynomial(shifts))]
    if diff[d - 1] != 0:
        raise ValueError(f"exponents {exponents} do not sum to {sum(shifts)} as weight {w} needs")
    kappas = []
    for j, w in zip(reversed(range(d - 1)), _FORMS):
        ratio = diff[j]  # kappa_t e_t, the leading coefficient of its term
        kappas.append(ratio / eisenstein(w, 1).coeffs[0])
        for i, c in enumerate(_roots_polynomial(shifts[:j])):
            diff[i] -= ratio * c
    return tuple(kappas)


@lru_cache(maxsize=None)
def mlde_equation(k: int, lam: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(weight, kappas) of the monic equation annihilating every component
    of the (k, lam) generator in dimension 2 or 3.

    The equation acts at the generator's weight.  The eta factor changes
    nothing, because D_{w+r/2}(eta^r f) = eta^r D_w f: the eta-rescaled
    components solve the same equation at weight w.  Cached by (k, lam):
    every caller shares one immutable value.
    """
    if _dimension(k, lam) == 1:
        raise UnsupportedDimensionError("differential equations cover dimensions 2-3, got 1")
    weight = form_weight(k, lam)
    return weight, _indicial_kappas(weight, leading_exponents(k, lam))


def _theta_form(weight: Fraction, kappas, order: int) -> list[list[int]]:
    """The monic equation of order d = len(kappas)+1 acting at ``weight``,
    written as sum_j a_j(q) theta^j with theta = q d/dq: the integer lists
    A with a_j = A[j]/den, where A[d] = [den, 0, 0, ...] and ``den`` is the
    least common denominator of all a_j.

    Built from D_v (sum_j a_j theta^j) = sum_j (theta a_j + v eis_2 a_j)
    theta^j + a_j theta^(j+1), with each eis_w scaled to integers over its
    own denominator (12 eis_2 = -1 + 24 sum sigma_1(n) q^n, 720 eis_4 = E_4,
    30240 eis_6 = -E_6).  Every product is an integer convolution, and each
    step multiplies the shared denominator by the denominator of v/12 or of
    a kappa's ratio.
    """
    d = len(kappas) + 1
    e2 = eisenstein(2, order)
    # powers[i] = (den, A) of D^i, starting from the identity
    powers = [(1, [[1] + [0] * (order - 1)])]
    for i in range(d):
        den, ops = powers[-1]
        v = weight + 2 * i
        s = e2.den * v.denominator  # v eis_2 = v.numerator * e2.nums / s
        nxt = [[0] * order for _ in range(len(ops) + 1)]
        for j, a in enumerate(ops):
            e2a = _convolve(e2.nums, a, order)
            nxt[j] = [
                z + s * n * x + v.numerator * y
                for n, (z, x, y) in enumerate(zip(nxt[j], a, e2a))
            ]
            nxt[j + 1] = [z + s * x for z, x in zip(nxt[j + 1], a)]
        powers.append((den * s, nxt))
    den, op = powers[d]
    # + kappa_t eis_w D^(d-2-t), with eis_w = eis.nums / eis.den
    for t, (kappa, w) in enumerate(zip(kappas, _FORMS)):
        low_den, low = powers[d - 2 - t]
        eis = eisenstein(w, order)
        ratio = Fraction(kappa) * den / (eis.den * low_den)
        op = [[ratio.denominator * x for x in a] for a in op]
        den *= ratio.denominator
        for j, a in enumerate(low):
            op[j] = [x + ratio.numerator * y for x, y in zip(op[j], _convolve(eis.nums, a, order))]
    g = math.gcd(*(x for a in op for x in a))
    return [[x // g for x in a] for a in op]


def mlde_solutions(weight, exponents, order: int) -> list[QExpansion]:
    """The solutions q^x (1 + O(q)), one per x in ``exponents``, of the monic
    equation of order len(exponents) acting at ``weight`` whose indicial
    roots are ``exponents``.

    With the operator written as sum_j a_j(q) theta^j and indicial
    polynomial P(x) = sum_j a_j[0] x^j, the coefficients of the solution
    starting at x are c_0 = 1 and

        c_n = -sum_{m<n} sum_j a_j[n-m] (x+m)^j c_m / P(x+n),

    O(N^2) operations for N coefficients, all on ints.  With a_j = A_j/den
    and x = p/r, one Horner table cols[s] = (A_j[s] r^(top-j)) for j = top
    down to 0 gives both polynomials on integers: cols[n-m] at p+mr is
    b = den r^top sum_j a_j[n-m] (x+m)^j, and cols[0] at p+nr is
    den r^top P(x+n), so den r^top cancels.  The solution is held as
    integers nums[m] over lcd, the lcm of the reduced denominators so far,
    and c_n = -sum_m b nums[m] / (lcd den r^top P(x+n)); when lcd grows,
    nums is rescaled.  Raises DegenerateMldeError when P(x+n) = 0 for some
    n >= 1 (two exponents differ by an integer, so the solution is not
    unique or does not exist as a power series).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    weight = Fraction(weight)
    exponents = [Fraction(x) for x in exponents]
    return _solve_mlde(weight, exponents, _indicial_kappas(weight, exponents), order)


def _solve_mlde(weight: Fraction, exponents: list[Fraction], kappas, order: int) -> list[QExpansion]:
    """``mlde_solutions`` on Fractions, with the equation's kappas given."""
    ops = _theta_form(weight, kappas, order)
    top = len(ops) - 1

    def horner(col, y: int) -> int:
        value = 0
        for c in col:
            value = value * y + c
        return value

    out = []
    for x in exponents:
        p, r = x.numerator, x.denominator
        cols = list(zip(*([c * r ** (top - j) for c in ops[j]] for j in reversed(range(top + 1)))))
        if horner(cols[0], p) != 0:
            raise InternalInconsistencyError(f"{x} is not a root of the indicial polynomial")
        cs = [Fraction(1)]
        nums, lcd = [1], 1  # c_m = nums[m] / lcd
        for n in range(1, order):
            pn = horner(cols[0], p + n * r)
            if pn == 0:
                raise DegenerateMldeError(
                    f"exponents {x} and {x + n} differ by an integer: resonant equation"
                )
            acc = sum(horner(cols[n - m], p + m * r) * c for m, c in enumerate(nums))
            cn = Fraction(-acc, lcd * pn)
            grow = cn.denominator // math.gcd(lcd, cn.denominator)
            if grow > 1:
                nums = [c * grow for c in nums]
                lcd *= grow
            nums.append(cn.numerator * (lcd // cn.denominator))
            cs.append(cn)
        # over lcd, the lcm of the reduced denominators, nums are already canonical
        out.append(_from_ints(x, nums, lcd, tuple(cs)))
    return out
