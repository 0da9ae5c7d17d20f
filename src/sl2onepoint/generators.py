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

The hypergeometric construction eta^E * q^c * v^c * pFq(1728/j) per
component (Franc-Mason style), with the minimal-exponent normal form
{0, 1/4} resp. {0, (k+1)/(4(k+2)), 1/2} fixing all parameters, is kept
as ``hypergeometric_generator``.  It costs O(N^3) and serves as the
independent oracle for the recurrence; its powers of 1728/j, each cut to
the terms that reach the truncated sum, and the sum are held as integers
over one denominator.  It drops the irrational constants 1728^a coming
from powers of J by the same normalisation.

The module also verifies the equations on the components, and checks the
computed expansions against the published five-coefficient tables
embedded in ``data/published_tables.json``.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DegenerateMldeError, InternalInconsistencyError, UnsupportedDimensionError
from .qseries import (
    QExpansion,
    _convolve,
    _from_ints,
    eisenstein,
    eta_power,
    j_inverse,
    modular_derivative,
    monomial,
    one,
    series_pow_rational,
)
from .sl2data import form_weight, leading_exponents, rep_dimension, weight_lower_bound, xi_set

__all__ = [
    "HypergeomSpec",
    "VvmfVector",
    "hypergeom_series",
    "cyclic_generator",
    "hypergeometric_generator",
    "minimal_exponents",
    "generator_weight",
    "mlde_equation",
    "mlde_solutions",
    "mlde_residual",
    "FixtureEntry",
    "FixtureReport",
    "table_fixture_check",
]

# weights w of the forms eis_w that the kappas multiply, in order
_FORMS = (4, 6)
_MAX_ORDER = len(_FORMS) + 1  # an equation of order d uses d - 1 forms


class HypergeomSpec(namedtuple("HypergeomSpec", "upper lower")):
    """Parameters of a generalised hypergeometric series pFq, held as
    tuples of Fractions."""

    __slots__ = ()

    def __new__(cls, upper, lower):
        upper, lower = tuple(map(Fraction, upper)), tuple(map(Fraction, lower))
        for b in lower:
            if b.denominator == 1 and b <= 0:
                raise ValueError(f"lower parameter {b} is a non-positive integer")
        return super().__new__(cls, upper, lower)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def coefficients(self, count: int) -> list[Fraction]:
        """First ``count`` series coefficients from the rising-factorial
        recurrence c_{n+1}/c_n = prod(a_i+n) / (prod(b_j+n) * (n+1))."""
        cs = [Fraction(1)]
        for n in range(count - 1):
            num, den = cs[-1].numerator, cs[-1].denominator * (n + 1)
            for a in self.upper:  # times a + n
                num, den = num * (a.numerator + n * a.denominator), den * a.denominator
            for b in self.lower:  # over b + n
                num, den = num * b.denominator, den * (b.numerator + n * b.denominator)
            cs.append(Fraction(num, den))
        return cs


def hypergeom_series(spec: HypergeomSpec, arg: QExpansion, order: int) -> QExpansion:
    """The composition F(arg) as a truncated series.

    ``arg`` must vanish at q = 0 (strictly positive leading exponent) so
    that only finitely many powers land below the truncation order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    arg = arg.canonical()
    if arg.is_zero():
        return one(order)
    if arg.leading_exponent <= 0:
        raise ValueError(
            f"composition needs a strictly positive leading exponent, got {arg.leading_exponent}"
        )
    if arg.leading_exponent.denominator != 1:
        raise ValueError("composition argument must live in integer exponents")
    if arg.order < order:
        raise ValueError(
            f"argument is only valid to order {arg.order}, cannot compose to order {order}"
        )
    step = int(arg.leading_exponent)
    nterms = (order - 1) // step + 1
    # c_n arg^n = r_n q^(n step) P_n with r_n = c_n / arg.den^n and integer
    # P_n, so the sum is held as integers over the lcm of the r_n's denominators
    ratios = [c / arg.den**n for n, c in enumerate(spec.coefficients(nterms))]
    den = math.lcm(*(r.denominator for r in ratios))
    total = [den] + [0] * (order - 1)
    power = [1]
    for n in range(1, nterms):
        # arg^n starts at q^(n step): only its first order - n step terms reach the sum
        power = _convolve(power, arg.nums, order - n * step)
        scale = ratios[n].numerator * (den // ratios[n].denominator)
        for i, x in enumerate(power, n * step):
            total[i] += scale * x
    return _from_ints(Fraction(0), total, den)


class VvmfVector(NamedTuple):
    """A vector of trace-function expansions, one component per label mu
    in the self-coupling set of (level, weight_label)."""

    level: int
    weight_label: int
    components: tuple[tuple[int, QExpansion], ...]
    form_weight: Fraction

    @property
    def dimension(self) -> int:
        return len(self.components)

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


def minimal_exponents(k: int, lam: int) -> list[Fraction]:
    """Leading exponents of the eta-rescaled generator, the minimal
    admissible set of the shifted multiplier pair: those of (k, lam) less
    the smallest."""
    _dimension(k, lam)
    exps = leading_exponents(k, lam)
    return [x - exps[0] for x in exps]


def generator_weight(k: int, lam: int) -> Fraction:
    """Weight of the eta-rescaled cyclic generator: the weight bound
    12*(sum)/d + 1 - d on its minimal exponents."""
    return weight_lower_bound(minimal_exponents(k, lam))


def _component_factors(lam_i: Fraction, others: list[Fraction]) -> tuple[Fraction, HypergeomSpec]:
    """J-exponent and hypergeometric parameters of one component of the
    rescaled generator, from its minimal exponents.

    Returns (c, spec) for the component eta^{2w} * J^{-c} * F(1/J).
    """
    if len(others) == 1:
        delta = lam_i - others[0]
        c = Fraction(6 * delta + 1, 12)
        upper = (c, c + Fraction(1, 3))
        lower = (delta + 1,)
    else:
        o1, o2 = others
        c = Fraction(4 * lam_i - 2 * o1 - 2 * o2 + 1, 6)
        upper = (c, c + Fraction(1, 3), c + Fraction(2, 3))
        lower = (lam_i - o1 + 1, lam_i - o2 + 1)
    return c, HypergeomSpec(upper, lower)


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
    weight = form_weight(k, lam)
    if d == 1:
        comps = [eta_power(Fraction(3 * k, 2), order)]
    else:
        comps = mlde_solutions(weight, exps, order)
    for comp, exponent in zip(comps, exps):
        _check_component(comp, exponent)
    return VvmfVector(k, lam, tuple(zip(mus, comps)), weight)


def hypergeometric_generator(k: int, lam: int, order: int) -> VvmfVector:
    """The generator in dimension 2 or 3 by the hypergeometric construction.

    Each component is eta^E * q^c * v^c * F(1/J), where v is the
    unit-constant part of 1728/(jq) and every factor has leading
    coefficient 1, so the result is already normalised.  The repeated
    full-series products in ``hypergeom_series`` make this O(N^3); it is
    the independent oracle for ``cyclic_generator``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if _dimension(k, lam) == 1:
        raise UnsupportedDimensionError("the hypergeometric construction covers dimensions 2-3")
    mus = xi_set(k, lam)
    exps = leading_exponents(k, lam)
    weight = form_weight(k, lam)

    lambdas = minimal_exponents(k, lam)
    w = generator_weight(k, lam)
    mu_min = exps[0]
    eta_expo = 24 * mu_min + 2 * w
    eta_part = eta_power(eta_expo, order)
    jinv = j_inverse(order)
    v_unit = _from_ints(Fraction(0), jinv.nums, jinv.den * 1728)

    components = []
    for i, (mu, lam_i) in enumerate(zip(mus, lambdas)):
        others = [x for j, x in enumerate(lambdas) if j != i]
        c, spec = _component_factors(lam_i, others)
        series = hypergeom_series(spec, jinv, order)
        comp = eta_part * monomial(c, order) * series_pow_rational(v_unit, c) * series
        _check_component(comp, exps[i])
        components.append((mu, comp))
    return VvmfVector(k, lam, tuple(components), weight)


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


def mlde_equation(k: int, lam: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(weight, kappas) of the monic equation annihilating every component
    of the (k, lam) generator in dimension 2 or 3.

    The equation acts at the generator's weight.  The eta factor changes
    nothing, because D_{w+r/2}(eta^r f) = eta^r D_w f: the eta-rescaled
    components solve the same equation at weight w.
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
    ops = _theta_form(weight, _indicial_kappas(weight, exponents), order)
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


def _apply_mlde(f: QExpansion, weight: Fraction, kappas) -> QExpansion:
    """The monic equation with ``kappas`` applied to ``f`` at ``weight`` by
    repeated modular derivatives; valid to len(kappas)+1 orders less."""
    d = len(kappas) + 1
    valid = f.order - d
    ds = [f]
    for i in range(d):
        ds.append(modular_derivative(ds[-1], weight + 2 * i))
    res = ds[d]
    for t, (kappa, w) in enumerate(zip(kappas, _FORMS)):
        res = res + kappa * (eisenstein(w, f.order) * ds[d - 2 - t]).truncate(valid)
    return res


def mlde_residual(k: int, lam: int, order: int, gen: VvmfVector | None = None) -> list[QExpansion]:
    """Residuals of the monic modular differential equation on the
    generator components; identically zero when the construction is
    correct.  ``gen`` is ``cyclic_generator(k, lam, order)`` when the
    caller already holds it; otherwise it is built here.

    The equation is ``mlde_equation(k, lam)``: its kappas come from the
    indicial roots in closed form, not from any component, so every
    component is checked from its leading term up.  It is applied by
    repeated modular derivatives, not by the theta-form the recurrence
    solves.  Dimension 2 has kappa_1 = -25/4, from the exponents {0, 1/4}
    after removing the eta factor.
    """
    weight, kappas = mlde_equation(k, lam)
    if order < 4:
        raise ValueError("order must be >= 4")
    if gen is None:
        gen = cyclic_generator(k, lam, order)
    return [_apply_mlde(comp, weight, kappas) for _, comp in gen.components]


# -- published-table fixtures -----------------------------------------


class FixtureEntry(NamedTuple):
    level: int
    mu: int
    expected_exponent: Fraction
    got_exponent: Fraction
    expected_coeffs: tuple[Fraction, ...]
    got_coeffs: tuple[Fraction, ...]
    # the level's monic equation applied to the published series, from q^0
    published_residual: tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return (
            self.expected_exponent == self.got_exponent
            and self.expected_coeffs == self.got_coeffs
        )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "mu": self.mu,
            "passed": self.passed,
            "expected_exponent": str(self.expected_exponent),
            "got_exponent": str(self.got_exponent),
            "expected_coeffs": [str(c) for c in self.expected_coeffs],
            "got_coeffs": [str(c) for c in self.got_coeffs],
            "published_residual": [str(c) for c in self.published_residual],
        }


class FixtureReport(NamedTuple):
    table: str
    entries: tuple[FixtureEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "all_passed": self.all_passed,
            "entries": [e.to_json() for e in self.entries],
        }


@lru_cache(maxsize=None)
def _published_tables() -> tuple:
    """(table, level, ((mu, series), ...)) for each level of both tables,
    sorted.  The file is parsed once per process; callers share only
    immutable values."""
    from importlib import resources

    tables = json.loads(resources.files("sl2onepoint").joinpath("data/published_tables.json").read_text())
    return tuple(
        (which, int(k), tuple(sorted(
            (int(mu), QExpansion(Fraction(f["exponent"]), [Fraction(c) for c in f["coeffs"]]))
            for mu, f in comps.items()
        )))
        for which in ("table1", "table2")
        for k, comps in sorted(tables[which].items(), key=lambda kv: int(kv[0]))
    )


def table_fixture_check(which: str) -> FixtureReport:
    """Compare computed generators against the embedded five-coefficient
    expansion fixtures.  ``which`` is 'table1' (two components, odd k) or
    'table2' (three components, even k).  Mismatches are reported, not
    raised.  Each entry also carries the residual that the level's monic
    equation leaves on the published series: zero for a series that
    solves it, so a non-zero residual shows the published side at fault."""
    shift = {"table1": 1, "table2": 2}.get(which)
    if shift is None:
        raise ValueError(f"unknown table {which!r}; expected 'table1' or 'table2'")
    entries = []
    for table, k, comps in _published_tables():
        if table != which:
            continue
        gen = cyclic_generator(k, k - shift, 5)
        weight, kappas = mlde_equation(k, k - shift)
        for mu, published in comps:
            got = gen.component(mu)
            entries.append(
                FixtureEntry(
                    level=k,
                    mu=mu,
                    expected_exponent=published.leading_exponent,
                    got_exponent=got.leading_exponent,
                    expected_coeffs=published.coeffs,
                    got_coeffs=got.coeffs[:5],
                    published_residual=_apply_mlde(published, weight, kappas).coeffs,
                )
            )
    return FixtureReport(table=which, entries=tuple(entries))
