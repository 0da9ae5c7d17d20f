"""Cyclic generators of the holomorphic form spaces in dimensions 1-3.

A single vector of q-series generates, under the modular-differential-
operator algebra, every form attached to insertions from the simple
module with finite weight lam = k, k-1 or k-2.  Dimension one is a pure
eta power.  In dimensions two and three every component solves one monic
modular differential equation, D^2 + kappa_1 eis_4 or
D^3 + kappa_1 eis_4 D + kappa_2 eis_6, acting at the generator's weight.
Its indicial roots are the components' leading exponents, which fix the
kappas in closed form.  Written as sum_j a_j(q) theta^j with
theta = q d/dq, the equation yields each component one coefficient at a
time (``mlde_solutions``), in O(N^2) exact operations for N coefficients.
No two exponents differ by an integer, so each component is the unique
solution with leading coefficient 1; that normalisation, which an
intertwiner rescaling always permits, keeps the pipeline in exact
rationals.

The hypergeometric construction eta^E * q^c * v^c * pFq(1728/j) per
component (Franc-Mason style), with the minimal-exponent normal form
{0, 1/4} resp. {0, (k+1)/(4(k+2)), 1/2} fixing all parameters, is kept
as ``hypergeometric_generator``.  It costs O(N^3) and serves as the
independent oracle for the recurrence.  It drops the irrational
constants 1728^a coming from powers of J by the same normalisation.

The module also verifies the equations on the components, and checks the
computed expansions against the published five-coefficient tables
embedded in ``data/published_tables.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import DegenerateMldeError, InternalInconsistencyError, UnsupportedDimensionError
from .qseries import (
    QExpansion,
    eisenstein,
    eta_power,
    fraction_from_str,
    fraction_to_str,
    j_inverse,
    modular_derivative,
    monomial,
    one,
    series_pow_rational,
    zero,
)
from .sl2data import conformal_weight, leading_exponents, xi_set

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


@dataclass(frozen=True)
class HypergeomSpec:
    """Parameters of a generalised hypergeometric series pFq."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        for b in self.lower:
            if b.denominator == 1 and b <= 0:
                raise ValueError(f"lower parameter {b} is a non-positive integer")

    def coefficients(self, count: int) -> list[Fraction]:
        """First ``count`` series coefficients from the rising-factorial
        recurrence c_{n+1}/c_n = prod(a_i+n) / (prod(b_j+n) * (n+1))."""
        cs = [Fraction(1)]
        for n in range(count - 1):
            c = cs[-1]
            for a in self.upper:
                c *= a + n
            for b in self.lower:
                c /= b + n
            cs.append(c / (n + 1))
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
    coeffs = spec.coefficients(nterms)
    total = one(order)
    power = one(min(arg.order, order))
    for n in range(1, nterms):
        power = power * arg
        total = total + coeffs[n] * power
    return total.truncate(order)


@dataclass(frozen=True)
class VvmfVector:
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
            "form_weight": fraction_to_str(self.form_weight),
            "components": [
                {"mu": mu, "series": series.to_json()} for mu, series in self.components
            ],
        }


def minimal_exponents(k: int, lam: int) -> list[Fraction]:
    """Leading exponents of the eta-rescaled generator: the minimal
    admissible set of the shifted multiplier pair."""
    d = k - lam + 1
    if d == 1:
        return [Fraction(0)]
    if d == 2:
        return [Fraction(0), Fraction(1, 4)]
    if d == 3:
        return [Fraction(0), Fraction(k + 1, 4 * (k + 2)), Fraction(1, 2)]
    raise UnsupportedDimensionError(f"no generator formula for dimension {d}")


def generator_weight(k: int, lam: int) -> Fraction:
    """Weight of the eta-rescaled cyclic generator: 12*(sum)/d + 1 - d on
    its minimal exponents."""
    exps = minimal_exponents(k, lam)
    d = len(exps)
    return Fraction(12) * sum(exps) / d + 1 - d


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
    if not 0 <= lam <= k:
        raise ValueError(f"need 0 <= lambda <= k, got lambda={lam}, k={k}")
    if lam % 2 != 0:
        raise ValueError(f"lambda must be even (no self-couplings otherwise), got {lam}")
    d = k - lam + 1
    if d not in (1, 2, 3):
        raise UnsupportedDimensionError(f"no generator formula for dimension {d}")
    return d


def _form_weight(k: int, lam: int) -> Fraction:
    """Weight h_lam + lam/2 of the (k, lam) generator."""
    return conformal_weight(k, lam) + Fraction(lam, 2)


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
    form_weight = _form_weight(k, lam)
    if d == 1:
        comps = [eta_power(Fraction(3 * k, 2), order)]
    else:
        comps = mlde_solutions(form_weight, exps, order)
    for comp, exponent in zip(comps, exps):
        _check_component(comp, exponent)
    return VvmfVector(k, lam, tuple(zip(mus, comps)), form_weight)


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
    form_weight = _form_weight(k, lam)

    lambdas = minimal_exponents(k, lam)
    w = generator_weight(k, lam)
    mu_min = exps[0]
    eta_expo = 24 * mu_min + 2 * w
    eta_part = eta_power(eta_expo, order)
    jinv = j_inverse(order)
    v_unit = QExpansion(0, tuple(c / 1728 for c in jinv.coeffs), order)

    components = []
    for i, (mu, lam_i) in enumerate(zip(mus, lambdas)):
        others = [x for j, x in enumerate(lambdas) if j != i]
        c, spec = _component_factors(lam_i, others)
        series = hypergeom_series(spec, jinv, order)
        comp = eta_part * monomial(c, order) * series_pow_rational(v_unit, c) * series
        _check_component(comp, exps[i])
        components.append((mu, comp))
    return VvmfVector(k, lam, tuple(components), form_weight)


def _check_component(comp: QExpansion, expected_exponent: Fraction) -> None:
    if comp.leading_exponent != expected_exponent:
        raise InternalInconsistencyError(
            f"component leading exponent {comp.leading_exponent} != expected {expected_exponent}"
        )
    if comp.coeffs[0] != 1:
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
    """(kappa_1,) or (kappa_1, kappa_2) of the monic equation of order
    len(exponents), acting at ``weight``, whose indicial roots are
    ``exponents``.

    D_w sends q^x to (x - w/12) q^x + O(q^{x+1}), so the indicial
    polynomial is prod (x - s_i) + (kappa_1/720) (x - s_0) - kappa_2/30240
    with s_i = w/12 + i/6 (the kappa_2 term and the factor (x - s_0) only
    in order three).  Matching it against prod (x - exponent) forces the
    kappas, provided the exponents sum to the s_i.
    """
    w = Fraction(weight)
    order = len(exponents)
    if order not in (2, 3):
        raise UnsupportedDimensionError(f"monic equations of order 2-3 only, got {order}")
    shifts = [w / 12 + Fraction(i, 6) for i in range(order)]
    diff = [a - b for a, b in zip(_roots_polynomial(exponents), _roots_polynomial(shifts))]
    if diff[order - 1] != 0:
        raise ValueError(f"exponents {exponents} do not sum to {sum(shifts)} as weight {w} needs")
    if order == 2:
        return (720 * diff[0],)
    return 720 * diff[1], -30240 * (diff[0] + diff[1] * shifts[0])


def mlde_equation(k: int, lam: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(weight, kappas) of the monic equation annihilating every component
    of the (k, lam) generator in dimension 2 or 3.

    The equation acts at the generator's weight.  The eta factor changes
    nothing, because D_{w+r/2}(eta^r f) = eta^r D_w f: the eta-rescaled
    components solve the same equation at weight w.
    """
    if _dimension(k, lam) == 1:
        raise UnsupportedDimensionError("differential equations cover dimensions 2-3, got 1")
    weight = _form_weight(k, lam)
    return weight, _indicial_kappas(weight, leading_exponents(k, lam))


def _theta_form(weight: Fraction, kappas, order: int) -> list[QExpansion]:
    """Series a_0, ..., a_d of the monic equation of order d = len(kappas)+1
    written as sum_j a_j(q) theta^j with theta = q d/dq."""
    e2 = eisenstein(2, order)
    # D_v (sum_j a_j theta^j) = sum_j (theta a_j + v eis_2 a_j) theta^j + a_j theta^(j+1)
    powers = [[one(order)]]
    for i in range(len(kappas) + 1):
        prev = powers[-1]
        v = weight + 2 * i
        nxt = [zero(order)] * (len(prev) + 1)
        for j, a in enumerate(prev):
            theta_a = QExpansion(0, tuple(n * c for n, c in enumerate(a.coeffs)), order)
            nxt[j] = nxt[j] + theta_a + v * (e2 * a)
            nxt[j + 1] = nxt[j + 1] + a
        powers.append(nxt)
    op = list(powers[-1])
    for j, a in enumerate(powers[-3]):
        op[j] = op[j] + kappas[0] * (eisenstein(4, order) * a)
    if len(kappas) == 2:
        op[0] = op[0] + kappas[1] * eisenstein(6, order)
    return op


def mlde_solutions(weight, exponents, order: int) -> list[QExpansion]:
    """The solutions q^x (1 + O(q)), one per x in ``exponents``, of the monic
    equation of order len(exponents) acting at ``weight`` whose indicial
    roots are ``exponents``.

    With the operator written as sum_j a_j(q) theta^j and indicial
    polynomial P(x) = sum_j a_j[0] x^j, the coefficients of the solution
    starting at x are c_0 = 1 and

        c_n = -sum_{m<n} sum_j a_j[n-m] (x+m)^j c_m / P(x+n),

    O(N^2) operations for N coefficients.  Raises DegenerateMldeError when
    P(x+n) = 0 for some n >= 1 (two exponents differ by an integer, so the
    solution is not unique or does not exist as a power series).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    weight = Fraction(weight)
    exponents = [Fraction(x) for x in exponents]
    kappas = _indicial_kappas(weight, exponents)
    ops = [a.coeffs for a in _theta_form(weight, kappas, order)]
    # a_top = 1, so a shift s >= 1 sees only a_0 .. a_{top-1}: scale those
    # to integers over one denominator and keep the inner sum off Fraction
    top = len(ops) - 1
    den = math.lcm(*(c.denominator for a in ops[:top] for c in a))
    lower = [[int(c * den) for c in a] for a in ops[:top]]

    def indicial(y: Fraction) -> Fraction:
        value = Fraction(1)
        for a in reversed(ops[:top]):
            value = value * y + a[0]
        return value

    out = []
    for x in exponents:
        if indicial(x) != 0:
            raise InternalInconsistencyError(f"{x} is not a root of the indicial polynomial")
        # with x + m = (p + m r)/r, sum_j a_j[s] (x+m)^j = b / (den r^(top-1))
        p, r = x.numerator, x.denominator
        scaled = [[c * r ** (top - 1 - j) for c in a] for j, a in enumerate(lower)]
        cs = [Fraction(1)]
        for n in range(1, order):
            pn = indicial(x + n)
            if pn == 0:
                raise DegenerateMldeError(
                    f"exponents {x} and {x + n} differ by an integer: resonant equation"
                )
            acc = Fraction(0)
            for m in range(n):
                y, s = p + m * r, n - m
                b = 0
                for a in reversed(scaled):
                    b = b * y + a[s]
                if b:
                    acc += b * cs[m]
            cs.append(-acc / (den * r ** (top - 1) * pn))
        out.append(QExpansion(x, cs, order))
    return out


def _apply_mlde(f: QExpansion, weight: Fraction, kappas) -> QExpansion:
    """The monic equation with ``kappas`` applied to ``f`` at ``weight`` by
    repeated modular derivatives; valid to len(kappas)+1 orders less."""
    order = len(kappas) + 1
    valid = f.order - order
    ds = [f]
    for i in range(order):
        ds.append(modular_derivative(ds[-1], weight + 2 * i))
    res = ds[order] + kappas[0] * (eisenstein(4, f.order) * ds[order - 2]).truncate(valid)
    if order == 3:
        res = res + kappas[1] * (eisenstein(6, f.order) * f).truncate(valid)
    return res


def mlde_residual(k: int, lam: int, order: int) -> list[QExpansion]:
    """Residuals of the monic modular differential equation on the
    generator components; identically zero when the construction is
    correct.

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
    gen = cyclic_generator(k, lam, order)
    return [_apply_mlde(comp, weight, kappas) for _, comp in gen.components]


# -- published-table fixtures -----------------------------------------


@dataclass(frozen=True)
class FixtureEntry:
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
            "expected_exponent": fraction_to_str(self.expected_exponent),
            "got_exponent": fraction_to_str(self.got_exponent),
            "expected_coeffs": [fraction_to_str(c) for c in self.expected_coeffs],
            "got_coeffs": [fraction_to_str(c) for c in self.got_coeffs],
            "published_residual": [fraction_to_str(c) for c in self.published_residual],
        }


@dataclass(frozen=True)
class FixtureReport:
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


def _load_tables() -> dict:
    text = resources.files("sl2onepoint").joinpath("data/published_tables.json").read_text()
    return json.loads(text)


def table_fixture_check(which: str) -> FixtureReport:
    """Compare computed generators against the embedded five-coefficient
    expansion fixtures.  ``which`` is 'table1' (two components, odd k) or
    'table2' (three components, even k).  Mismatches are reported, not
    raised.  Each entry also carries the residual that the level's monic
    equation leaves on the published series: zero for a series that
    solves it, so a non-zero residual shows the published side at fault."""
    tables = _load_tables()
    if which not in ("table1", "table2"):
        raise ValueError(f"unknown table {which!r}; expected 'table1' or 'table2'")
    data = tables[which]
    shift = {"table1": 1, "table2": 2}[which]
    entries = []
    for k_str, comps in sorted(data.items(), key=lambda kv: int(kv[0])):
        k = int(k_str)
        gen = cyclic_generator(k, k - shift, 5)
        weight, kappas = mlde_equation(k, k - shift)
        for mu_str, fixture in sorted(comps.items(), key=lambda kv: int(kv[0])):
            mu = int(mu_str)
            got = gen.component(mu)
            published = QExpansion(
                fraction_from_str(fixture["exponent"]),
                [fraction_from_str(c) for c in fixture["coeffs"]],
            )
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
