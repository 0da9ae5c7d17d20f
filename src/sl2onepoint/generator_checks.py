"""Independent constructions that the generators are checked against.

``generators`` builds each cyclic generator by the MLDE recurrence; this
module holds what ``verify`` and the tests compare it with, so that an
``expand`` job compiles none of it.

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
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedDimensionError
from .generators import (
    _FORMS,
    VvmfVector,
    _check_component,
    _dimension,
    cyclic_generator,
    mlde_equation,
)
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
from .sl2data import form_weight, leading_exponents, weight_lower_bound, xi_set

__all__ = [
    "HypergeomSpec",
    "hypergeom_series",
    "hypergeometric_generator",
    "minimal_exponents",
    "generator_weight",
    "mlde_residual",
    "FixtureEntry",
    "FixtureReport",
    "table_fixture_check",
]


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


# -- the monic differential equations, applied by modular derivatives --


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


class FixtureEntry(
    namedtuple(
        "FixtureEntry",
        "level mu expected_exponent got_exponent expected_coeffs got_coeffs published_residual",
    )
):
    """One published series against the computed one: its leading
    exponents and coefficients (Fractions), and ``published_residual``,
    the level's monic equation applied to the published series, from
    q^0."""

    __slots__ = ()

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


class FixtureReport(namedtuple("FixtureReport", "table entries")):
    """The entries (``FixtureEntry``) of one published table."""

    __slots__ = ()

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
    immutable values.  It is read by this module's own loader, next to
    this file, which needs no import (``importlib.resources`` would cost
    a process about 30 ms) and reads from a zip too."""
    path = os.path.join(os.path.dirname(__file__), "data", "published_tables.json")
    tables = json.loads(__loader__.get_data(path))
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
