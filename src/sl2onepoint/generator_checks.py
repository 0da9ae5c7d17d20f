"""Independent constructions that the generators are checked against.

``generators`` builds each cyclic generator by the MLDE recurrence; this
module holds what ``verify`` and the tests compare it with, so that an
``expand`` job compiles none of it.

The hypergeometric construction eta^E * q^c * v^c * pFq(1728/j) per
component (Franc-Mason style), with the minimal-exponent normal form
{0, 1/4} resp. {0, (k+1)/(4(k+2)), 1/2} fixing all parameters, is kept
as ``hypergeometric_generator``, the independent oracle for the
recurrence.  Its powers of 1728/j, each cut to the terms that reach the
truncated sum, cost O(N^3) and are built once per order, for every
component of every generator; each component's sum then costs O(N^2),
held as integers over one denominator.  It drops the irrational
constants 1728^a coming from powers of J by the same normalisation.

The module also verifies the equations on the components, applying them
by modular derivatives on integer lists and not by the theta-form the
recurrence solves, and checks the computed expansions against the
published five-coefficient tables embedded in
``data/published_tables.json``.
"""

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
    mlde_equation,
)
from .qseries import (
    QExpansion,
    _convolve,
    _from_ints,
    eisenstein,
    eta_power,
    j_inverse,
    monomial,
    one,
    series_pow_rational,
)
from .repanalysis import weight_lower_bound
from .sl2data import leading_exponents, xi_set

__all__ = [
    "HypergeomSpec",
    "hypergeom_series",
    "hypergeometric_generator",
    "minimal_exponents",
    "generator_weight",
    "mlde_residual",
    "FixtureEntry",
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

    def _integer_coefficients(self, count: int) -> tuple[list[int], list[int]]:
        """(nums, dens) with c_n = nums[n]/dens[n], not reduced: the same
        recurrence on ints, each parameter over its own denominator, so
        that dens[n] divides dens[n+1]."""
        upper = [(a.numerator, a.denominator) for a in self.upper]
        lower = [(b.numerator, b.denominator) for b in self.lower]
        nums, dens = [1], [1]
        for n in range(count - 1):
            num, den = nums[-1], dens[-1] * (n + 1)
            for p, r in upper:  # times a + n
                num, den = num * (p + n * r), den * r
            for p, r in lower:  # over b + n
                num, den = num * r, den * (p + n * r)
            nums.append(num)
            dens.append(den)
        return nums, dens


@lru_cache(maxsize=None)
def _powers(arg: QExpansion, order: int) -> tuple:
    """The integer numerators P_n of arg^n = q^(n step) P_n / arg.den^n,
    for n up to (order-1)/step, each cut to the order - n step terms that
    reach a sum truncated at ``order``.  Built once per (arg, order), as
    ``j_inverse(order)`` is: every component of a generator composes with
    the same 1728/j."""
    step = int(arg.leading_exponent)
    powers = [(1,)]
    for n in range(1, (order - 1) // step + 1):
        powers.append(tuple(_convolve(powers[-1], arg.nums, order - n * step)))
    return tuple(powers)


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
    powers = _powers(arg, order)
    top = len(powers) - 1
    # c_n arg^n = nums[n] P_n q^(n step) / (dens[n] arg.den^n), and each of
    # those denominators divides the last, over which the sum is held
    nums, dens = spec._integer_coefficients(top + 1)
    total = [0] * order
    scale = 1  # dens[top] arg.den^top / (dens[n] arg.den^n)
    for n in range(top, -1, -1):
        c = nums[n] * scale
        for i, x in enumerate(powers[n], n * step):
            total[i] += c * x
        if n:
            scale *= dens[n] // dens[n - 1] * arg.den
    return _from_ints(Fraction(0), total, dens[top] * arg.den**top)


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
    coefficient 1, so the result is already normalised.  The powers of
    1728/j that ``hypergeom_series`` sums cost O(N^3), but they are built
    once per order and shared by every component, so each component costs
    O(N^2); it is the independent oracle for ``cyclic_generator``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if _dimension(k, lam) == 1:
        raise UnsupportedDimensionError("the hypergeometric construction covers dimensions 2-3")
    mus = xi_set(k, lam)
    exps = leading_exponents(k, lam)
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
    return VvmfVector(k, lam, tuple(components))


# -- the monic differential equations, applied by modular derivatives --


def _apply_mlde(f: QExpansion, weight: Fraction, kappas) -> QExpansion:
    """The monic equation with ``kappas`` applied to ``f`` at ``weight`` by
    repeated modular derivatives, not by the theta-form the recurrence
    solves; valid to d = len(kappas)+1 orders less.

    It runs on integer lists, to the n = f.order - d terms that stay
    valid.  With f = q^(p/r) X / den, eis_2 = E / e and v = a / b, the
    derivative D_v = theta + v eis_2 gives q^(p/r) X' / (den r e b) with
    X'_m = e b (p + m r) X_m + a r (E X)_m.  Each D^i f is held over its
    own denominator, and the terms D^d f and kappa_t eis_w D^(d-2-t) f are
    summed over the lcm of theirs.
    """
    d = len(kappas) + 1
    n = f.order - d
    if n < 1:
        raise ValueError(f"an equation of order {d} needs a series of order above {d}, got {f.order}")
    lam = f.leading_exponent
    p, r = lam.numerator, lam.denominator
    e2 = eisenstein(2, f.order)
    ds = [(f.nums[:n], f.den)]
    for i in range(d):
        xs, den = ds[-1]
        v = weight + 2 * i
        eb, ar = e2.den * v.denominator, v.numerator * r
        ds.append((
            [eb * (p + m * r) * x + ar * y for m, (x, y) in enumerate(zip(xs, _convolve(e2.nums, xs, n)))],
            den * r * eb,
        ))
    terms = [ds[d]]
    for kappa, w, (xs, den) in zip(kappas, _FORMS, reversed(ds[: d - 1])):
        eis = eisenstein(w, f.order)
        terms.append(([kappa.numerator * y for y in _convolve(eis.nums, xs, n)], den * eis.den * kappa.denominator))
    lcd = math.lcm(*(den for _, den in terms))
    total = [0] * n
    for xs, den in terms:
        scale = lcd // den
        total = [t + scale * x for t, x in zip(total, xs)]
    return _from_ints(lam, total, lcd)


def mlde_residual(gen: VvmfVector) -> list[QExpansion]:
    """Residuals of the generator's monic modular differential equation on
    its components; identically zero when the construction is correct,
    each valid to d orders fewer than its component.

    The equation is ``mlde_equation(gen.level, gen.weight_label)``: its
    kappas come from the indicial roots in closed form, not from any
    component, so every component is checked from its leading term up.  It
    is applied by repeated modular derivatives on integer lists
    (``_apply_mlde``), not by the theta-form the recurrence solves.
    Dimension 2 has kappa_1 = -25/4, from the exponents {0, 1/4} after
    removing the eta factor.
    """
    weight, kappas = mlde_equation(gen.level, gen.weight_label)
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


def table_fixture_check(which: str, generator) -> tuple:
    """Compare computed generators against the embedded five-coefficient
    expansion fixtures, one ``FixtureEntry`` per published series.
    ``which`` is 'table1' (two components, odd k) or 'table2' (three
    components, even k), and ``generator(k, lam)`` gives the (k, lam)
    generator to at least five terms.  Mismatches are reported, not
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
        gen = generator(k, k - shift)
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
    return tuple(entries)
