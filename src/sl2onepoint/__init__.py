"""Torus one-point function data for the simple affine sl(2) vertex
operator algebra at non-negative integer level.

Subpackages:

- :mod:`sl2onepoint.qseries` -- exact truncated q-series ring and the
  standard modular constructors (Eisenstein, eta powers, 1728/j, modular
  derivative).
- :mod:`sl2onepoint.sl2data` -- level/weight bookkeeping: conformal
  weights, fusion rules, intertwiner label sets, T-exponents, multiplier
  systems, holomorphy and saturation classification.
- :mod:`sl2onepoint.generators` -- cyclic vector-valued-modular-form
  generators in dimensions 1-3, built from their differential equations.
- :mod:`sl2onepoint.generator_checks` -- what the generators are checked
  against: the hypergeometric construction, the equations applied by
  modular derivatives, and the published expansion fixtures.
- :mod:`sl2onepoint.bgg` -- truncated two-variable characters of simple
  highest-weight modules via the BGG resolution.
- :mod:`sl2onepoint.repanalysis` -- admissible sets, graded dimensions,
  T-orders, irreducibility and congruence classification.
- :mod:`sl2onepoint.mtc` -- numerical modular-tensor-category data:
  the generalised modular pairs acting on self-coupling spaces, built
  from the level's table and certified by their relations.
- :mod:`sl2onepoint.sixj` -- what ``verify`` and the tests read besides
  the pairs: quantum 6j-symbols, the character S-matrix and the Verlinde
  formula.
- :mod:`sl2onepoint.cli` -- the ``sl2onepoint`` command line tool.
"""

__version__ = "0.1.0"
