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
  generators in dimensions 1-3, their differential equations, and the
  published expansion fixtures.
- :mod:`sl2onepoint.bgg` -- truncated two-variable characters of simple
  highest-weight modules via the BGG resolution.
- :mod:`sl2onepoint.repanalysis` -- admissible sets, graded dimensions,
  T-orders, irreducibility and congruence classification.
- :mod:`sl2onepoint.mtc` -- numerical modular-tensor-category data:
  quantum 6j-symbols, F/R/G entries and the generalised modular pairs
  acting on self-coupling spaces.
- :mod:`sl2onepoint.cli` -- the ``sl2onepoint`` command line tool.
"""

__version__ = "0.1.0"
