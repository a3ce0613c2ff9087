"""Exact-arithmetic toolkit for multi-unit random assignment.

Arithmetic is exact and floats are refused: an assignment is integer rows
over one common denominator, and a ``fractions.Fraction`` is built only for a
value a caller reads or in the ex-post hull LP, the one ``Fraction`` solver.
The package bundles five assignment rules (uniform, fixed-priority serial
dictatorship, random priority, one-at-a-time eating, multi-unit eating),
stochastic-dominance and lexicographic comparisons, efficiency / fairness /
incentive checkers with certificates (ex-post efficiency by an exact
feasibility simplex), manipulation search, and a sweep harness with a CLI
front-end.

The package binds no names of its own: import each name from the module
that defines it (``mudra.rules``, ``mudra.harness``, ...), so importing one
module loads only that module and what it imports.
"""
