"""Reverse engineering: from a target sequence back to degree weights.

Instead of fixing a tree family and computing its sequence, pick the
sequence first and ask which degree weights would produce it.  When every
recovered weight is non-negative the sequence has a combinatorial meaning,
and re-solving the family equation reproduces it exactly.
"""
from fractions import Fraction
from math import factorial

from inctrees import family_from_parameters, reverse_engineer, round_trip_check

# (2n)! counts something: T(z) = 1/(1-z^2) - 1 leads to finitely many
# positive weights, i.e. a weighted 3-ary tree family.
target = [factorial(2 * n) for n in range(1, 9)]
report = reverse_engineer(target)
print("target (2n)!:", target[:4], "...")
print("  phi =", report.phi)
print("  admissible:", report.admissible)
print("  round trip:", round_trip_check(report))

# An inadmissible target: a negative weight appears, so no family exists.
report = reverse_engineer([1, 3, 1, 1])
print("\ntarget (1, 3, 1, 1):")
print("  phi =", report.phi)
print("  admissible:", report.admissible, "- first violation at phi_%s" % report.first_violation)

# The two-parameter-case family C(1 - (1 - A z^2)^B): closed-form weights
# against the generic reverse-engineering pipeline.
fam = family_from_parameters(1, Fraction(-1, 2), -1, 8)
print("\nparametric family A=1, B=-1/2, C=-1 (case: %s):" % fam.case)
print("  T_n    =", [int(t) for t in fam.target[:5]], "...")
print("  phi    =", fam.phi_closed)
print("  pipeline agrees with closed form:", fam.match)
