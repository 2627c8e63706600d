"""
Certifying the pair-deliberation bias bound
===========================================

A deliberating pair averages its two members' normalized biases and picks
the first alternative whenever the sum is nonpositive. How large can the
mean bias of a single voter be if the pair still picks the first
alternative at least half the time? This script solves that non-convex
program to certified global optimality and checks the answer against the
known extremal distribution.
"""

import math

from delib import THETA2, solve_theta2
from delib.averaging import audit_distribution

# solve max E[D] over distributions on [-1, 1] with P[D1 + D2 <= 0] >= 1/2
res = solve_theta2()
print(f"certified value : {res.value:.10f}")
print(f"closed form     : {THETA2:.10f}  (sqrt(2) - 1)")
print(f"gap             : {res.value - THETA2:.2e}")

# the witness puts mass p on -1 and the rest on +1, with p = 1 - 1/sqrt(2)
opt = res.per_case[0]
print(f"incumbent point : {opt.point}")
print(f"expected p      : {1 - 1/math.sqrt(2):.10f}")

# audit the witness by exact enumeration of the pair outcome
pk = audit_distribution(res.incumbent, 2)
print(f"exact win prob  : {pk:.10f}  (needs >= 1/2)")
print(f"status          : {opt.status} after {opt.boxes} boxes")
