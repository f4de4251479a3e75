#!/usr/bin/env python3
"""Orthogonality of matrix elements over the group.

The invariant integral of U^{eta1}_{m m'} conj(U^{eta2}_{n n'}) equals
d_eta * delta_{eta1 eta2} delta_{m n} delta_{m' n'} with d_eta = 2/(2 eta - 1).
The angular integrals are exact selection rules, the radial one is a
polynomial integrated exactly by a Gauss-Legendre rule, and a seeded Monte
Carlo over the raw 3-D measure cross-checks the whole pipeline.
"""
from su11 import (
    OrthoRequest,
    monte_carlo_haar,
    orthogonality_integral,
)

print("diagonal integrals against the formal dimension d_eta = 2/(2 eta - 1):")
for eta in ("1", "3/2", "2", "5/2"):
    req = OrthoRequest(eta, eta, 2, 5, 2, 5)
    res = orthogonality_integral(req)
    print(f"  eta = {eta:>3}: integral = {res.value:.12f},  d_eta = "
          f"{res.formal_dimension} = {float(res.formal_dimension):.12f}")

print("\ndifferent labels with matching index offsets (selected, still zero):")
for case in [("2", "1", 0, 0, 1, 1), ("3", "1", 1, 2, 3, 4), ("5/2", "3/2", 0, 3, 1, 4)]:
    res = orthogonality_integral(OrthoRequest(*case))
    print(f"  {case}: {res.value:+.3e} (selected = {res.angular_selected})")

print("\nfailed selection short-circuits to exact zero:")
res = orthogonality_integral(OrthoRequest("1", "3/2", 0, 0, 0, 0))
print("  value:", res.value, " selected:", res.angular_selected)

print("\nMonte Carlo cross-check of the raw 3-D integral (500k samples):")
for case, expected in [(("1", "1", 0, 0, 0, 0), 2.0), (("2", "1", 0, 0, 1, 1), 0.0)]:
    est = monte_carlo_haar(OrthoRequest(*case), 500_000, seed=11)
    print(f"  {case}: {est.value:+.4f} +- {est.stderr:.4f}  (expected {expected})")
