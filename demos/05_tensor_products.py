#!/usr/bin/env python3
"""Tensor products decompose into a multiplicity-free ladder of summands.

The product of the representations with lowest weights eta1 and eta2
contains exactly the labels eta1 + eta2 + n (n = 0, 1, 2, ...), each once.
The certificate is the compact character identity: the product of two
characters is the Abel sum of the ladder's characters.
"""
from su11 import (
    abel_character_sum,
    abel_character_sum_closed_form,
    character_product,
    decompose,
    multiplicity,
)

print("decomposition of eta1 = 1 times eta2 = 3/2 (first six terms):")
for term in decompose("1", "3/2", 5).terms:
    print(f"  eta3 = {str(term.eta3):>4}   multiplicity {term.multiplicity}")

print("\nmultiplicity lookups:")
for eta3 in ("2", "5/2", "3", "7/2", "9/2"):
    print(f"  m(1, 3/2 -> {eta3:>3}) = {multiplicity('1', '3/2', eta3)}")

theta = 1.3
target = character_product("1", "3/2", theta)
print(f"\ncharacter product at theta = {theta}: {target:+.8f}")
print("damped ladder sums approach it linearly in (1 - r):")
for r, n_terms in ((0.9, 300), (0.99, 3000), (0.999, 30000)):
    s = abel_character_sum("1", "3/2", theta, r, n_terms)
    print(f"  r = {r}: gap {abs(s - target):.3e}")
print("closed form at r = 1, gap:",
      abs(abel_character_sum_closed_form("1", "3/2", theta, 1.0) - target))
