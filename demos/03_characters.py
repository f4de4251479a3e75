#!/usr/bin/env python3
"""Characters: closed forms versus regularized trace sums.

Hyperbolic classes ((Re alpha)^2 > 1) have a real closed-form character;
elliptic classes get a complex one tied to the compact subgroup.  Neither
diagonal series converges absolutely, so both are summed with an Abel
damping factor r and compared against the closed forms as r -> 1.
"""
import math

from su11 import (
    abel_trace,
    abel_trace_closed_form,
    character,
    character_compact,
    damped_trace_sum,
    from_cartan,
)

print("hyperbolic class, Re(alpha) = cosh(1), eta = 1:")
g = from_cartan(2.0, 0.0, 0.0)
closed = character("1", g)
print("  closed form:", closed.value, " regime:", closed.regime)
for r in (0.9, 0.99, 0.999):
    s = damped_trace_sum("1", g, r, 30_000)
    print(f"  damped diagonal sum, r = {r}: {s.real:+.8f}  (gap {abs(s - closed.value):.2e})")

print("\nelliptic class h(theta), theta = 2.0, eta = 3/2:")
chi = character_compact("3/2", 2.0)
print("  closed form:", chi)
for r in (0.9, 0.99, 0.999):
    s = abel_trace("3/2", 2.0, r, 30_000)
    print(f"  damped sum, r = {r}: {s:+.8f}  (gap {abs(s - chi):.2e})")
limit = abel_trace_closed_form("3/2", 2.0, 1.0)
print("  closed form at r = 1:", limit, " gap:", abs(limit - chi))

print("\nfrozen values: chi(h(pi)) at eta = 1 and 3/2:")
print("  ", character_compact("1", math.pi), character_compact("3/2", math.pi))
