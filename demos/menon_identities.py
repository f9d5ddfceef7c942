"""Gcd-sum identities over restricted tuples, checked live against oracles.

The centerpiece: summing f(gcd(a_1 + ... + a_k - 1, n)) over the tuples
counted by phi_k(n) equals phi_k(n) times a divisor sum in f. With f = id
the divisor sum collapses to tau(n).
"""
from phik import (
    count_units_in_class,
    gcd_sum_lhs_oracle,
    gcd_sum_rhs,
    jordan_totient,
    nageswara_rao_lhs_oracle,
    phi_k,
    tau,
    verify_sweep,
)

print("Oracle lhs vs closed-form rhs at k = 2, n = 15:")
for f in ("id", "one", "tau", "mu", "pow:2"):
    lhs = gcd_sum_lhs_oracle(2, 15, f)
    rhs = gcd_sum_rhs(2, 15, f)
    print(f"  f = {f:>5}: lhs = {lhs:>6}  rhs = {rhs:>6}  equal = {lhs == rhs}")

print()
print("With f = id the right side is phi_k(n) tau(n):")
for n in (4, 9, 15, 16, 21):
    print(f"  n = {n:>2}: lhs = {gcd_sum_lhs_oracle(2, n, 'id'):>5}"
          f"   phi_2(n) tau(n) = {phi_k(2, n) * tau(n):>5}")

print()
print("Any integer-valued f works, multiplicative or not:")
table = {d: (d * d + 3 * d + 7) % 11 for d in range(1, 25)}
lhs = gcd_sum_lhs_oracle(2, 21, table)
rhs = gcd_sum_rhs(2, 21, table)
print(f"  quadratic-mod-11 table at n = 21: lhs = {lhs}, rhs = {rhs}")

print()
print("Classical k = 1 case (sum of gcd(a - 1, n) over units = phi(n) tau(n)):")
print("  n <= 60 all equal:",
      all(gcd_sum_lhs_oracle(1, n, "id") == phi_k(1, n) * tau(n)
          for n in range(1, 61)))

print()
print("A cousin identity: summing gcd(a_1 - 1, ..., a_k - 1, n)^k over tuples")
print("with gcd(a_1, ..., a_k, n) = 1 gives the Jordan totient times tau:")
for k, n in ((2, 6), (2, 10), (3, 4)):
    lhs = nageswara_rao_lhs_oracle(k, n)
    print(f"  (k, n) = ({k}, {n:>2}): lhs = {lhs:>5}"
          f"   J_k(n) tau(n) = {jordan_totient(k, n) * tau(n):>5}")

print()
print("Underlying counting fact: units in a residue class r mod d (d | n)")
print("number phi(n)/phi(d) when gcd(r, d) = 1, else zero. n = 12, d = 4:")
for r in range(4):
    count, predicted = count_units_in_class(12, 4, r)
    print(f"  r = {r}: counted = {count}, predicted = {predicted}")

print()
report = verify_sweep("menon_general", k_max=2, n_max=30, f="tau")
print(f"Sweep k <= 2, n <= 30, f = tau: checked = {report.checked}, "
      f"failures = {len(report.failures)}")
