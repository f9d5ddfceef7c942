"""Tour of the k-dimensional totient family.

phi_k(n) counts k-tuples (a_1, ..., a_k) with 1 <= a_i <= n whose product
and sum are both coprime to n. k = 1 recovers Euler's totient. Every value
below is exact integer arithmetic, cross-checked against an oracle counting from the definition.
"""
from phik import euler_phi, g_k, phi_k, phi_k_nm, phi_k_oracle

print("A small table of phi_k(n):")
print("    n:", " ".join(f"{n:>6}" for n in range(1, 13)))
for k in range(1, 5):
    row = [phi_k(k, n) for n in range(1, 13)]
    print(f"  k={k}:", " ".join(f"{v:>6}" for v in row))

print()
print("k = 1 is Euler's totient:")
print("  phi_1(n) == phi(n) for n <= 100:",
      all(phi_k(1, n) == euler_phi(n) for n in range(1, 101)))

print()
print("The zero pattern is exact: phi_k(n) = 0 iff k and n are both even.")
print("  phi_2(4) =", phi_k(2, 4), "   phi_2(9) =", phi_k(2, 9),
      "   phi_3(4) =", phi_k(3, 4))

print()
print("Closed form vs. literal tuple enumeration at (k, n) = (3, 20):")
print("  closed:", phi_k(3, 20), "  oracle:", phi_k_oracle(3, 20))

print()
print("Two-parameter variant phi_k(n, m), sum tested modulo a divisor m of n:")
for m in (1, 3, 5, 15):
    print(f"  phi_2(15, m={m:>2}) =", phi_k_nm(2, 15, m))
print("  m = n recovers phi_2(15) =", phi_k(2, 15))

print()
print("The convolution factor g_k defined by phi_k = id_k * g_k vanishes on")
print("squares of primes and is negative at primes (k >= 2):")
print("  g_2 at 2, 3, 4, 5, 6, 9:", [g_k(2, n) for n in (2, 3, 4, 5, 6, 9)])
