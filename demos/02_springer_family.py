"""The Springer isomorphism family in type A.

Any u = 1 + e goes to a1 e + a2 e^2 + ... with a1 invertible; each
choice of coefficients is a GL_n-equivariant bijection between the
unipotent variety and the nilpotent cone, and all choices induce the
same map on orbits.  The inverse comes from reverting the power series,
which terminates because e is nilpotent.
"""

import random

from optsl2 import (Fp, Mat, QQ, SpringerCoeffs, inverse, jordan_block,
                    nilpotent_partition, orbit_bijection_check,
                    partitions_of, rep_from_partition, springer_apply,
                    springer_coeffs_from_value, springer_invert)
from optsl2.matrices import random_invertible

n = 4
e = jordan_block(QQ, n)
u = Mat.identity(QQ, n) + e

print("regular unipotent u = 1 + e in GL_%d(Q)" % n)
print()

f = SpringerCoeffs(QQ, (1, "1/2", "1/6"))
X = springer_apply(f, u)
print("value of e + e^2/2 + e^3/6 at u (a truncated log, up to sign):")
for i in range(n):
    print("   ", [str(X[i, j]) for j in range(n)])
back = springer_invert(f, X)
print("reverting the series recovers u exactly:", back == u)
print()

# two different coefficient systems induce the same orbit map
ca = SpringerCoeffs(Fp(5), (2, 0, 1))
cb = SpringerCoeffs(Fp(5), (1, 3, 3))
print("orbit maps of two coefficient systems over F_5:")
for lam in partitions_of(n):
    up = Mat.identity(Fp(5), n) + rep_from_partition(Fp(5), lam)
    rep = orbit_bijection_check(ca, cb, up)
    print("  partition %s -> %s and %s, equal: %s"
          % (lam, rep.partition_a, rep.partition_b, rep.partitions_agree))
print()

# equivariance: conjugating the input conjugates the output
rnd = random.Random(1)
u5 = Mat.identity(Fp(5), n) + jordan_block(Fp(5), n)
g = random_invertible(Fp(5), n, rnd)
lhs = springer_apply(ca, g * u5 * inverse(g))
rhs = g * springer_apply(ca, u5) * inverse(g)
print("equivariance f(g u g^-1) = g f(u) g^-1:", lhs == rhs)
print()

# the family member is pinned down by its value at one regular element
recovered = springer_coeffs_from_value(u, X)
print("coefficients recovered from the single value f(u):",
      recovered == f)
print()

# the partition is always preserved, so each member permutes nothing:
# it fixes every orbit
print("orbit preservation across all partitions of 5 over F_3:")
ok = True
for lam in partitions_of(5):
    dom = Fp(3)
    up = Mat.identity(dom, 5) + rep_from_partition(dom, lam)
    c = SpringerCoeffs(dom, (1, 2, 0, 2))
    ok = ok and nilpotent_partition(springer_apply(c, up)) == lam
print("  partition(f(u)) == partition(u - 1) everywhere:", ok)
