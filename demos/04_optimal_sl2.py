"""Optimal SL2-homomorphisms: construction, verification, limits.

Given a nilpotent X with all Jordan blocks of size at most p, there is
a homomorphism SL_2 -> GL_n sending the standard upper unipotent
x1(t) to eps(tX) and restricting on the diagonal torus to the
associated cocharacter of X.  It is assembled blockwise from
symmetric-power representations in the divided-power basis and then
conjugated onto a Jordan basis of X.
"""

import random

from optsl2 import (Fp, Mat, QQ, associated_cocharacter, build_optimal,
                    Cocharacter, d_hom, deform_to_levi, eps_exp, eval_hom,
                    gcr_check_hom, levi_containment_check,
                    rep_from_partition, sym_power_rep, sl2_x1, sl2_torus,
                    verify_limit, verify_optimal)
from optsl2.matrices import inverse, random_invertible

# the divided-power symmetric square: note the t^2/2 entry
g = sl2_x1(QQ, 1)
S = sym_power_rep(2, g)
print("sym^2 of x1(1) over Q, divided-power basis:")
for i in range(3):
    print("   ", [str(S[i, j]) for j in range(3)])
print()

# build for a conjugated (3,1) nilpotent over F_5
dom = Fp(5)
rnd = random.Random(3)
c = random_invertible(dom, 4, rnd)
X = c * rep_from_partition(dom, (3, 1)) * inverse(c)
phi = build_optimal(X)
print("optimal homomorphism for a hidden (3,1) nilpotent over F_5")
print("  recovered partition:", phi.block_sizes)
print("  d(phi) maps the standard triple onto an sl2-triple through X:")
triple = d_hom(phi)
print("    d(x-direction) == X:", triple.X == X)
print("  phi(x1(t)) == eps(tX) for every t:",
      all(eval_hom(phi, sl2_x1(dom, t)) == eps_exp(X.scale(t))
          for t in range(5)))
report = verify_optimal(phi, X)
print("  full verification:", report)
print()

# the torus restriction, carried by phi, is the associated cocharacter
psi = phi.psi
print("torus restriction equals the associated cocharacter:",
      psi == associated_cocharacter(X).psi)
print("phi(diag(t, 1/t)) at t = 2 equals psi(2):",
      eval_hom(phi, sl2_torus(dom, 2)) == psi.at(2))
print()

# the image lies in the derived group of the Levi of C(X)'s torus,
# and the natural module under the image is semisimple
print("image inside the derived Levi:",
      levi_containment_check(phi).contained)
gcr = gcr_check_hom(build_optimal(rep_from_partition(Fp(3), (2, 1))))
print("semisimplicity for (2,1) over F_3: %s (checked %d subspaces)"
      % (gcr.semisimple, gcr.n_subspaces))
print()

# degenerating along a cocharacter: push the homomorphism into a Levi
dom = Fp(3)
X = Mat.unit(dom, 4, 4, 0, 1) + Mat.unit(dom, 4, 4, 2, 3) \
    - Mat.unit(dom, 4, 4, 0, 3)
gamma = Cocharacter.diagonal(dom, (1, 1, 0, 0))
phi = build_optimal(X)
lim = deform_to_levi(phi, gamma)
print("limit of a (2,2) homomorphism along gamma = (1,1,0,0):")
print("  X = E12 + E34 - E14 degenerates to X0 = E12 + E34:",
      lim.X0 == Mat.unit(dom, 4, 4, 0, 1) + Mat.unit(dom, 4, 4, 2, 3))
print("  limit verification:", verify_limit(lim))
