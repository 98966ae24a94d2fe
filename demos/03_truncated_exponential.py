"""The truncated exponential and additive one-parameter subgroups.

Over F_p the exponential series only makes sense below the p-th term;
eps(X) = sum_{i<p} X^i/i! is an honest group isomorphism from the
nilpotent matrices with X^[p] = 0 onto the unipotents with
(u-1)^[p] = 0.  General additive homomorphisms G_a -> GL_n are
products of eps factors with Frobenius-twisted parameters, and the
twists can be stripped off exactly.
"""

from optsl2 import (AdditiveHom, Fp, Mat, QQ, additive_derivative,
                    additive_eval, additive_untwist, eps_exp, eps_log,
                    exp_centralizer_check, jordan_block,
                    rep_from_partition)
from optsl2.errors import PreconditionError

dom = Fp(5)
X = jordan_block(dom, 4)
u = eps_exp(X)
print("eps(J_4) over F_5 (entries 1, 1, 1/2, 1/6 mod 5):")
for i in range(4):
    print("   ", [X.domain.of(u[i, j]) for j in range(4)])
print("eps_log inverts it:", eps_log(u) == X)
print()

# one-parameter property: s -> eps(sX) is a homomorphism F_p -> GL_n
hom = all(eps_exp(X.scale(s)) * eps_exp(X.scale(t))
          == eps_exp(X.scale((s + t) % 5))
          for s in range(5) for t in range(5))
print("s -> eps(sX) is additive in s:", hom)
print()

# the class bound is sharp: a chain of length p+1 has X^[p] != 0
try:
    eps_exp(jordan_block(Fp(3), 4))
except PreconditionError as exc:
    print("eps over F_3 on a length-4 chain fails as it must:")
    print("   ", exc)
print()

# centralizers transfer through eps: C(X) = C(eps(tX)) for t != 0
rep = exp_centralizer_check(rep_from_partition(Fp(3), (2, 1)))
print("C(X) vs C(eps(tX)) for the (2,1) orbit over F_3:")
print("  Lie-level kernels agree: %s" % rep.nullspaces_agree)
print("  group centralizers coincide (%d elements each): %s"
      % (rep.group_size, rep.group_agree))
print()

# an additive homomorphism with a hidden Frobenius twist
N = jordan_block(dom, 2)
Z = Mat.zero(dom, 2, 2)
h = AdditiveHom(dom, (Z, Z, N))
print("h(s) = eps(s^(p^2) N): derivative at 0 is zero ->",
      additive_derivative(h).is_zero())
core, r = additive_untwist(h)
print("untwisting found r = %d Frobenius factors" % r)
print("residual derivative nonzero:",
      not additive_derivative(core).is_zero())
print("h(s) = core(s^(p^r)) for every s:",
      all(additive_eval(h, s) == additive_eval(core, pow(s, 5 ** r, 5))
          for s in range(5)))
print()

# over Q there is no truncation: eps is the usual exponential on
# nilpotents, and log is its inverse
XQ = jordan_block(QQ, 5)
print("over Q, eps/log round trip on a length-5 chain:",
      eps_log(eps_exp(XQ)) == XQ)
