"""Any two optimal homomorphisms for the same X are conjugate by a
unique element of the unipotent radical of C(X).

The demo twists a homomorphism by a known radical element and recovers
it with conjugate_optimal: one affine solve for the coordinates of x in
a basis of the radical, whose full column rank certifies uniqueness.
Over F_p it then brute-forces the whole radical to confirm there is
exactly one conjugator.
"""

from optsl2 import (Fp, Mat, QQ, build_optimal, conjugate_hom,
                    conjugate_optimal, radical_cochar_transporters,
                    rep_from_partition)

for lam, dom, label in (((2, 2), Fp(2), "F_2"), ((3, 1), Fp(3), "F_3"),
                        ((2, 1), QQ, "Q")):
    n = sum(lam)
    X = rep_from_partition(dom, lam)
    phi1 = build_optimal(X)
    basis = phi1.radical_basis
    print("partition %s over %s: dim of the radical of C(X) = %d"
          % (lam, label, len(basis)))

    # twist by 1 + (sum of the commutant basis)
    N = Mat.zero(dom, n)
    for B in basis:
        N = N + B
    x_true = Mat.identity(dom, n) + N
    phi2 = conjugate_hom(phi1, x_true)

    x = conjugate_optimal(phi1, phi2)
    print("  solver recovered the twist exactly:", x == x_true)

    if dom is not QQ:
        found = radical_cochar_transporters(phi1, phi2)
        print("  exhaustive radical search found %d conjugator(s)"
              % len(found))
        assert found == [x_true]
    print()

# the n = 3 regular case over F_3: the radical of C(X) is the
# centralizer's unipotent part span{X, X^2}, 9 elements total
dom = Fp(3)
X = rep_from_partition(dom, (3,))
phi = build_optimal(X)
found = radical_cochar_transporters(phi, phi)
print("transporters from the regular (3) homomorphism to itself: %d"
      % len(found))
print("(only the identity, as the uniqueness statement demands)")
