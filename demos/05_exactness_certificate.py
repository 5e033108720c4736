"""Desk-scale exactness certificates.

For small degree sequences the complexes can be built explicitly:
Schur modules are realized as Young-symmetrizer images inside tensor
powers, the differentials are assembled degree slice by degree slice
over exact rationals, and the certificate checks d^2 = 0, exactness of
every interior slice, the Hilbert function of the cokernel, minimality,
A-linearity coherence, and equivariance under a transposition and an
m-cycle, which generate S_m.
"""

from pureres import verify_exactness

for d in ((0, 1, 3), (0, 2, 3, 4)):
    cert = verify_exactness(d)
    print(f"d = {d}: certificate {'PASSED' if cert.passed else 'FAILED'}")
    print(f"  slice degrees checked: {cert.k_range[0]}..{cert.k_range[1]}")
    print(f"  d^2 = 0: {cert.dsquared_ok}, minimal: {cert.minimality_ok}, "
          f"Euler identity: {cert.euler_identity_ok}")
    for k, (ok, data) in sorted(cert.slices_exact.items()):
        print(f"  slice k = {k}: differential ranks {data['ranks']}, "
              f"cokernel dim {data['coker']}, exact = {ok}")
    print(f"  scope: {cert.scope_note}\n")
