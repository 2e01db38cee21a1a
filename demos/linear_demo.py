"""Walkthrough on a 3x3 linear problem with a known spectrum.

The problem T(z, p) = zI - A(p) has det T = (p - z)(1 - p - z^2), so its
eigenvalues are p and +-sqrt(1 - p).  We target the disk of radius 0.6 at
the origin: for p in [0.75, 1.25] exactly the two square-root branches lie
inside, and they collide in a defective (Jordan) eigenvalue at p = 1.
"""

import numpy as np

from pnlevp import (Disk, LinearDemoProblem, default_sampling, offline,
                    online, residuals, scalar_probe_eigenvalues)

problem = LinearDemoProblem()
domain = Disk(0.0, 0.6)
p_range = (0.75, 1.25)

# Offline phase: probe the resolvent on the boundary of an inflated copy of
# the domain (radius 0.8) at 40 parameter values, then fit one bivariate
# rational surrogate whose weights, with the exact tangential samples at its
# p-nodes, give the 2r vectors that online reads.
config = default_sampling(domain, r=20, q=40, p_range=p_range, seed=0,
                          dim=problem.dim)
model = offline(problem, domain, config, N=512)
print(f"offline done: m = {model.m} eigenvalues inside the domain, "
      f"fit degrees ({model.metadata['z_degree']} in z, "
      f"{model.metadata['p_degree']} in p)")

# Online phase: eigenvalues at any parameter are now a tiny generalized
# eigenvalue problem, independent of the quadrature size.
for p_hat in (0.75, 0.9, 1.0, 1.2):
    sol = online(model, p_hat)
    res = max(residuals(problem, sol))
    truth = np.sqrt(1.0 - p_hat + 0j)
    print(f"p = {p_hat:4.2f}: eigenvalues {np.round(sol.eigenvalues, 10)}, "
          f"expected +-{truth:.6f}, max residual {res:.2e}")

# At p = 1 the two branches coalesce into a defective eigenvalue at 0;
# the realization still returns two (nearly equal) eigenvalues with small
# residuals -- no special handling is required.

# Eigenvalues-only shortcut: fixing p in the scalar surrogate collapses it
# to a univariate barycentric function whose poles come from a small
# arrowhead pencil.  Eigenvectors (and multiplicities) are not visible.
poles = scalar_probe_eigenvalues(model, 0.75)
inside = [z for z in poles if domain.contains(z)]
print(f"scalar probe at p = 0.75: poles inside the domain "
      f"{np.round(inside, 10)}")
