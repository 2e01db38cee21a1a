"""Damped string: eigenvalue coalescence and optimal damping.

A string on [0, 1] with viscous damping of strength p on its middle half
leads to a 4x4 boundary-condition system T(z, p) involving the two-valued
square root sqrt(z^2 + 2pz).  Two experiments from a single offline model
each:

  case 1 (p in [3, 4]):  two eigenvalues collide in a defective eigenvalue
                         near p = 3.71; the sweep's minimum pairwise gap
                         localizes the collision.
  case 2 (p in [4, 5]):  the spectral abscissa (rightmost real part) is
                         minimized near p = 4.71 -- the optimal damping.

Takes about a second: the offline phase factors 4x4 matrices at 1000-2000
quadrature nodes for 25 parameters.
"""

import numpy as np

from pnlevp import (DampedStringProblem, Ellipse, default_sampling, offline,
                    online)

problem = DampedStringProblem()

# -- case 1: coalescence ----------------------------------------------------
domain = Ellipse(-3.0, 2.5, 10.0)
config = default_sampling(domain, r=250, q=25, p_range=(3.0, 4.0), seed=0,
                          dim=problem.dim,
                          sampling_domain=Ellipse(-3.0, 3.0, 11.0))
model = offline(problem, domain, config, N=1000, fit_opts={"tol": 1e-11})
print(f"case 1 offline done: m = {model.m}")

p_values = np.linspace(3.0, 4.0, 101)
gaps = []
for p_hat in p_values:
    lam = online(model, p_hat).eigenvalues
    d = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(d, np.inf)
    gaps.append(d.min())
k = int(np.argmin(gaps))
print(f"minimum pairwise eigenvalue gap {gaps[k]:.3e} at p = {p_values[k]:.3f} "
      "(defective eigenvalue expected near p = 3.71)")

# -- case 2: optimal damping ------------------------------------------------
domain = Ellipse(-2.0, 1.75, 15.0)
config = default_sampling(domain, r=250, q=25, p_range=(4.0, 5.0), seed=0,
                          dim=problem.dim,
                          sampling_domain=Ellipse(-2.0, 2.0, 16.0))
model = offline(problem, domain, config, N=2000, fit_opts={"tol": 1e-11})
print(f"case 2 offline done: m = {model.m}")

p_values = np.linspace(4.0, 5.0, 101)
abscissa = [online(model, p_hat).eigenvalues.real.max() for p_hat in p_values]
k = int(np.argmin(abscissa))
print(f"spectral abscissa minimized at p = {p_values[k]:.3f} "
      f"(value {abscissa[k]:.6f}; expected near p = 4.71)")
