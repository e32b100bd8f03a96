"""The thin-domain limit: free plates on collapsing strips.

As Omega_delta = (0,1) x (-delta/2, delta/2) collapses, the free plate
system converges to a weighted one-dimensional plate system.  This script
measures three things the theory talks about:

  * the resolvent gap ||B_delta E f0 - E B_0 f0||_{H_delta} for the datum
    f0 = (0, sin(pi x)), whose fitted rate comfortably clears the
    conjectured delta^{1/2} upper-bound rate;
  * eigenvalue clusters and the projection angles of averaged eigenvectors;
  * the transverse strain relaxation d(beta_y)/dy = q_11 * div Phi realized
    by the 2D solution through the thickness, which is the mechanism that
    produces the reduced divergence coefficient in the limit operator.
"""

import numpy as np

from rmplates import (
    BcFamily,
    ConnectingSystem,
    MaterialParams,
    assemble_limit_pencil,
    assemble_rm_pencil,
    build_interval_mesh,
    build_thin_mesh,
    constant_profile_spec,
    divgrad_consistency_gap,
    limit_div_coefficient,
    p2_evaluate,
    p2_interpolate,
    qjj_value,
    solve_extended_source,
    solve_limit_source,
    sweep_delta,
)
from rmplates.experiments import SweepConfig

params = MaterialParams(E=1.0, sigma=0.3, k=5.0 / 6.0, t=0.1)

print("== delta sweep (cylinder, f0 = (0, sin pi x)) ==")
config = SweepConfig(kind="delta", values=(0.4, 0.2, 0.1, 0.05), mesh_n=96, mesh_ny=6, bc=BcFamily.FREE)
report = sweep_delta(config)
print(f"{'delta':>6s} {'resolvent gap':>14s}   cluster gap sums")
for point in report["points"]:
    gaps = "  ".join(f"{g:9.3e}" for g in point["eig_gap_sums"])
    print(f"{point['delta']:6.2f} {point['resolvent_gap']:14.4e}   {gaps}")
print(f"resolvent rate: slope {report['fit']['slope']:.3f} (r2 {report['fit']['r2']:.4f}); "
      "the conjectured operator-norm rate delta^{1/2} is an upper bound, a fixed")
print("smooth datum may converge faster, as it does here.")
print("projection angles at delta = 0.05:",
      " ".join(f"{a:.2e}" for a in report["max_angles"][-1]), "rad")
print("note: the third cluster's gap rises between delta = 0.4 and 0.2 because that")
print("eigenvalue branch crosses its limit inside the sweep; convergence is not monotone.")

print("\n== transverse strain relaxation ==")
delta = 0.05
spec = constant_profile_spec(0, 1, 0.5, delta)
thin = build_thin_mesh(spec, 96, 6)
interval = build_interval_mesh(0, 1, 96)
system = ConnectingSystem(thin, interval, spec)
f0 = p2_interpolate(interval, lambda x: np.sin(np.pi * x))
pencil = assemble_rm_pencil(thin, params, BcFamily.FREE)
pair = solve_extended_source(system, pencil, params, np.zeros_like(f0), f0)
Phi0, _ = solve_limit_source(assemble_limit_pencil(interval, spec, params), np.zeros_like(f0), f0)

nv = thin.n_nodes
beta_y = pair.beta[nv:].reshape(system.ny + 1, system.nx + 1)
dy = system.Y[1, 0] - system.Y[0, 0]
mid = system.ny // 2
slope = (beta_y[mid + 1] - beta_y[mid]) / dy
x_probe = np.array([0.3, 0.5, 0.7])
h = 1e-6
div_phi = (p2_evaluate(interval, Phi0, x_probe + h) - p2_evaluate(interval, Phi0, x_probe - h)) / (2 * h)
measured = np.interp(x_probe, 0.5 * (system.xs[:-1] + system.xs[1:]), 0.5 * (slope[:-1] + slope[1:]))
print("measured d(beta_y)/dy / div Phi:", " ".join(f"{v:.4f}" for v in measured / div_phi))
print("q_11 per unit divergence (sigma = 0.3, d = 1):", qjj_value(0.3, 1, 1.0))

print("\n== limit coefficient diagnostics ==")
for d in (1, 2, 3):
    c = limit_div_coefficient(0.3, d)
    gap = divgrad_consistency_gap(1.0, 0.3, d)
    print(f"d = {d}: divergence coefficient {c:.6f}; strong-form/weak-form "
          f"grad-div coefficient mismatch {gap:.2e}")
