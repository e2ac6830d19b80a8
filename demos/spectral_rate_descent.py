"""How far does 1/(eps + max|eigenvalue|) get you as a learning rate?

The spectral radius of the Hessian bounds the curvature in every direction,
so its reciprocal is a safe step size: on a quadratic it contracts the error
monotonically, no line search needed. This script shows the rate itself on a
few Hessians, then watches plain gradient descent ride it to the optimum.
"""

import numpy as np

from quadgrad import (
    Method,
    OptimizerConfig,
    booth,
    quadratic_counterexample,
    run,
    spectral_bounds,
    spectral_learning_rate,
)

print("=== the rate on three Hessians ===")
for label, h in [
    ("identity", np.eye(2)),
    ("booth (constant)", booth().hessian([0.0, 0.0])),
    ("concave counterexample", quadratic_counterexample().hessian([0.0, 0.0])),
]:
    b = spectral_bounds(h)
    lr = spectral_learning_rate(h)
    print(f"{label:>24}: eigenvalues [{b.lambda_min:+.4f}, {b.lambda_max:+.4f}]"
          f"  radius {b.spectral_radius:.4f}  rate {lr:.6f}")

print()
print("=== minimizing Booth from (0, 0) ===")
cfg = OptimizerConfig(method=Method.GD_SPECTRAL, max_iterations=500)
traj = run(booth(), cfg, [0.0, 0.0])
for t in (0, 1, 5, 10, 30, 100, 500):
    if t < len(traj.records):
        r = traj.records[t]
        print(f"iteration {t:3d}: f = {r.objective:.3e}  at {r.iterate}")
print(f"monotone: {all(b.objective <= a.objective for a, b in zip(traj.records, traj.records[1:]))}")

print()
print("=== maximizing the concave quadratic from (-1, -1.5) ===")
traj = run(quadratic_counterexample(), cfg, [-1.0, -1.5])
for t in (0, 1, 10, 50, 200):
    if t < len(traj.records):
        r = traj.records[t]
        print(f"iteration {t:3d}: F = {r.objective:+.3e}")
print("the same rate works for ascent; the absolute value in the radius "
      "covers both curvature signs")
