"""The ratio-diagonal accelerator, step by step, on the stock counterexample.

Maximize F(x1, x2) = -2*x1^2 + 2*x1*x2 - x2^2. At (-1, -1.5) the gradient
is (1, 1) and the Newton step H^-1 g equals diag(r) g with r = (-1, -1.5).
The resulting accelerator 1/(EPSILON + |r|) is a perfectly usable diagonal, but
diag(r) is NOT a Loewner lower bound for the Hessian, so the fixed-Hessian
convergence guarantee that backs the row-sum accelerator does not transfer.
The script then shows the pseudoinverse fallback for singular cases.
"""

import numpy as np

from quadgrad import (
    bound_diagonal,
    new_quadratic_gradient,
    newton_ratios,
    quadratic_counterexample,
    solve,
)
from quadgrad.gradients import EPSILON

f = quadratic_counterexample()
point = np.array([-1.0, -1.5])
h = f.hessian(point)
g = f.gradient(point)
print("H =", h.tolist())
print("g at (-1,-1.5) =", g)

newton_step = solve(h, g)
r = newton_ratios(h, g)
print("Newton step H^-1 g =", newton_step)
print("ratios r =", r.ratios, "(pseudoinverse used:", r.used_pseudoinverse, ")")
print("check diag(r) @ g =", r.ratios * g)

print()
print("accelerators side by side:")
print("  row-sum diagonal  :", bound_diagonal(h))
print("  ratio diagonal    :", 1.0 / (EPSILON + np.abs(r.ratios)))
print("  new quadratic grad:", new_quadratic_gradient(h, g))

# the bound condition fails: x^T (H - diag(r)) x should stay >= 0 for a
# valid lower bound, but it goes negative
gap = h - np.diag(r.ratios)
rng = np.random.default_rng(0)
forms = np.array([x @ gap @ x for x in rng.standard_normal((1000, 2))])
print()
print(f"x^T (H - diag(r)) x over 1000 random x: min {forms.min():.4f}, "
      f"max {forms.max():.4f}  -> indefinite, bound condition broken")

print()
print("singular cases fall back to the pseudoinverse of H @ diag(g):")
for label, hh, gg in [
    ("zero gradient entry", np.eye(2), np.array([1.0, 0.0])),
    ("singular Hessian", np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.5, 2.0])),
]:
    rr = newton_ratios(hh, gg)
    print(f"  {label:>20}: r = {rr.ratios}, pseudoinverse used: {rr.used_pseudoinverse}")
