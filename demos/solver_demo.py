#!/usr/bin/env python3
"""Train a pinball SVM on one sample and inspect what optimality means
here: dual coefficients in their box, a duality gap of at most tol (in
objective units, which is what converged means), a zero KKT residual as a
diagnostic, the empirical quantile property of the residuals, and
agreement with an independent subgradient-descent solve.
"""

import numpy as np

from kqr import (
    GaussianKernel,
    kkt_residual,
    objective,
    predict,
    reference_train,
    sample_joint,
    train,
    uniform_noise,
)

model = uniform_noise()          # y = 0.5 sin(pi x) + uniform(-0.5, 0.5)
tau, lam = 0.25, 1e-3
data = sample_joint(model, 400, seed=42)
spec = GaussianKernel(0.5)

fitted, diag = train(data, spec, lam, tau, tol=1e-6, max_iter=400)
print(f"n = {len(data)}, tau = {tau}, lambda = {lam}")
print(f"converged        {diag.converged} after {diag.iterations} iterations, "
      f"duality gap {diag.duality_gap:.1e}")
print(f"kkt residual     {diag.kkt_residual:.2e}")
print(f"objective        {diag.final_objective:.6f}")

lo = -(1 - tau) / (2 * lam * len(data))
up = tau / (2 * lam * len(data))
print(f"dual box         [{lo:.3f}, {up:.3f}]")
print(f"coefficients at bounds: {np.sum(fitted.coef == lo)} low, "
      f"{np.sum(fitted.coef == up)} high, "
      f"{np.sum((fitted.coef != lo) & (fitted.coef != up))} free")

residuals = data.y - predict(fitted, data.x)
below = np.mean(residuals < -1e-8)
print(f"fraction of y below the fit: {below:.3f}  (tau = {tau})")

[reference] = reference_train([data], spec, [lam], tau, iterations=20_000)
print(f"dual solver objective        {objective(fitted, data):.6f}")
print(f"subgradient oracle objective {objective(reference, data):.6f}")
print(f"kkt residual partition check {kkt_residual(fitted, data):.2e}")
