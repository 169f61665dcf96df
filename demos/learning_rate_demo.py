#!/usr/bin/env python3
"""A miniature learning-rate experiment: train-validate over a geometric
regularization grid at growing sample sizes, measure the excess risk of
the clipped predictor by exact quadrature against the generating model,
and compare the fitted log-log slope with the theoretical exponent, whose
q and theta come from the model's quantile-type certificate.

The full-size experiment (5 sizes, 20 repetitions) lives in the
acceptance suite; this one runs in under a minute.
"""

from kqr import GaussianKernel, RateConfig, learning_rate_experiment, uniform_noise

config = RateConfig(
    model=uniform_noise(),
    kernel=GaussianKernel(0.5),
    tau=0.5,
    sample_sizes=(64, 128, 256, 512),
    repetitions=5,
    seed=1,
    rho=0.1,       # assumed spectral decay of the Gaussian kernel
)

report = learning_rate_experiment(config)

print(f"{'n':>6s} {'mean excess':>12s} {f'mean L{report.r_norm:g} dist':>13s}")
for n in sorted(report.mean_excess):
    print(f"{n:6d} {report.mean_excess[n]:12.5f} {report.mean_dist[n]:13.5f}")
print()
print(f"fitted excess-risk slope   {report.excess_slope:.3f}")
print(f"fitted distance slope      {report.dist_slope:.3f}")
print(f"certificate q, theta       {report.exponents['q']:g}, {report.exponents['theta']:g}")
print(f"theoretical gamma          {report.theoretical_gamma:.3f}")
print(f"theoretical gamma / q      {report.theoretical_gamma_over_q:.3f}")
print()
print("The risk slope should sit near -gamma and the distance slope near")
print("-gamma/q; finite-sample noise and the crude rho guess blur both.")
