#!/usr/bin/env python3
"""Tour of the four synthetic conditional families.

Each family owns an analytic conditional CDF, an exact quantile set, and a
quantile-type certificate (q, b, alpha), with gamma = b alpha^(q-1): the
exponent q says how fast conditional mass accumulates just outside the
quantile interval, which is precisely what the calibration inequalities
trade on.  Smaller q means sharper concentration and easier quantile
recovery.
"""

import numpy as np

from kqr import (
    CertificateError,
    bounded_density_mixture,
    dirac_atom_mixture,
    polynomial_density,
    quantile_set,
    two_atom,
    type_q_params,
)

families = [
    ("bounded-density-mixture", bounded_density_mixture()),
    ("polynomial-density (p=1)", polynomial_density()),
    ("dirac-atom-mixture", dirac_atom_mixture()),
    ("two-atom", two_atom()),
]

x = np.array([0.25])
print(f"location shift at x = {x[0]}: g(x) = 0.5 sin(pi x)")
print()
print(f"{'family':26s} {'tau':>5s} {'quantile set':>22s} {'q':>4s} "
      f"{'b':>7s} {'alpha':>6s} {'gamma':>7s}")
for name, model in families:
    for tau in (0.1, 0.5, 0.9):
        qs = quantile_set(model, x, tau)
        interval = f"[{qs.t_min:+.3f}, {qs.t_max:+.3f}]"
        try:
            c = type_q_params(model, x, tau)
            print(f"{name:26s} {tau:5.2f} {interval:>22s} {c.q:4.1f} "
                  f"{c.b:7.3f} {c.alpha:6.3f} {c.gamma:7.3f}")
        except CertificateError:
            print(f"{name:26s} {tau:5.2f} {interval:>22s} {'--- no certificate ---':>27s}")
print()
print("The uniform mixture is type 2 everywhere; the |y|^p density is type")
print("2+p at its central level and type 2 elsewhere; the atomic families")
print("are type 1 where an atom pins the quantile.")
