"""Monte-Carlo verification that the renormalised product becomes a white
noise of the computed amplitude as the mollification scale shrinks.

Run as: python3 demos/05_white_noise_limit.py   (about 7 s on a 2-core machine)
"""

import numpy as np

from gpam2d.kernels import bump_field, crho_squared, torus_coords
from gpam2d.montecarlo import (
    convergence_table,
    pi_weighted,
    pi_xiixi,
    sample_noise,
    sample_seeds,
)

N, SAMPLES, SEED = 256, 200, 11

crho = crho_squared("spatial", 128).value
print(f"target variance density: {crho:.6f} x integral(phi^2)\n")

rows = convergence_table([2**-3, 2**-4, 2**-5], N, SAMPLES, seed=SEED, crho_sq=crho)
print("eps        var/target        mean             excess kurtosis")
for r in rows:
    print(
        f"2^{int(np.log2(r['eps'])):>3}   {r['var_ratio']:.3f} ± {r['var_se']:.3f}"
        f"   {r['mean']:+.4f} ± {r['mean_se']:.4f}   {r['k4_ratio']:+.3f} ± {r['k4_se']:.3f}"
    )
print("\nthe variance ratio walks to 1 and the excess kurtosis dies: the limit")
print("is Gaussian with the predicted amplitude.\n")

phi1 = bump_field(N, radius=0.2)
phi2 = bump_field(N, radius=0.2, centre=(0.12, 0.0))
x1 = torus_coords(N)[:, None] * np.ones((1, N))
target = crho * float(np.sum(x1 * phi1 * phi2)) / (N * N)
noises = [sample_noise(N, s) for s in sample_seeds(SEED, SAMPLES)]
a = np.array([pi_weighted(x, 2**-5, phi1, "xiixxi", 1) for x in noises])
b = np.array([pi_xiixi(x, 2**-5, phi2) for x in noises])
cov = float(np.cov(a, b)[0, 1])
print("coordinate-weighted tree against the plain one:")
print(f"   empirical covariance {cov:+.6f} vs target {target:+.6f} (ratio {cov / target:.3f})")
print("   -> the weighted limit is the same noise, multiplied by the coordinate.")
