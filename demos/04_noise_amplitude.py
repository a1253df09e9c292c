"""The limiting noise amplitude: two quadrature routes, scale invariance,
and the approximation-of-unity behaviour of the square kernel.

Run as: python3 demos/04_noise_amplitude.py  (about 5 s on a 2-core machine)
"""

from gpam2d.kernels import SquareKernel, approx_unity_report, crho_squared

RES = 128

spatial = crho_squared("spatial", RES)
fourier = crho_squared("fourier", RES)
# The estimates are the change at half the quadrature nodes; they do not see
# the resolution of the mollifier tables, which the disagreement does.
print("squared noise amplitude:")
print(f"   physical-space route : {spatial.value:.8f}  (half-node change {spatial.estimated_error:.1e})")
print(f"   frequency-side route : {fourier.value:.8f}  (half-node change {fourier.estimated_error:.1e})")
print(f"   relative disagreement: {abs(spatial.value - fourier.value) / spatial.value:.2e}")

kernel = SquareKernel(resolution=RES)
print("\nscale invariance of the kernel integral:")
for eps in (1.0, 0.5, 0.25):
    print(f"   eps = {eps:<5}: {kernel.integral(eps):.10f}")

print("\napproximation of unity at delta = 1/8:")
for eps in (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64):
    rep = approx_unity_report(eps, 1 / 8, kernel.mol, RES)
    print(
        f"   eps = 1/{int(1 / eps):<3}: total = {rep['total_integral']:.6f}, "
        f"mass beyond delta = {rep['tail_mass']:.6f}, L1 = {rep['l1_mass']:.6f}"
    )
print("\nthe mass concentrates while the total stays pinned at the amplitude.")
