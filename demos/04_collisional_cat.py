"""Scattering decoherence of a spatial superposition, watched in two ways.

A superposition of two Gaussian packets evolves freely while environmental
scattering monitors its position (long-wavelength regime).  The density
matrix loses its off-diagonal peaks at the rate Lambda (x - x')^2 while the
diagonal survives; in the Wigner picture the interference ridge between the
packets damps away.
"""

import numpy as np

from decoherence.core import Grid1D
from decoherence.lindblad import IntegratorConfig, propagate
from decoherence.measures import wigner
from decoherence.models import CollisionalParams, collisional_generator

grid = Grid1D(256, -8.0, 8.0)
params = CollisionalParams(Lambda=0.05, mass=50.0)
x0, sigma = 2.0, 0.5
psi0 = grid.two_packet_cat(x0, sigma)
tau = 1.0 / (params.Lambda * (2 * x0) ** 2)  # characteristic decay time
print(f"separation {2 * x0}, decoherence time 1/(Lambda dx^2) = {tau:.2f}")

# free motion plus long-wavelength scattering: propagate computes each
# record in closed form from psi0, with no time steps
res = propagate(collisional_generator(params, grid), psi0.density(),
                IntegratorConfig(dt=0.01, t_final=6.25, record_stride=125))
times, mats = res.times, res.matrices

i = int(np.argmin(np.abs(grid.x - x0)))
j = int(np.argmin(np.abs(grid.x + x0)))
print(f"\n{'t':>6} {'off-diag peak':>14} {'diag peak':>10} {'ratio':>8}")
for t, m in zip(times, mats):
    off = abs(m[i, j])
    diag = abs(m[i, i])
    print(f"{t:6.2f} {off:14.6f} {diag:10.6f} {off / diag:8.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 3, figsize=(12, 7))
    picks = [0, len(mats) // 2, len(mats) - 1]
    for col, k in enumerate(picks):
        axes[0, col].imshow(np.abs(mats[k]),
                            extent=[grid.x_min, grid.x_max,
                                    grid.x_max, grid.x_min])
        axes[0, col].set_title(f"|rho(x, x')|, t = {times[k]:.2f}")
        field = wigner(mats[k], grid)
        axes[1, col].imshow(field.values.T, origin="lower", aspect="auto",
                            extent=[field.x[0], field.x[-1],
                                    field.p[0], field.p[-1]])
        axes[1, col].set_ylim(-8, 8)
        axes[1, col].set_title("W(x, p)")
    fig.tight_layout()
    fig.savefig("demo04_collisional_cat.png", dpi=110)
    print("\nwrote demo04_collisional_cat.png")
except ImportError:
    pass
