"""Correctness checks on the program's outputs.

Each check takes outputs already read back from the program's files or
return values, plus a reference computed apart from the program or a
property the method must have, and returns a list of problems (empty when
the check passes).  None compares an output with a stored copy.
"""

from __future__ import annotations

import math

import numpy as np

from reference import fit_exponential_rate, zero_crossing_wavelength


def within_rel(name: str, value: float, want: float, rel: float) -> list[str]:
    if not (math.isfinite(value) and abs(value - want) <= rel * abs(want)):
        return [f"{name} = {value!r}, want {want!r} within {rel:.0e} relative"]
    return []


def within_abs(name: str, value: float, want: float, tol: float) -> list[str]:
    if not (math.isfinite(value) and abs(value - want) <= tol):
        return [f"{name} = {value!r}, want {want!r} within {tol:.3g}"]
    return []


def decay_rate(name: str, times, coherence, want: float, rel: float) -> list[str]:
    """The exponential rate fitted to a coherence series matches want."""
    try:
        rate = fit_exponential_rate(times, coherence)
    except ValueError as exc:
        return [f"{name}: {exc}"]
    return within_rel(f"{name} fitted rate", rate, want, rel)


def densities_normalized(name: str, times, x, density, tol: float) -> list[str]:
    """Each recorded position density sums to 1 on the grid (sum * dx)."""
    dx = float(x[1] - x[0])
    problems = []
    for t in np.unique(times):
        total = float(np.sum(density[times == t]) * dx)
        if not abs(total - 1.0) <= tol:
            problems.append(f"{name}: density at t={t} integrates to {total!r}")
    return problems


def wigner_normalized(name: str, x, p, w, tol: float = 1e-4) -> list[str]:
    """A Wigner snapshot read back as (x, p, w) rows integrates to 1."""
    xs, ps = np.unique(x), np.unique(p)
    if len(xs) * len(ps) != len(w):
        return [f"{name}: {len(w)} rows do not fill a {len(xs)} x {len(ps)} grid"]
    norm = float(np.sum(w) * (xs[1] - xs[0]) * (ps[1] - ps[0]))
    return within_abs(f"{name} normalization", norm, 1.0, tol)


def ridge_wavelength(name: str, x, p, w, x0: float, rel: float = 0.05) -> list[str]:
    """At x = 0 a two-packet cat's W(0, p) oscillates as cos(2 x0 p)."""
    xs, ps = np.unique(x), np.unique(p)
    grid = np.asarray(w, dtype=float).reshape(len(xs), len(ps))
    row = grid[int(np.argmin(np.abs(xs))), :]
    try:
        wavelength = zero_crossing_wavelength(ps, row)
    except ValueError as exc:
        return [f"{name}: {exc}"]
    return within_rel(f"{name} ridge wavelength", wavelength,
                      2.0 * math.pi / (2.0 * x0), rel)


def series_close(name: str, times, got, want, rel: float) -> list[str]:
    """got(t) agrees with want(t) within rel, relative, at every time."""
    err = np.abs(np.asarray(got) - np.asarray(want)) / np.abs(np.asarray(want))
    worst = int(np.argmax(err))
    if not err[worst] <= rel:
        return [f"{name} = {got[worst]!r} at t={times[worst]}, want {want[worst]!r} "
                f"within {rel:.0e} relative"]
    return []


def purity_entropy_bounds(name: str, purity, entropy, dim: int,
                          tol: float = 1e-9) -> list[str]:
    """1/dim <= purity <= 1 and entropy >= 0 at every record."""
    purity = np.asarray(purity, dtype=float)
    entropy = np.asarray(entropy, dtype=float)
    problems = []
    if not np.all((purity >= 1.0 / dim - tol) & (purity <= 1.0 + tol)):
        problems.append(f"{name}: purity outside [1/{dim}, 1]: "
                        f"min {purity.min()!r}, max {purity.max()!r}")
    if not np.all(entropy >= -tol):
        problems.append(f"{name}: negative entropy {entropy.min()!r}")
    return problems


def trajectory_band(name: str, times, mean, stderr, want, n_se: float = 3.0,
                    rounding: float = 1e-12) -> list[str]:
    """|mean - want| <= n_se standard errors at every recorded time.

    At t = 0 the standard error is 0, so a rounding allowance of 1e-12 is
    added to the band; it is far below any statistical scale.
    """
    dev = np.abs(np.asarray(mean) - np.asarray(want))
    band = n_se * np.asarray(stderr) + rounding
    bad = np.nonzero(~(dev <= band))[0]
    return [f"{name}: mean off by {dev[i]:.3g} > {n_se} SE ({band[i]:.3g}) at t={times[i]}"
            for i in bad]


def coefficient(name: str, value: float, ref: float, ref_err: float,
                reported_err: float) -> list[str]:
    """A quadrature result agrees with the reference within the errors reported."""
    return within_abs(name, value, ref, reported_err + ref_err)


def in_range(name: str, value: float, lo: float, hi: float) -> list[str]:
    if not (lo <= value <= hi):
        return [f"{name} = {value!r} outside [{lo}, {hi}]"]
    return []
