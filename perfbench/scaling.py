"""Growth-axis ladders for the scaling report.

Each axis named in the ROADMAP gets one request shape evaluated at four
sizes.  The traced run times `brat.cli.main` in-process for every point
(process start and import are constant along an axis and would flatten
the fit) and reports the least-squares slope of log(time) on log(size):
about 1 is linear, 2 quadratic, 3 cubic.
"""

from __future__ import annotations

import math

from .workloads import Builder

LADDERS = {
    # axis: (sizes, request shape)
    "depth": ((200, 400, 800, 1600), "mu on a width-4 random tail"),
    "width": ((12, 24, 48, 96), "premorphism --verify at depth 12"),
    "entry": ((32, 128, 512, 2048), "mu on a width-4 random tail at depth 40, entry bits"),
    "prime_index": ((20, 30, 45, 65), "mu catalog:uhf-<k-th prime>"),
    "generator": ((125_000, 250_000, 500_000, 1_000_000), "group divides, generators (g, g+1)"),
    "unit": ((750_000, 1_500_000, 3_000_000, 6_000_000), "group propd, generators (3, 5)"),
}


def ladder(seed: int, scale: int = 1):
    """(workload, [(axis, size, request)]) for every ladder point."""
    from . import arith

    b = Builder("scaling", seed)
    points = []
    primes = arith.first_primes(max(LADDERS["prime_index"][0]))
    for axis, (sizes, _) in LADDERS.items():
        for size in sizes:
            start = len(b.work.requests)
            if axis == "depth":
                b.mu(b.generic_tail(4, 3), max(4, size // scale))
            elif axis == "width":
                b.premorphism(b.generic_tail(max(2, size // scale), 2), 12, verify=True)
            elif axis == "entry":
                b.mu(b.generic_tail(4, max(2, size // scale)), 40)
            elif axis == "prime_index":
                b.mu(b.uhf_catalog(primes[max(1, size // scale) - 1]), 2 * size)
            elif axis == "generator":
                g = max(16, size // scale**3)
                data = {"kind": "cyclic", "generators": [g, g + 1], "unit": 6 * (3 * g + 1)}
                b.group_op("divides", b.group(data), data, "ladder", n=2)
            else:
                u = max(60, size // scale**3)
                data = {"kind": "cyclic", "generators": [3, 5], "unit": u}
                b.group_op("propd", b.group(data), data, "ladder")
            points.append((axis, size, b.work.requests[start]))
    return b.work, points


def slope(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
