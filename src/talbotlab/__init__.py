"""Spectral laboratory for dispersive flows on flat tori and round spheres.

The package simulates the free Schrodinger evolution on T^d (d = 1, 2) and
on S^d (zonal sector, plus selected non-zonal families on S^2), together
with a Wick-ordered cubic flow on the zonal sector of S^2.  It provides
the measurement tools used to study these flows numerically:

``specialfun``
    Symmetric Jacobi polynomials, zonal kernels and normalized zonal
    harmonics, explicit S^2 harmonics and Gaussian beams, and the
    large-degree asymptotic envelope.
``spectra``
    Spectrum containers for torus and sphere data, exact coefficients of
    step and polygon indicators, power-law families, and finite
    difference tables.
``evolve``
    Propagators, physical-space samplers, the rational-time quantization
    check, and the shared irrational/rational time panel.
``lpbesov``
    Sharp and smooth spectral blocks, block norm tables, Holder and
    Besov probes.
``fractal``
    Box counting for curves and surfaces and log-log dimension fits.
``expsum``
    Quadratic exponential sums with sharp or damped blocks and their
    sup-norm decay.
``gaunt``
    Triple and quadruple product integrals of zonal harmonics, exact
    quadrature rules, resonance identities, and the near-resonance
    classification.
``znls``
    The Wick-ordered zonal cubic flow: gauge phase, Strang splitting
    with a unitary Galerkin substep whose density matrix B(u) also
    gives the cubic nonlinearity B(u) u, and smoothing diagnostics.
``strichartz``
    Space-time L^4 norms on S^2 x [0, 2pi), bilinear pair interactions,
    and closed beam quartic integrals.
``cli``
    Command line entry points that drive each experiment and write CSV
    and JSON reports.
"""

__version__ = "0.1.0"

__all__ = [
    "specialfun",
    "spectra",
    "evolve",
    "lpbesov",
    "fractal",
    "expsum",
    "gaunt",
    "znls",
    "strichartz",
    "fitting",
    "cli",
]
