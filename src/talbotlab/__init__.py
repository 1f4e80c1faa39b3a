"""Spectral laboratory for dispersive flows on flat tori and round spheres.

The package simulates the free Schrodinger evolution on T^d (d = 1, 2) and
on the zonal sector of S^d, together with the cubic flow on the zonal
sector of S^2.  It provides the measurement tools used to study these
flows numerically:

``specialfun``
    Unit-norm zonal harmonics and their Gauss rule from one recurrence,
    symmetric Jacobi polynomials, zonal series, and the large-degree
    Jacobi asymptotics.
``spectra``
    Spectrum containers for torus and sphere data, exact coefficients of
    step and polygon indicators, and the zonal power-law family.
``evolve``
    Propagators, the torus grid sampler returning complex arrays, the
    rational-time quantization check, and the shared time panel.
``lpbesov``
    Dyadic block sup norms of zonal spectra.
``fractal``
    Box counting for curves and surfaces and log-log dimension fits of
    evolved torus data.
``expsum``
    Weighted quadratic Weyl block suprema.
``gaunt``
    Exact quadrature rules, every triple and quadruple product integral
    of zonal harmonics up to a degree, the resonant products
    kappa(n, n, n2, n3) of a list of degrees against their meridian
    limit, each family from one rule and one harmonic table, and the
    count of tuples the near-resonance classification leaves out.
``znls``
    The zonal cubic flow: Strang splitting with a unitary Galerkin
    substep exp(i sigma dt B(u)), applied matrix-free from the
    quadrature table (B(u) u is the cubic nonlinearity), the tracked
    resonant phase, and smoothing diagnostics.
``strichartz``
    Bilinear space-time L^2 norms of zonal pairs on S^d x [0, 2pi),
    exact in time, for a list of blocks on one rule, and beam quartic
    norms in closed form.
``fitting``
    Least-squares line fits shared by the dimension, decay and norm fits.
``experiments``
    One driver per study: frozen defaults, row data and a verdict.  The
    drivers are the only code that fits a study's statistic; the demos
    run them.  The panel criteria share one loop over the time panel.
``cli``
    Command line entry points that drive each experiment, each named by
    its subcommand alone.  The only module that writes files: CSV rows,
    JSON summaries, value tables.
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
    "experiments",
    "cli",
]
