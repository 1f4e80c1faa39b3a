"""Reproducible experiment drivers shared by the CLI and the tests.

Each driver runs one quantitative study end to end with explicit
parameters, evaluates its pass criterion, and returns an
ExperimentResult holding headline numbers plus per-row data for the
CLI to write under the study's subcommand name.  A study's thresholds
are fixed: each is written once, as a literal in the ``criteria`` dict
the result records, and the verdict reads it from there, so no caller
can loosen one.  The parameters are what the study measures.
Time-dependent studies follow the panel protocol, in one loop: a fixed
set of sampled irrational times plus seeded random draws, with the
median across the panel as the reported statistic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolve import (
    DEFAULT_PANEL_SEED,
    _map_pool,
    propagate_sphere,
    quantization_check,
    time_panel,
)
from .expsum import weyl_block_sup
from .fitting import fit_line, fit_loglog
from .fractal import dim_t
from .gaunt import (
    FROZEN_LAMBDA_CONSTANTS,
    KappaTable,
    QuadratureRule,
    admissible,
    count_unclassified,
    resonance_compare,
)
from .lpbesov import block_norm_table
from .specialfun import (
    SZEGO_REMAINDER_C,
    SZEGO_WINDOW_C,
    jacobi_asymptotic,
    jacobi_symmetric,
    zonal_harmonic_table,
)
from .spectra import (
    ZonalSpectrum,
    torus_polygon_indicator,
    torus_step,
    zonal_decay_family,
)
from .strichartz import bilinear_l2, l4_norm_beam
from .znls import smoothing_residual, solve

__all__ = [
    "ExperimentResult",
    "DEFAULT_STEP_JUMPS",
    "DEFAULT_TRIANGLE",
    "run_quantization",
    "run_torus_step_dimension",
    "run_polygon_dimension",
    "run_zonal_holder",
    "run_weyl_decay",
    "run_kappa_suite",
    "run_resonance_decay",
    "run_bilinear_contrast",
    "run_nls_smoothing",
    "run_specialfun_checks",
]

DEFAULT_STEP_JUMPS = ((0.0, 1.0), (math.pi, -1.0))
DEFAULT_TRIANGLE = ((0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi))

# The "kind" of every panel time in the rows: the panel holds only
# sampled irrationals.
_PANEL_KIND = "sampled-irrational"


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


@dataclass(frozen=True)
class ExperimentResult:
    """One driver run: headline numbers, row data, and a verdict.

    Attributes
    ----------
    passed : bool
        All criteria met.
    measured : dict
        Headline scalars (medians, exponents, residuals).
    criteria : dict
        The thresholds the verdict was evaluated against.
    rows : tuple
        Per-row dicts for CSV export (shared key set).
    tables : dict
        Output stem -> (header dict, rows like ``rows``) of each value
        table the study built; the CLI writes them next to the summary
        as ``<stem>.json`` and ``<stem>.csv``.
    failure : str
        Why the verdict failed regardless of the criteria; set when a
        measured value is NaN or infinite, which always fails.
    """

    passed: bool
    measured: dict
    criteria: dict
    rows: tuple
    tables: dict = field(default_factory=dict)
    failure: str = field(default="", init=False)

    def __post_init__(self) -> None:
        bad = [k for k, v in self.measured.items() if _non_finite(v)]
        if bad:
            object.__setattr__(self, "passed", False)
            object.__setattr__(
                self, "failure", "non-finite measured value: " + ", ".join(bad)
            )


def _nan_max(values) -> float:
    """Largest of 0.0 and the values; NaN if any value is NaN.

    Python's ``max`` keeps whichever operand compares larger, and every
    comparison with NaN is false, so it can silently drop a NaN.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def run_quantization(m_max: int = 2**12, q_max: int = 12) -> ExperimentResult:
    """Rational-time reconstruction residual over reduced p/q pairs.

    At t = 2 pi p / q the evolved step data must equal a combination
    of q translates of the initial data with discrete-Gauss-sum
    weights; the sup-norm residual is roundoff when the arithmetic is
    right.  Every reduced fraction p/q with 1 <= p <= q <= q_max is
    checked.
    """
    if m_max < 1 or q_max < 1:
        raise ValueError("m_max and q_max must be at least 1")
    spec = torus_step(list(DEFAULT_STEP_JUMPS), m_max=m_max)
    rows = []
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                check = quantization_check(spec, p, q)
                rows.append({"p": p, "q": q, "grid_size": check.grid_size,
                             "residual": check.residual})
    worst = _nan_max(row["residual"] for row in rows)
    criteria = {"max_residual_lt": 1e-8}
    return ExperimentResult(
        passed=worst < criteria["max_residual_lt"],
        measured={"max_residual": worst, "pairs": len(rows)},
        criteria=criteria,
        rows=tuple(rows),
    )


def _panel(measure, seed: int):
    """The rows, each led by "t" and "kind", and the median statistic of
    ``measure(panel)``, which yields one ``(statistic, rows)`` per time
    of the panel, in panel order."""
    panel = time_panel(seed=seed)
    rows, statistics = [], []
    for t, (statistic, measured) in zip(panel, measure(panel), strict=True):
        statistics.append(statistic)
        rows += ({"t": t, "kind": _PANEL_KIND, **row} for row in measured)
    return tuple(rows), float(np.median(statistics))


def _dimension_study(spec, grid, window, seed, expected, tol):
    """Panel-median graph dimension of the evolved ``spec``; it passes
    within ``tol`` of ``expected``."""

    def measure(panel):
        for t in panel:
            report = dim_t(spec, t, grid, window)
            yield report.max_slope, [{"dim_real": report.real.slope,
                                      "dim_imag": report.imag.slope,
                                      "dim_max": report.max_slope}]

    rows, median = _panel(measure, seed)
    criteria = {"expected": expected, "tol": tol}
    return ExperimentResult(
        passed=abs(median - criteria["expected"]) <= criteria["tol"],
        measured={"median_dim": median},
        criteria=criteria,
        rows=rows,
    )


def run_torus_step_dimension(
    m_max: int = 2**14,
    grid: int = 2**16,
    window: tuple[int, int] = (5, 11),
    seed: int = DEFAULT_PANEL_SEED,
) -> ExperimentResult:
    """Panel-median graph dimension of evolved step data on T^1."""
    spec = torus_step(list(DEFAULT_STEP_JUMPS), m_max=m_max)
    return _dimension_study(spec, grid, window, seed, expected=1.5, tol=0.1)


def run_polygon_dimension(
    m_max: int = 2**9,
    grid: int = 2048,
    window: tuple[int, int] = (3, 8),
    seed: int = DEFAULT_PANEL_SEED,
) -> ExperimentResult:
    """Panel-median graph dimension of the evolved triangle indicator on T^2."""
    spec = torus_polygon_indicator(list(DEFAULT_TRIANGLE), m_max=m_max)
    return _dimension_study(spec, grid, window, seed, expected=2.5, tol=0.2)


def run_zonal_holder(
    p: float = 1.5,
    n_max: int = 8191,
    j_max: int = 12,
    window: tuple[int, int] = (2, 12),
    seed: int = DEFAULT_PANEL_SEED,
) -> ExperimentResult:
    """Boundedness of 2^{0.4 j} ||P_{2^j} u||_inf across the panel.

    For power-law zonal data the evolved field stays Holder
    continuous, so the weighted dyadic sup norms must show no growth
    trend in j; the verdict bounds the panel-median fitted slope over
    the levels of ``window``, which must lie in 0..j_max and each hold
    a degree, 2^end <= n_max.
    """
    if not 0 <= window[0] < window[1] <= j_max:
        raise ValueError(f"window must satisfy 0 <= start < end <= j_max = {j_max}")
    if 2 ** window[1] > n_max:
        raise ValueError(f"window must satisfy 2**end <= n_max = {n_max}: "
                         f"level {window[1]} holds no degree")
    data = zonal_decay_family(p, n_max, d=2)
    levels = np.arange(window[0], window[1] + 1)
    criteria = {"weight_exponent": 0.4, "slope_tol": 0.02}

    def measure(panel):
        table = block_norm_table((propagate_sphere(data, t) for t in panel), j_max)
        for norms in table[:, levels]:
            weighted = criteria["weight_exponent"] * levels + np.log2(norms)
            slope = fit_line(levels, weighted).slope
            yield slope, [{"slope": slope,
                           "peak_level": int(levels[np.argmax(weighted)]),
                           "peak_weighted_norm": float(2.0 ** weighted.max())}]

    rows, median = _panel(measure, seed)
    return ExperimentResult(
        passed=median <= criteria["slope_tol"],
        measured={"median_slope": median},
        criteria=criteria,
        rows=rows,
    )


def run_weyl_decay(
    p: float = 1.5,
    exponent_range: tuple[int, int] = (4, 11),
    seed: int = DEFAULT_PANEL_SEED,
) -> ExperimentResult:
    """Panel-median decay exponent of weighted Weyl block suprema.

    Weights b_n = n^{-p} give square-root cancellation over the block,
    so the running sup should scale like N^{1/2 - p}: the verdict bounds
    the distance of the median exponent plus p from 1/2.  Each block is
    sampled on the kernel's 16N-point x grid, whose max is within
    sec(pi/32), about 1.005, of the sup over all real x.
    """
    blocks = [2**k for k in range(exponent_range[0], exponent_range[1] + 1)]

    def measure(panel):
        # Every (time, block) pair is one pool job, the largest blocks
        # first: a block costs about N^2, so the longest jobs start
        # before the rest fill in around them.
        found = _map_pool(lambda job: weyl_block_sup(
            *job, weights=lambda m: float(m) ** (-p)).sup,
            [(t, block) for block in reversed(blocks) for t in panel])
        # found runs block by block, largest first, each over the panel.
        for i in range(len(panel)):
            sups = found[i::len(panel)][::-1]
            yield (fit_loglog(blocks, sups).slope,
                   [{"N": block, "sup": sup} for block, sup in zip(blocks, sups)])

    rows, median = _panel(measure, seed)
    criteria = {"cancellation_exponent": 0.5, "tol": 0.1}
    return ExperimentResult(
        passed=abs(median + p - criteria["cancellation_exponent"]) <= criteria["tol"],
        measured={"median_exponent": median},
        criteria=criteria,
        rows=rows,
    )


def run_kappa_suite(
    n_max: int = 12,
    scan_n_max: int = 64,
) -> ExperimentResult:
    """Gaunt-integral identities and the Lambda classification scan.

    Always runs both sphere dimensions whose Lambda constants are
    frozen, d = 2 and 3; the scan needs at least one degree,
    scan_n_max >= 1.
    """
    if scan_n_max < 1:
        raise ValueError("scan_n_max must be at least 1")
    criteria = {
        "nonneg_tol": -1e-10,
        "support_tol": 1e-10,
        "parseval_tol": 1e-8,
        "perm_tol": 1e-12,
    }
    rows = []
    passed = True
    measured = {}
    tables = {}
    for d, (c1, c2) in FROZEN_LAMBDA_CONSTANTS.items():
        table = KappaTable.build(n_max, d)
        tables[f"kappa-values-d{d}"] = _table_output(table)
        min_entry = float(np.min([table.triple.min(), table.quad.min()]))
        support_max = _nan_max(
            np.abs(x[~admissible(np.indices(x.shape))]).max(initial=0.0)
            for x in (table.triple, table.quad)
        )
        # Q and the slab of T with every index <= n_max are symmetric in
        # all their indices; a transpose differs only by the roundoff of
        # the other factor order in the products that built it.
        perm_defect = _nan_max(
            np.abs(x - x.transpose(axes)).max()
            for x in (table.triple[: n_max + 1], table.quad)
            for axes in itertools.permutations(range(x.ndim))
        )
        # Parseval: kappa(a, b, c, e) = sum_n kappa(n, a, b) kappa(n, c, e).
        parseval = np.einsum("nab,nce->abce", table.triple, table.triple)
        parseval_max = float(np.max(np.abs(parseval - table.quad)))
        unclassified = count_unclassified(scan_n_max, d)
        ok = (
            min_entry >= criteria["nonneg_tol"]
            and support_max < criteria["support_tol"]
            and perm_defect < criteria["perm_tol"]
            and parseval_max < criteria["parseval_tol"]
            and unclassified == 0
        )
        passed = passed and ok
        row = {"min_entry": min_entry, "support_max": support_max,
               "permutation_defect": perm_defect, "parseval_max": parseval_max,
               "unclassified": unclassified}
        measured.update({f"d{d}_{key}": value for key, value in row.items()})
        rows.append({"d": d, **row, "c1": c1, "c2": c2, "passed": ok})
    return ExperimentResult(
        passed=passed,
        measured=measured,
        criteria=criteria,
        rows=tuple(rows),
        tables=tables,
    )


def _table_output(table: KappaTable):
    """Header and (indices, value) rows of the canonical (sorted) index
    tuples: triples, then quads, each in lexicographic order."""
    degrees = range(table.n_max + 1)
    triples = list(itertools.combinations_with_replacement(degrees, 3))
    quads = list(itertools.combinations_with_replacement(degrees, 4))
    header = {"d": table.d, "n_max": table.n_max, "node_count": table.node_count,
              "triples": len(triples), "quads": len(quads)}
    rows = [{"n1": key[0], "n2": key[1], "n3": key[2],
             "n4": key[3] if len(key) == 4 else "", "value": float(values[key])}
            for values, keys in ((table.triple, triples), (table.quad, quads))
            for key in keys]
    return header, tuple(rows)


def run_resonance_decay(
    n2: int = 3,
    n3: int = 5,
    degrees: tuple[int, ...] = (16, 32, 64, 128, 256),
) -> ExperimentResult:
    """Decay of kappa(n, n, n2, n3) toward its meridian line integral on S^2.

    The sphere is fixed: on S^3, where Y_n is proportional to
    sin((n + 1) theta) / sin(theta), kappa(n, n, n2, n3) equals its
    meridian limit exactly, so there is no decay to fit.  Both sides
    also vanish by parity for odd n2 + n3 and equal 1 for n2 = n3 = 0;
    such a pair leaves only roundoff to fit.
    """
    if (n2 + n3) % 2 or n2 == n3 == 0:
        raise ValueError(f"degrees n2, n3 = {n2}, {n3} give an identically zero "
                         "difference: n2 + n3 must be even and not both zero")
    kappas, line = resonance_compare(degrees, n2, n3)
    diffs = kappas - line
    rows = [{"n": n, "kappa": float(k_val), "line_integral": line,
             "difference": float(diff)}
            for n, k_val, diff in zip(degrees, kappas, diffs)]
    fit = fit_loglog(list(degrees), np.abs(diffs))
    criteria = {"max_exponent": -0.9}
    return ExperimentResult(
        passed=fit.slope <= criteria["max_exponent"],
        measured={"decay_exponent": fit.slope, "stderr": fit.stderr},
        criteria=criteria,
        rows=tuple(rows),
    )


def run_bilinear_contrast(
    p: float = 1.5,
    block_n: int = 128,
    m_blocks: tuple[int, ...] = (4, 8, 16, 32, 64),
    beam_degrees: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512),
) -> ExperimentResult:
    """Zonal bilinear growth in M against the beam quartic growth in n.

    The zonal bilinear norm grows at most like a tiny power of M
    (near-orthogonality), while the quartic norm of a beam grows like
    sqrt(n) (saturation): the contrast the estimates hinge on.
    """
    data = zonal_decay_family(p, 2 * block_n, d=2)
    f_norm = float(np.linalg.norm(data.coef[block_n:2 * block_n]))
    rows = []
    ratios = []
    for m, value in zip(m_blocks, bilinear_l2(data, data, block_n, m_blocks)):
        g_norm = float(np.linalg.norm(data.coef[m:2 * m]))
        ratio = float(value) / (f_norm * g_norm)
        ratios.append(ratio)
        rows.append({"study": "bilinear", "index": m, "value": float(value),
                     "ratio": ratio})
    bil_fit = fit_loglog(list(m_blocks), ratios)
    quartics = []
    for n in beam_degrees:
        q = l4_norm_beam(int(n))
        quartics.append(q)
        rows.append({"study": "beam-quartic", "index": int(n), "value": q,
                     "ratio": float("nan")})
    beam_fit = fit_loglog(list(beam_degrees), quartics)
    criteria = {"bilinear_tol": 0.15, "beam_expected": 0.5, "beam_tol": 0.1}
    passed = (
        bil_fit.slope <= criteria["bilinear_tol"]
        and abs(beam_fit.slope - criteria["beam_expected"]) <= criteria["beam_tol"]
    )
    return ExperimentResult(
        passed=passed,
        measured={
            "bilinear_exponent": bil_fit.slope,
            "beam_quartic_exponent": beam_fit.slope,
        },
        criteria=criteria,
        rows=tuple(rows),
    )


def run_nls_smoothing(
    p: float = 1.1,
    n_max: int = 256,
    dt: float = 1e-3,
    t_final: float = 0.1,
    sign: int = 1,
    fit_n_min: int = 8,
) -> ExperimentResult:
    """Mass conservation, tail smoothing, and single-mode exactness.

    The residual r(t) = u(t) - e^{it Delta} e^{i sigma Phi} u(0) must
    carry a faster-decaying dyadic tail than the solution; the gap of
    fitted tail exponents is the measured smoothing gain.

    Single-mode exactness: constant data a must rotate to
    a e^{i sigma |a|^2 t}.  It is solved at the study's own dt: the
    linear half-steps fix the constant mode and B(u) = |a|^2 I, so the
    split step is exact at any dt, and only roundoff is measured.
    """
    data = zonal_decay_family(p, n_max, d=2)
    run = solve(data, dt, t_final, sign=sign)
    drift = run.mass_drift
    table = smoothing_residual(run)
    keep = table.n_values >= fit_n_min
    fit_r = fit_loglog(table.n_values[keep], table.r_norms[keep])
    fit_u = fit_loglog(table.n_values[keep], table.u_norms[keep])
    gain = fit_u.slope - fit_r.slope
    amp = 0.55 - 0.3j
    single = ZonalSpectrum(d=2, coef=np.array([amp, 0, 0, 0], dtype=complex))
    single_run = solve(single, dt, t_final, sign=sign)
    exact = amp * np.exp(1j * sign * abs(amp) ** 2 * t_final)
    single_err = float(abs(single_run.final.coef[0] - exact))
    criteria = {"mass_tol": 1e-8, "gain_min": 0.2, "single_mode_tol": 1e-10}
    passed = (
        drift < criteria["mass_tol"]
        and gain >= criteria["gain_min"]
        and single_err < criteria["single_mode_tol"]
    )
    # The weighted columns carry N^{s + eps} with s = 1/2, eps = 1/4.
    rows = [
        {
            "N": int(nv),
            "residual_norm": float(rn),
            "solution_norm": float(un),
            "residual_weighted": float(rn * nv ** 0.75),
            "solution_weighted": float(un * nv ** 0.75),
        }
        for nv, rn, un in zip(table.n_values, table.r_norms, table.u_norms)
    ]
    return ExperimentResult(
        passed=passed,
        measured={
            "mass_drift": drift,
            "residual_tail_exponent": fit_r.slope,
            "solution_tail_exponent": fit_u.slope,
            "smoothing_gain": gain,
            "single_mode_error": single_err,
        },
        criteria=criteria,
        rows=tuple(rows),
    )


def run_specialfun_checks(
    ortho_n_max: int = 48,
    szego_degrees: tuple[int, ...] = (64, 128, 256, 512),
    theta_points: int = 512,
    d: int = 2,
) -> ExperimentResult:
    """Orthonormality defect and the Szego remainder envelope.

    The envelope check measures max over theta of
    |Y_n - asymptotic| * n^{3/2} * sin(theta) per degree and requires
    one frozen constant to cover every degree in the panel; d must be
    one with a frozen constant (2, 3).
    """
    if d not in SZEGO_REMAINDER_C:
        raise ValueError(f"unsupported sphere dimension {d}: "
                         f"d must be among {sorted(SZEGO_REMAINDER_C)}")
    if theta_points < 2:
        raise ValueError("theta_points must be at least 2 to span the window")
    rule = QuadratureRule.for_degree(2 * ortho_n_max, d)
    table = zonal_harmonic_table(ortho_n_max, d, rule.nodes)
    gram = (table * rule.weights) @ table.T
    ortho_defect = float(np.max(np.abs(gram - np.eye(ortho_n_max + 1))))
    rows = []
    for n in szego_degrees:
        lo = SZEGO_WINDOW_C / n
        theta = np.linspace(lo, math.pi - lo, theta_points)
        exact = jacobi_symmetric(n, d, np.cos(theta))
        approx = jacobi_asymptotic(n, d, theta)
        scaled = np.abs(exact - approx) * float(n) ** 1.5 * np.sin(theta)
        c_n = float(scaled.max())
        rows.append({"n": int(n), "envelope_constant": c_n})
    fitted_c = _nan_max(row["envelope_constant"] for row in rows)
    criteria = {"ortho_tol": 1e-10, "envelope_constant_max": SZEGO_REMAINDER_C[d]}
    passed = (ortho_defect < criteria["ortho_tol"]
              and fitted_c <= criteria["envelope_constant_max"])
    return ExperimentResult(
        passed=passed,
        measured={
            "orthonormality_defect": ortho_defect,
            "fitted_envelope_constant": fitted_c,
        },
        criteria=criteria,
        rows=tuple(rows),
    )
