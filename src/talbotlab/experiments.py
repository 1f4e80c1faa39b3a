"""Reproducible experiment drivers shared by the CLI and the tests.

Each driver runs one quantitative study end to end with explicit
parameters, evaluates its pass criterion, and returns an
ExperimentResult holding headline numbers plus per-row data ready for
CSV export.  Time-dependent studies follow the panel protocol: a
fixed set of sampled irrational times plus seeded random draws, with
the median across the panel as the reported statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .evolve import propagate_sphere, quantization_check, time_panel
from .expsum import weyl_block_sup
from .fitting import fit_line, fit_loglog
from .fractal import DomainConfig, dim_t
from .gaunt import (
    FROZEN_LAMBDA_CONSTANTS,
    KappaTable,
    admissible,
    count_unclassified,
    resonance_compare,
)
from .lpbesov import block_norm_table
from .specialfun import (
    SZEGO_REMAINDER_C,
    SZEGO_WINDOW_C,
    SphereConstants,
    jacobi_asymptotic,
    jacobi_symmetric,
    zonal_harmonic_table,
)
from .spectra import (
    BeamSpectrum,
    ZonalSpectrum,
    torus_polygon_indicator,
    torus_step,
    zonal_decay_family,
)
from .strichartz import bilinear_l2, l4_norm_beam
from .znls import NLSConfig, smoothing_residual, solve

__all__ = [
    "ExperimentResult",
    "write_rows",
    "DEFAULT_STEP_JUMPS",
    "DEFAULT_TRIANGLE",
    "run_quantization",
    "run_torus_step_dimension",
    "run_polygon_dimension",
    "run_zonal_dimension",
    "run_beam_dimension",
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


@dataclass(frozen=True)
class ExperimentResult:
    """One driver run: headline numbers, row data, and a verdict.

    Attributes
    ----------
    name : str
        Driver identifier (matches the CLI subcommand).
    passed : bool
        All configured criteria met.
    measured : dict
        Headline scalars (medians, exponents, residuals).
    criteria : dict
        The thresholds the verdict was evaluated against.
    rows : tuple
        Per-row dicts for CSV export (shared key set).
    tables : dict
        Tables the study built, by output stem, for the caller to save
        next to the summary with ``table.save(json_path, csv_path)``;
        not part of ``summary()``.
    failure : str
        Why the verdict failed regardless of the criteria; set when a
        measured value is NaN or infinite, which always fails.
    """

    name: str
    passed: bool
    measured: dict
    criteria: dict
    rows: tuple
    tables: dict = field(default_factory=dict)
    failure: str = field(default="", init=False)

    def __post_init__(self) -> None:
        bad = [k for k, v in self.measured.items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            object.__setattr__(self, "passed", False)
            object.__setattr__(
                self, "failure", "non-finite measured value: " + ", ".join(bad)
            )

    def summary(self, config: dict, seed: int, config_hash: str) -> dict:
        out = {
            "subcommand": self.name,
            "version": __version__,
            "seed": seed,
            "config": config,
            "config_hash": config_hash,
            "measured": self.measured,
            "criteria": self.criteria,
            "passed": self.passed,
        }
        if self.failure:
            out["failure"] = self.failure
        return out


def _nan_max(values) -> float:
    """Largest of 0.0 and the values; NaN if any value is NaN.

    Python's ``max`` keeps whichever operand compares larger, and every
    comparison with NaN is false, so it can silently drop a NaN.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows(path, rows) -> None:
    """Deterministic CSV: keys of the first row, repr-exact floats."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in fields) + "\n")


def run_quantization(
    m_max: int = 2**12,
    q_max: int = 12,
    tol: float = 1e-8,
    p: int | None = None,
    q: int | None = None,
) -> ExperimentResult:
    """Rational-time reconstruction residual over reduced p/q pairs.

    At t = 2 pi p / q the evolved step data must equal a combination
    of q translates of the initial data with discrete-Gauss-sum
    weights; the sup-norm residual is roundoff when the arithmetic is
    right.  By default every reduced fraction with q <= q_max is
    checked; giving q (and optionally p) restricts the sweep.
    """
    spec = torus_step(list(DEFAULT_STEP_JUMPS), m_max=m_max)
    if q is not None:
        pairs = [
            (pp, q) for pp in ([p] if p is not None else range(1, q + 1))
            if math.gcd(pp, q) == 1
        ]
        if not pairs:
            raise ValueError("p and q must be coprime")
    else:
        pairs = [
            (pp, qq)
            for qq in range(1, q_max + 1)
            for pp in range(1, qq + 1)
            if math.gcd(pp, qq) == 1
        ]
    rows = []
    for pp, qq in pairs:
        check = quantization_check(spec, pp, qq)
        rows.append(
            {
                "p": pp,
                "q": qq,
                "grid_size": check.grid_size,
                "residual": check.residual,
            }
        )
    worst = _nan_max(row["residual"] for row in rows)
    return ExperimentResult(
        name="quantize",
        passed=worst < tol,
        measured={"max_residual": worst, "pairs": len(rows)},
        criteria={"max_residual_lt": tol, "q_max": q_max, "m_max": m_max},
        rows=tuple(rows),
    )


def _dimension_panel(spec, grid: int, window, seed: int):
    """Per-time graph dimensions over the panel and their median maximum."""
    config = DomainConfig(grid_size=grid, window=tuple(window))
    rows = []
    for tp in time_panel(seed=seed):
        report = dim_t(spec, tp, config)
        rows.append(
            {
                "t": tp.t,
                "kind": tp.kind,
                "dim_real": report.real.slope,
                "dim_imag": report.imag.slope,
                "dim_max": report.max_slope,
            }
        )
    return rows, float(np.median([row["dim_max"] for row in rows]))


def run_torus_step_dimension(
    m_max: int = 2**14,
    grid: int = 2**16,
    window: tuple[int, int] = (5, 11),
    seed: int = 1729,
    expected: float = 1.5,
    tol: float = 0.1,
) -> ExperimentResult:
    """Panel-median graph dimension of evolved step data on T^1."""
    spec = torus_step(list(DEFAULT_STEP_JUMPS), m_max=m_max)
    rows, median = _dimension_panel(spec, grid, window, seed)
    return ExperimentResult(
        name="dimension-torus-step",
        passed=abs(median - expected) <= tol,
        measured={"median_dim": median},
        criteria={"expected": expected, "tol": tol, "m_max": m_max,
                  "grid": grid, "window": list(window)},
        rows=tuple(rows),
    )


def run_polygon_dimension(
    vertices: tuple[tuple[float, float], ...] = DEFAULT_TRIANGLE,
    m_max: int = 2**9,
    grid: int = 2048,
    window: tuple[int, int] = (3, 8),
    seed: int = 1729,
    expected: float = 2.5,
    tol: float = 0.2,
) -> ExperimentResult:
    """Panel-median graph dimension of an evolved polygon indicator on T^2."""
    spec = torus_polygon_indicator(list(vertices), m_max=m_max)
    rows, median = _dimension_panel(spec, grid, window, seed)
    return ExperimentResult(
        name="dimension-torus-polygon",
        passed=abs(median - expected) <= tol,
        measured={"median_dim": median},
        criteria={"expected": expected, "tol": tol, "m_max": m_max,
                  "grid": grid, "window": list(window)},
        rows=tuple(rows),
    )


def run_zonal_dimension(
    p: float = 1.5,
    n_max: int = 2047,
    grid: int = 2**14,
    window: tuple[int, int] = (4, 10),
    seed: int = 1729,
    band: tuple[float, float] = (1.0, 2.0),
) -> ExperimentResult:
    """Great-circle graph dimension of evolved zonal power-law data.

    The slice statistic is a heuristic (no covering theorem backs it);
    the verdict only checks the curve-dimension sanity band.
    """
    spec = zonal_decay_family(p, n_max, d=2)
    rows, median = _dimension_panel(spec, grid, window, seed)
    return ExperimentResult(
        name="dimension-zonal",
        passed=band[0] <= median <= band[1],
        measured={"median_dim": median},
        criteria={"band": list(band), "p": p, "n_max": n_max,
                  "grid": grid, "window": list(window)},
        rows=tuple(rows),
    )


def run_beam_dimension(
    degree: int = 64,
    grid: int = 2**14,
    window: tuple[int, int] = (4, 10),
    seed: int = 1729,
    band: tuple[float, float] = (1.0, 2.0),
) -> ExperimentResult:
    """Equator graph dimension of an evolved single Gaussian beam."""
    coef = np.zeros(degree + 1, dtype=complex)
    coef[degree] = 1.0
    spec = BeamSpectrum(sign=1, coef=coef)
    rows, median = _dimension_panel(spec, grid, window, seed)
    return ExperimentResult(
        name="dimension-beam",
        passed=band[0] <= median <= band[1],
        measured={"median_dim": median},
        criteria={"band": list(band), "degree": degree,
                  "grid": grid, "window": list(window)},
        rows=tuple(rows),
    )


def run_zonal_holder(
    p: float = 1.5,
    n_max: int = 8191,
    j_max: int = 12,
    weight_exponent: float = 0.4,
    window: tuple[int, int] = (2, 12),
    seed: int = 1729,
    slope_tol: float = 0.02,
) -> ExperimentResult:
    """Boundedness of 2^{0.4 j} ||P_{2^j} u||_inf across the panel.

    For power-law zonal data the evolved field stays Holder
    continuous, so the weighted dyadic sup norms must show no growth
    trend in j; the verdict bounds the panel-median fitted slope.
    """
    data = zonal_decay_family(p, n_max, d=2)
    panel = time_panel(seed=seed)
    rows = []
    slopes = []
    levels = np.arange(window[0], window[1] + 1)
    for tp in panel:
        evolved = propagate_sphere(data, tp)
        table = block_norm_table(evolved, "inf", j_max)
        norms = np.asarray(table.norms)[levels]
        weighted = weight_exponent * levels + np.log2(norms)
        fit = fit_line(levels, weighted)
        slopes.append(fit.slope)
        rows.append(
            {
                "t": tp.t,
                "kind": tp.kind,
                "slope": fit.slope,
                "peak_level": int(levels[np.argmax(weighted)]),
                "peak_weighted_norm": float(2.0 ** weighted.max()),
            }
        )
    median = float(np.median(slopes))
    return ExperimentResult(
        name="zonal-holder",
        passed=median <= slope_tol,
        measured={"median_slope": median},
        criteria={"slope_tol": slope_tol, "p": p, "n_max": n_max,
                  "weight_exponent": weight_exponent, "window": list(window)},
        rows=tuple(rows),
    )


def run_weyl_decay(
    p: float = 1.5,
    exponent_range: tuple[int, int] = (4, 11),
    grid_factor: int = 16,
    seed: int = 1729,
    expected: float = -1.0,
    tol: float = 0.1,
) -> ExperimentResult:
    """Panel-median decay exponent of weighted Weyl block suprema.

    Weights b_n = n^{-p} give square-root cancellation over the block,
    so the running sup should scale like N^{1/2 - p}.
    """
    panel = time_panel(seed=seed)
    blocks = [2**k for k in range(exponent_range[0], exponent_range[1] + 1)]
    rows = []
    exponents = []
    for tp in panel:
        sups = []
        for block in blocks:
            res = weyl_block_sup(
                tp.t, block, weights=lambda m: float(m) ** (-p),
                grid_factor=grid_factor,
            )
            sups.append(res.sup)
            rows.append({"t": tp.t, "kind": tp.kind, "N": block, "sup": res.sup})
        fit = fit_loglog(blocks, sups, base=2)
        exponents.append(fit.slope)
    median = float(np.median(exponents))
    return ExperimentResult(
        name="weyl",
        passed=abs(median - expected) <= tol,
        measured={"median_exponent": median},
        criteria={"expected": expected, "tol": tol, "p": p,
                  "blocks": blocks, "grid_factor": grid_factor},
        rows=tuple(rows),
    )


def run_kappa_suite(
    n_max: int = 12,
    dims: tuple[int, ...] = (2, 3),
    scan_n_max: int = 64,
    nonneg_tol: float = -1e-10,
    support_tol: float = 1e-10,
    parseval_tol: float = 1e-8,
) -> ExperimentResult:
    """Gaunt-integral identities and the Lambda classification scan."""
    rows = []
    passed = True
    measured = {}
    tables = {}
    rng = np.random.default_rng(0)
    for d in dims:
        table = KappaTable.build(n_max, d)
        tables[f"kappa-values-d{d}"] = table
        min_entry = table.min_entry()
        support_max = _nan_max(
            abs(value)
            for key, value in {**table.triples, **table.quads}.items()
            if not admissible(key)
        )
        # Permutation exactness: canonical storage vs shuffled queries.
        defects = []
        keys = list(table.quads.keys())
        for key in [keys[int(i)] for i in rng.integers(0, len(keys), 12)]:
            shuffled = list(key)
            rng.shuffle(shuffled)
            defects.append(abs(table.value(shuffled) - table.value(key)))
        perm_defect = _nan_max(defects)
        # Parseval composition across every canonical 4-tuple.
        triple = _triple_tensor(n_max, d)
        parseval_max = _nan_max(
            abs(float(triple[:, a, b] @ triple[:, c, e]) - direct)
            for (a, b, c, e), direct in table.quads.items()
        )
        unclassified = count_unclassified(scan_n_max, d)
        c1, c2 = FROZEN_LAMBDA_CONSTANTS[d]
        ok = (
            min_entry >= nonneg_tol
            and support_max < support_tol
            and perm_defect == 0.0
            and parseval_max < parseval_tol
            and unclassified == 0
        )
        passed = passed and ok
        measured[f"d{d}_min_entry"] = min_entry
        measured[f"d{d}_support_max"] = support_max
        measured[f"d{d}_parseval_max"] = parseval_max
        measured[f"d{d}_unclassified"] = unclassified
        rows.append(
            {
                "d": d,
                "min_entry": min_entry,
                "support_max": support_max,
                "permutation_defect": perm_defect,
                "parseval_max": parseval_max,
                "unclassified": unclassified,
                "c1": c1,
                "c2": c2,
                "passed": ok,
            }
        )
    return ExperimentResult(
        name="kappa-table",
        passed=passed,
        measured=measured,
        criteria={
            "nonneg_tol": nonneg_tol,
            "support_tol": support_tol,
            "parseval_tol": parseval_tol,
            "scan_n_max": scan_n_max,
            "n_max": n_max,
        },
        rows=tuple(rows),
        tables=tables,
    )


def _triple_tensor(n_max: int, d: int) -> np.ndarray:
    """kappa(n, a, b) for n <= 2 n_max and a, b <= n_max."""
    from .gaunt import QuadratureRule

    rule = QuadratureRule.for_degree(4 * n_max, d)
    table = zonal_harmonic_table(2 * n_max, d, rule.nodes)
    ratio = SphereConstants.for_dimension(d).weight_ratio
    out = np.zeros((2 * n_max + 1, n_max + 1, n_max + 1))
    for a in range(n_max + 1):
        for b in range(a, n_max + 1):
            pair = rule.weights * table[a] * table[b]
            vals = ratio * (table @ pair)
            out[:, a, b] = vals
            out[:, b, a] = vals
    return out


def run_resonance_decay(
    n2: int = 3,
    n3: int = 5,
    d: int = 2,
    degrees: tuple[int, ...] = (16, 32, 64, 128, 256),
    max_exponent: float = -0.9,
) -> ExperimentResult:
    """Decay of kappa(n, n, n2, n3) toward its meridian line integral."""
    rows = []
    diffs = []
    for n in degrees:
        k_val, line, diff = resonance_compare(n, n2, n3, d)
        rows.append({"n": n, "kappa": k_val, "line_integral": line,
                     "difference": diff})
        diffs.append(abs(diff))
    fit = fit_loglog(list(degrees), diffs, base=2)
    return ExperimentResult(
        name="resonance",
        passed=fit.slope <= max_exponent,
        measured={"decay_exponent": fit.slope, "stderr": fit.stderr},
        criteria={"max_exponent": max_exponent, "n2": n2, "n3": n3, "d": d},
        rows=tuple(rows),
    )


def run_bilinear_contrast(
    p: float = 1.5,
    block_n: int = 128,
    m_blocks: tuple[int, ...] = (4, 8, 16, 32, 64),
    beam_degrees: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512),
    bilinear_tol: float = 0.15,
    beam_expected: float = 0.5,
    beam_tol: float = 0.1,
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
    for m in m_blocks:
        g_norm = float(np.linalg.norm(data.coef[m:2 * m]))
        value = bilinear_l2(data, data, block_n, m)
        ratio = value / (f_norm * g_norm)
        ratios.append(ratio)
        rows.append({"study": "bilinear", "index": m, "value": value,
                     "ratio": ratio})
    bil_fit = fit_loglog(list(m_blocks), ratios, base=2)
    quartics = []
    for n in beam_degrees:
        q = l4_norm_beam(int(n))
        quartics.append(q)
        rows.append({"study": "beam-quartic", "index": int(n), "value": q,
                     "ratio": float("nan")})
    beam_fit = fit_loglog(list(beam_degrees), quartics, base=2)
    passed = (
        bil_fit.slope <= bilinear_tol
        and abs(beam_fit.slope - beam_expected) <= beam_tol
    )
    return ExperimentResult(
        name="strichartz",
        passed=passed,
        measured={
            "bilinear_exponent": bil_fit.slope,
            "beam_quartic_exponent": beam_fit.slope,
        },
        criteria={
            "bilinear_tol": bilinear_tol,
            "beam_expected": beam_expected,
            "beam_tol": beam_tol,
            "block_n": block_n,
            "m_blocks": list(m_blocks),
            "beam_degrees": list(beam_degrees),
        },
        rows=tuple(rows),
    )


def run_nls_smoothing(
    p: float = 1.1,
    n_max: int = 256,
    dt: float = 1e-3,
    t_final: float = 0.1,
    sign: int = 1,
    s: float = 0.5,
    eps: float = 0.25,
    fit_n_min: int = 8,
    mass_tol: float = 1e-8,
    gain_min: float = 0.2,
    single_mode_dt: float = 1e-4,
    single_mode_tol: float = 1e-10,
) -> ExperimentResult:
    """Mass conservation, tail smoothing, and single-mode exactness.

    The residual r(t) = u(t) - e^{it Delta} e^{i sigma Phi} u(0) must
    carry a faster-decaying dyadic tail than the solution; the gap of
    fitted tail exponents is the measured smoothing gain.
    """
    data = zonal_decay_family(p, n_max, d=2)
    config = NLSConfig(n_max=n_max, dt=dt, t_final=t_final)
    trajectory = solve(data, config, sign=sign)
    drift = trajectory.mass_drift()
    table = smoothing_residual(trajectory, s=s, eps=eps)
    keep = table.n_values >= fit_n_min
    fit_r = fit_loglog(table.n_values[keep], table.r_norms[keep], base=2)
    fit_u = fit_loglog(table.n_values[keep], table.u_norms[keep], base=2)
    gain = fit_u.slope - fit_r.slope
    amp = 0.55 - 0.3j
    single = ZonalSpectrum(d=2, coef=np.array([amp, 0, 0, 0], dtype=complex))
    cfg_single = NLSConfig(n_max=3, dt=single_mode_dt, t_final=t_final)
    traj_single = solve(single, cfg_single, sign=sign)
    exact = amp * np.exp(1j * sign * abs(amp) ** 2 * t_final)
    single_err = float(abs(traj_single.final.spectrum.coef[0] - exact))
    passed = (
        drift < mass_tol and gain >= gain_min and single_err < single_mode_tol
    )
    rows = [
        {
            "N": int(nv),
            "residual_norm": float(rn),
            "solution_norm": float(un),
            "residual_weighted": float(rw),
            "solution_weighted": float(uw),
        }
        for nv, rn, un, rw, uw in zip(
            table.n_values, table.r_norms, table.u_norms,
            table.r_weighted, table.u_weighted,
        )
    ]
    return ExperimentResult(
        name="nls-smoothing",
        passed=passed,
        measured={
            "mass_drift": drift,
            "residual_tail_exponent": fit_r.slope,
            "solution_tail_exponent": fit_u.slope,
            "smoothing_gain": gain,
            "single_mode_error": single_err,
        },
        criteria={
            "mass_tol": mass_tol,
            "gain_min": gain_min,
            "single_mode_tol": single_mode_tol,
            "p": p, "n_max": n_max, "dt": dt, "t_final": t_final,
            "fit_n_min": fit_n_min,
        },
        rows=tuple(rows),
    )


def run_specialfun_checks(
    ortho_n_max: int = 48,
    szego_degrees: tuple[int, ...] = (64, 128, 256, 512),
    theta_points: int = 512,
    d: int = 2,
    ortho_tol: float = 1e-10,
) -> ExperimentResult:
    """Orthonormality defect and the Szego remainder envelope.

    The envelope check measures max over theta of
    |Y_n - asymptotic| * n^{3/2} * sin(theta) per degree and requires
    one frozen constant to cover every degree in the panel.
    """
    from .gaunt import QuadratureRule

    rule = QuadratureRule.for_degree(2 * ortho_n_max, d)
    table = zonal_harmonic_table(ortho_n_max, d, rule.nodes)
    ratio = SphereConstants.for_dimension(d).weight_ratio
    gram = ratio * ((table * rule.weights) @ table.T)
    ortho_defect = float(np.max(np.abs(gram - np.eye(ortho_n_max + 1))))
    envelope_c = SZEGO_REMAINDER_C[d]
    rows = []
    for n in szego_degrees:
        lo = SZEGO_WINDOW_C / n
        theta = np.linspace(lo, math.pi - lo, theta_points)
        exact = jacobi_symmetric(n, d, np.cos(theta))
        approx, _ = jacobi_asymptotic(n, d, theta)
        scaled = np.abs(exact - approx) * float(n) ** 1.5 * np.sin(theta)
        c_n = float(scaled.max())
        rows.append({"n": int(n), "envelope_constant": c_n})
    fitted_c = _nan_max(row["envelope_constant"] for row in rows)
    passed = ortho_defect < ortho_tol and fitted_c <= envelope_c
    return ExperimentResult(
        name="specfun-check",
        passed=passed,
        measured={
            "orthonormality_defect": ortho_defect,
            "fitted_envelope_constant": fitted_c,
        },
        criteria={
            "ortho_tol": ortho_tol,
            "envelope_constant_max": envelope_c,
            "ortho_n_max": ortho_n_max,
            "szego_degrees": list(szego_degrees),
        },
        rows=tuple(rows),
    )
