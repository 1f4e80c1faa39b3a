"""Box-counting dimension estimates on graphs of known fractal dimension."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate_torus_whole
from talbotlab import evolve
from talbotlab.evolve import evaluate_torus, propagate_torus, time_panel
from talbotlab.experiments import DEFAULT_STEP_JUMPS, DEFAULT_TRIANGLE
from talbotlab.fitting import fit_line
from talbotlab.fractal import (
    _torus_box_counts,
    box_count_curve,
    box_count_series,
    box_count_surface,
    dim_t,
)
from talbotlab.spectra import torus_polygon_indicator, torus_step

SQUARE_WAVE = ((0.0, 1.0), (math.pi, -1.0))


def weierstrass(x, a=0.5, b=3, terms=40):
    """W(x) = sum a^k cos(b^k pi x), graph dimension 2 + log_b a."""
    return sum(a**k * np.cos(b**k * np.pi * x) for k in range(terms))


def dimension_slope(samples, levels):
    """Slope of log2 N(k) against k over the given levels."""
    levels = list(levels)
    return fit_line(levels, np.log2(box_count_series(samples, levels))).slope


def reshape_box_count(samples, k):
    """Per-level box count from a reshaped block array (test oracle).

    Each level reshapes the whole grid into its 2^k (or 4^k) cells and
    reduces every cell with max/min, independently of other levels.
    """
    values = np.asarray(samples, dtype=float)
    cols = 1 << k
    if values.ndim == 1:
        blocks = values.reshape(cols, -1)
        osc = blocks.max(axis=1) - blocks.min(axis=1)
    else:
        blocks = values.reshape(cols, values.shape[0] // cols, cols, values.shape[1] // cols)
        osc = blocks.max(axis=(1, 3)) - blocks.min(axis=(1, 3))
    return int(np.sum(np.floor(osc / 2.0 ** (-k)) + 1.0))


# Samples per cell at the finest level, per axis: powers of 2 and
# 3 * 2^j, 5 * 2^j multiples, all at least the required 4.
RATIOS = (4, 5, 6, 8, 10, 12, 20)


@st.composite
def pyramid_cases(draw):
    ndim = draw(st.sampled_from((1, 2)))
    top = draw(st.integers(0, 6 if ndim == 1 else 4))
    shape = tuple(draw(st.sampled_from(RATIOS)) << top for _ in range(ndim))
    levels = draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
    levels.append(top)
    levels = draw(st.permutations(levels))
    seed = draw(st.integers(0, 2**32 - 1))
    quantized = draw(st.booleans())
    view = draw(st.sampled_from(("plain", "real", "imag", "transposed")))
    return shape, levels, seed, quantized, view


@settings(max_examples=80)
@given(pyramid_cases())
def test_pyramid_counts_equal_per_level_reshape_counts(case):
    shape, levels, seed, quantized, view = case
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = field.cumsum(axis=0) * 2.0 ** -rng.integers(0, 8)
    if quantized:  # dyadic values put oscillations exactly on box edges
        field = np.round(field * 8.0) / 8.0
    if view == "plain":
        samples = np.ascontiguousarray(field.real)
    elif view == "real":
        samples = field.real
    elif view == "imag":
        samples = field.imag
    else:
        samples = np.ascontiguousarray(field.real.T).T
    counts = box_count_series(samples, levels)
    assert counts.tolist() == [float(reshape_box_count(samples, k)) for k in levels]
    k = levels[0]
    single = box_count_surface(samples, k) if samples.ndim == 2 else box_count_curve(samples, k)
    assert single == reshape_box_count(samples, k)


def test_series_validation():
    with pytest.raises(ValueError):
        box_count_series(np.zeros((8, 8, 8)), [0])
    with pytest.raises(ValueError):
        box_count_series(np.zeros((128, 96)), [3, 5])  # 96 < 4 * 2^5
    with pytest.raises(ValueError):
        box_count_series(np.zeros((128, 100)), [2, 3])  # 100 not divisible by 8
    with pytest.raises(ValueError):
        box_count_series(np.zeros(64), [-1, 2])
    with pytest.raises(ValueError):
        box_count_surface(np.zeros(64), 2)
    assert box_count_series(np.zeros(64), []).size == 0


def test_constant_counts_one_box_per_column():
    samples = np.full(4096, 0.37)
    for k in (2, 4, 6):
        assert box_count_curve(samples, k) == 2**k


def test_linear_graph_has_dimension_one():
    x = np.linspace(0.0, 1.0, 2**14, endpoint=False)
    assert dimension_slope(2.0 * x, range(3, 10)) == pytest.approx(1.0, abs=0.05)


def test_smooth_graph_has_dimension_one():
    x = np.linspace(0.0, 2 * np.pi, 2**14, endpoint=False)
    assert dimension_slope(np.sin(x), range(4, 10)) == pytest.approx(1.0, abs=0.07)


def test_weierstrass_dimension():
    """W with a=1/2, b=3 has graph dimension 2 - log 2 / log 3 ~ 1.369."""
    x = np.linspace(0.0, 1.0, 2**16, endpoint=False)
    expected = 2.0 - math.log(2) / math.log(3)
    assert dimension_slope(weierstrass(x), range(5, 11)) == pytest.approx(expected, abs=0.1)


def test_count_is_monotone_and_bounded():
    x = np.linspace(0.0, 1.0, 2**13, endpoint=False)
    y = weierstrass(x)
    spread = float(np.max(y) - np.min(y))
    counts = [box_count_curve(y, k) for k in range(2, 10)]
    for a, b in zip(counts, counts[1:]):
        assert b >= a
    for k, c in zip(range(2, 10), counts):
        eps = 2.0**-k
        assert 2**k <= c <= 2**k * (spread / eps + 1)


def test_grid_requirements_enforced():
    with pytest.raises(ValueError):
        box_count_curve(np.zeros(100), 5)  # not divisible by 32
    with pytest.raises(ValueError):
        box_count_curve(np.zeros(64), 5)  # fewer than 4 samples per column


def test_surface_of_smooth_function_has_dimension_two():
    n = 2**9
    x = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    z = np.sin(x)[:, None] * np.cos(x)[None, :]
    counts = [box_count_surface(z, k) for k in range(2, 7)]
    est = fit_line(range(2, 7), np.log2(counts))
    assert est.slope == pytest.approx(2.0, abs=0.1)


def test_tensor_product_surface_identity():
    """For u(x) tensor constant(y), N_surface = 2^k N_curve exactly."""
    n = 2**10
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    curve = weierstrass(x)
    sheet = np.tile(curve[:, None], (1, n))
    for k in (3, 5, 7):
        assert box_count_surface(sheet, k) == 2**k * box_count_curve(curve, k)


def test_refinement_stability():
    """Doubling the sampling grid moves fitted slopes only slightly."""
    expected = 2.0 - math.log(2) / math.log(3)
    slopes = []
    for size in (2**14, 2**15):
        x = np.linspace(0.0, 1.0, size, endpoint=False)
        slopes.append(dimension_slope(weierstrass(x), range(5, 11)))
    assert abs(slopes[0] - slopes[1]) < 0.05 * expected


def test_dim_t_window_validation():
    spec = torus_step(SQUARE_WAVE, 16)
    with pytest.raises(ValueError, match="four levels"):
        dim_t(spec, 1.0, 2**10, (2, 4))  # only three levels in window
    assert dim_t(spec, 1.0, 2**10, (2, 5)).real.slope > 0.0


def test_dim_t_torus_step_at_irrational_time():
    spec = torus_step(SQUARE_WAVE, 1024)
    report = dim_t(spec, 2 * math.pi * 0.6180339887, 2**13, (4, 8))
    assert 1.2 <= report.real.slope <= 1.8
    assert 1.2 <= report.imag.slope <= 1.8
    assert report.max_slope == max(report.real.slope, report.imag.slope)


def test_dim_t_torus_step_at_rational_time_is_piecewise():
    """At rational times the profile is a step function again: dimension 1."""
    spec = torus_step(SQUARE_WAVE, 4096)
    report = dim_t(spec, 2 * math.pi / 4, 2**14, (4, 9))
    assert report.max_slope <= 1.25


def _dim_t_peak(monkeypatch, workers):
    """tracemalloc peak of one dim_t on the criterion-3 triangle (m_max
    512, grid 2048^2) with the strip pool at ``workers`` workers."""
    monkeypatch.setattr(evolve, "_worker_count", lambda: workers)
    spec = torus_polygon_indicator(DEFAULT_TRIANGLE, 512)
    tracemalloc.start()
    try:
        dim_t(spec, time_panel()[0], 2048, (3, 8))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dim_t_peak_memory_at_criterion_3_scale(monkeypatch):
    """One dim_t at criterion-3 scale with two pool workers peaks below
    48 MiB.  Measured 43.5 MiB: the 32 MiB slab of the row pass, which
    applies the time phases chunk by chunk, then a 4 MiB column strip
    and its reduction per worker; neither the propagated box nor the
    field is built.  Propagating the whole box first peaked at 59.6 MiB,
    a whole-field evaluation at 112 MiB, and the full-box one before it
    at 208 MiB."""
    assert _dim_t_peak(monkeypatch, 2) < 48 * 2**20


def test_dim_t_peak_memory_per_worker(monkeypatch):
    """Each worker past two adds at most about one strip and its
    reduction (6 MiB), and at the pool's cap a dim_t at criterion-3
    scale stays below the 112 MiB of a whole-field evaluation."""
    two = _dim_t_peak(monkeypatch, 2)
    assert _dim_t_peak(monkeypatch, 8) - two < 6 * 6 * 2**20
    assert _dim_t_peak(monkeypatch, evolve._MAX_WORKERS) < 112 * 2**20


def test_worker_count_follows_the_cpus_up_to_the_cap(monkeypatch):
    """The pool takes the affinity mask where the platform has one, else
    the CPU count, and never more than _MAX_WORKERS workers."""
    monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert evolve._worker_count() == evolve._MAX_WORKERS
    monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert evolve._worker_count() == 1
    monkeypatch.delattr(evolve.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(evolve.os, "cpu_count", lambda: 3)
    assert evolve._worker_count() == 3
    monkeypatch.setattr(evolve.os, "cpu_count", lambda: None)
    assert evolve._worker_count() == 1


# Case -> (data, grid, fit window).  The criterion-3 triangle gives 16
# full strips of 128 columns; the criterion-2 step data are one strip;
# the aliasing grid (256 < 2 * 160 + 1) folds in each of its two
# strips; at grid 640 and top level 5 a strip holds 6 cells of 20
# columns, so the last strip is 40 columns wide.
STRIP_CASES = {
    "criterion-3": (lambda: torus_polygon_indicator(DEFAULT_TRIANGLE, 512), 2048, (3, 8)),
    "step": (lambda: torus_step(DEFAULT_STEP_JUMPS, 2**14), 2**16, (5, 11)),
    "aliasing": (lambda: torus_polygon_indicator(DEFAULT_TRIANGLE, 160), 256, (2, 6)),
    "short-last-strip": (lambda: torus_polygon_indicator(DEFAULT_TRIANGLE, 100), 640, (2, 5)),
}


@pytest.mark.parametrize("case", sorted(STRIP_CASES))
def test_strip_counts_equal_whole_field_counts(case, recwarn):
    """The box counts dim_t takes from column strips equal, exactly,
    the counts of the whole field built at once, whether the strips
    apply the time phases in their row pass or get the propagated data,
    and the strips that evaluate_torus assembles are that field bit for
    bit."""
    build, grid, window = STRIP_CASES[case]
    t = time_panel()[1]
    data = build()
    spec = propagate_torus(data, t)
    levels = list(range(window[0], window[1] + 1))
    whole = evaluate_torus_whole(spec, grid)
    expected = [box_count_series(part, levels).tolist() for part in (whole.real, whole.imag)]
    assert _torus_box_counts(spec, grid, levels).tolist() == expected
    assert _torus_box_counts(data, grid, levels, t).tolist() == expected
    assert np.array_equal(evaluate_torus(spec, grid), whole)
    assert bool(recwarn.list) == (case == "aliasing")


def test_strips_on_more_workers_than_cores(monkeypatch):
    """Eight workers, one per row chunk or strip, switching threads every
    microsecond, still give the whole field's bits and counts, with the
    time phases applied in the row pass too: workers share only disjoint
    slices of the row-pass slab."""
    monkeypatch.setattr(evolve, "_worker_count", lambda: 8)
    t = time_panel()[2]
    data = torus_polygon_indicator(DEFAULT_TRIANGLE, 256)
    spec = propagate_torus(data, t)
    levels = [3, 4, 5, 6, 7]
    whole = evaluate_torus_whole(spec, 1024)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = _torus_box_counts(spec, 1024, levels)
        phased = _torus_box_counts(data, 1024, levels, t)
        field = evaluate_torus(spec, 1024)
    finally:
        sys.setswitchinterval(interval)
    expected = [box_count_series(part, levels).tolist() for part in (whole.real, whole.imag)]
    assert counts.tolist() == expected
    assert phased.tolist() == expected
    assert np.array_equal(field, whole)
