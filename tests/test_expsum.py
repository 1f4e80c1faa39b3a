"""Weyl block suprema: brute-force and mpmath cross-checks."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotlab import evolve
from talbotlab.evolve import time_panel
from talbotlab.experiments import run_weyl_decay
from talbotlab.expsum import _chunk_reach, weyl_block_sup


def unit(n):
    """The unweighted block: b_n = 1."""
    return 1.0


def quadratic_phases(t, n):
    """e^{i n^2 t} for the double t, the phase reduced in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return np.array([complex(mpmath.expj(mpmath.mpf(int(v) ** 2) * t)) for v in n])


def brute_block_sup(t, big_n, weights, grid_factor=16):
    """Direct O(N^2 grid) evaluation of the running block supremum."""
    n = np.arange(big_n, 2 * big_n + 1)
    b = np.array([weights(int(v)) for v in n], dtype=complex)
    x = 2.0 * math.pi * np.arange(grid_factor * big_n) / (grid_factor * big_n)
    terms = (b * quadratic_phases(t, n))[None, :] * np.exp(1j * np.outer(x, n))
    partials = np.cumsum(terms, axis=1)
    return float(np.max(np.abs(partials)))


@pytest.mark.parametrize("t", [0.3, 2 * math.pi * (math.sqrt(5) - 1) / 2, 2 * math.pi / 3])
def test_block_sup_matches_brute_force(t):
    for big_n in (4, 9, 16):
        ours = weyl_block_sup(t, big_n, weights=unit)
        ref = brute_block_sup(t, big_n, weights=unit)
        assert ours.sup == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_weighted_and_damped_blocks_match_brute_force():
    t = 1.1
    big_n = 8

    def weight(n):
        return n**-1.5

    ours = weyl_block_sup(t, big_n, weights=weight)
    ref = brute_block_sup(t, big_n, weights=weight)
    assert ours.sup == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_block_argmax_is_attained():
    t = 0.71
    res = weyl_block_sup(t, 12, weights=unit)
    n = np.arange(12, res.argmax_u + 1)
    val = np.sum(np.exp(1j * (n**2 * t + n * res.argmax_x)))
    assert abs(val) == pytest.approx(res.sup, rel=1e-12, abs=0.0)


def _direct_value(t, big_n, u, x, b):
    """|S(u, x)| summed term by term with directly computed phases."""
    n = np.arange(big_n, u + 1)
    return abs(np.sum(b[: n.size] * quadratic_phases(t, n) * np.exp(1j * n * x)))


@st.composite
def weyl_cases(draw):
    big_n = draw(st.integers(1, 40))
    grid_factor = draw(st.integers(1, 16))  # grid_factor * N < 2N + 1 folds
    if draw(st.booleans()):
        q = draw(st.integers(1, 12))
        t = 2.0 * math.pi * draw(st.integers(0, q)) / q
    else:
        t = draw(st.floats(-20.0, 20.0, allow_nan=False))
    kind = draw(st.sampled_from(("unit", "callable")))
    seed = draw(st.integers(0, 2**32 - 1))
    return big_n, grid_factor, t, kind, seed


@settings(max_examples=120)
@given(weyl_cases())
def test_block_sup_property_matches_brute_force(case):
    big_n, grid_factor, t, kind, seed = case
    n = np.arange(big_n, 2 * big_n + 1)
    b = np.random.default_rng(seed).standard_normal(n.size)
    if kind == "unit":
        weights, b = unit, np.ones(n.size)
    else:
        weights = dict(zip(n.tolist(), b.tolist())).__getitem__
    res = weyl_block_sup(t, big_n, weights=weights, grid_factor=grid_factor)
    ref = brute_block_sup(t, big_n, weights=weights, grid_factor=grid_factor)
    assert res.sup == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert big_n <= res.argmax_u <= 2 * big_n
    j = round(res.argmax_x * grid_factor * big_n / (2 * math.pi))
    assert res.argmax_x == 2.0 * math.pi * j / (grid_factor * big_n)
    attained = _direct_value(t, big_n, res.argmax_u, res.argmax_x, b)
    assert attained == pytest.approx(res.sup, rel=1e-12, abs=0.0)


def _direct_phase_sup(t, big_n, grid_factor, p):
    """max over every prefix u and grid point x_j of |S(u, x_j)|, with
    phases e^{i n^2 t} from mpmath, e^{i n x_j} from exact indices
    (n j) mod G and cumulative sums over n in column chunks."""
    grid = grid_factor * big_n
    n = np.arange(big_n, 2 * big_n + 1)
    coef = n.astype(float) ** -p * quadratic_phases(t, n)
    roots = np.exp(2j * np.pi * np.arange(grid) / grid)
    ref = 0.0
    for cols in np.array_split(np.arange(grid), 64):
        terms = coef[:, None] * roots[n[:, None] * cols[None, :] % grid]
        ref = max(ref, float(np.max(np.abs(np.cumsum(terms, axis=0)))))
    return ref


def _attained_30_digits(t, big_n, grid, p, res):
    """|S(argmax_u, argmax_x)| summed in 30-digit arithmetic."""
    with mpmath.workdps(30):
        x = 2 * mpmath.pi * round(res.argmax_x * grid / (2 * math.pi)) / grid
        return float(abs(mpmath.fsum(
            mpmath.mpf(v) ** -p * mpmath.expj(v * v * mpmath.mpf(t) + v * x)
            for v in range(big_n, res.argmax_u + 1))))


def test_block_sup_at_acceptance_scale_matches_direct_phase_oracle():
    """One N = 2048, grid_factor 16 block of the weyl study at a panel time.

    The reference takes every prefix u at every grid point
    (``_direct_phase_sup``).  The sup must agree to 1e-12 relative, and
    the reported argmax must attain the sup to 1e-13 relative when
    S(u, x) is summed in 30-digit arithmetic.  At this time the
    reference is within 7e-16 of mpmath, the FFT path within 5e-16, and
    the former phase recurrence was off by 1.8e-12.
    """
    big_n, grid_factor, p = 2048, 16, 1.5
    t = time_panel(seed=1729)[0]
    res = weyl_block_sup(t, big_n, weights=lambda m: float(m) ** -p, grid_factor=grid_factor)
    ref = _direct_phase_sup(t, big_n, grid_factor, p)
    assert res.sup == pytest.approx(ref, rel=1e-12, abs=0.0)
    exact = _attained_30_digits(t, big_n, grid_factor * big_n, p, res)
    assert res.sup == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_block_sup_at_a_rational_time_matches_direct_phase_oracle():
    """An N = 1024, grid_factor 16 block at t = 2 pi / 3, where the terms
    of a chunk do not cancel, so the chunk bounds that prune the refine
    pass are loosest: 0.63 of the triangle bound sum_chunk |c_n| at 32
    terms, against 0.35 at the first panel time.  The sup must match
    ``_direct_phase_sup`` to 1e-12 relative, and the reported argmax
    must attain it in 30-digit arithmetic."""
    big_n, grid_factor, p = 1024, 16, 1.5
    t = 2 * math.pi / 3
    res = weyl_block_sup(t, big_n, weights=lambda m: float(m) ** -p, grid_factor=grid_factor)
    ref = _direct_phase_sup(t, big_n, grid_factor, p)
    assert res.sup == pytest.approx(ref, rel=1e-12, abs=0.0)
    exact = _attained_30_digits(t, big_n, grid_factor * big_n, p, res)
    assert res.sup == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_acceptance_block_makes_few_fft_rows(monkeypatch):
    """One N = 2048, grid_factor 16 block at the first panel time
    requests 42 inverse-FFT rows of 32768 points: 9 for the bound pass
    (256-term chunks) and 33 for the refine pass (64-term chunks).
    Pruning 16-term chunks with the triangle inequality took 33 + 129 =
    162; the guard allows half of that."""
    big_n, grid_factor = 2048, 16
    rows = []
    ifft = np.fft.ifft

    def counting_ifft(a, *args, **kwargs):
        rows.append(np.size(a) // (grid_factor * big_n))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    weyl_block_sup(time_panel(seed=1729)[0], big_n,
                   weights=lambda m: float(m) ** -1.5, grid_factor=grid_factor)
    assert 0 < sum(rows) <= 81


@settings(max_examples=60)
@given(st.sampled_from((1, 2, 5, 16, 64)), st.data())
def test_chunk_reach_bounds_every_partial_sum(size, data):
    """Each chunk's reach is at least every partial sum of the chunk on a
    grid 256 times finer than its M = 4 size samples, shifted by half a
    step, and at most sec(pi (size - 1) / (2 M)) times that maximum (up
    to the fine grid's own factor sec(pi (size - 1) / (512 M)), since
    the fine grid misses the samples).  All-ones chunks do not cancel
    at x = 0."""
    length = data.draw(st.integers(1, 3 * size))
    if data.draw(st.booleans()):
        coef = np.ones(length, dtype=complex)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        coef = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    reach = _chunk_reach(coef, size)
    assert reach.shape == (-(-length // size),)
    samples = 4 * size
    fine = 256 * samples
    step = np.exp(2j * np.pi * (np.arange(fine) + 0.5) / fine)
    loose = 1 / math.cos(math.pi * (size - 1) / (2 * samples))
    loose /= math.cos(math.pi * (size - 1) / (2 * fine))
    for k, lo in enumerate(range(0, length, size)):
        partial, power, top = np.zeros(fine, dtype=complex), np.ones(fine, dtype=complex), 0.0
        for c in coef[lo:lo + size]:
            partial += c * power
            power *= step
            top = max(top, float(np.max(np.abs(partial))))
        assert top <= reach[k] <= loose * top


def test_block_validation():
    with pytest.raises(ValueError):
        weyl_block_sup(0.5, 0, weights=unit)
    with pytest.raises(ValueError):
        weyl_block_sup(0.5, 4, weights=unit, grid_factor=0)
    assert math.isnan(weyl_block_sup(math.nan, 4, weights=unit).sup)


def test_rational_time_shows_no_decay():
    """At t = 2 pi p / q the normalized block sums stay of size ~ N."""
    t = 2 * math.pi / 5
    sups = [weyl_block_sup(t, big_n, weights=unit).sup / big_n for big_n in (8, 16, 32, 64)]
    assert min(sups) > 0.3


def _weyl_panel_peak(monkeypatch, workers):
    """tracemalloc peak of the criterion-5 panel (8 times x blocks 2^4..2^11,
    grid factor 16) with its 64 block jobs on ``workers`` pool workers."""
    monkeypatch.setattr(evolve, "_worker_count", lambda: workers)
    tracemalloc.start()
    try:
        run_weyl_decay()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weyl_panel_peak_memory_per_worker(monkeypatch):
    """Each job holds one block's scratch, about 16 MiB at N = 2048, and
    the pool runs one job per worker.  Measured 16.1 / 28.6 / 54.7 MiB
    at 1 / 2 / 4 workers, so criterion 5 stays below criterion 3's
    43.5 MiB dim_t at two workers."""
    two = _weyl_panel_peak(monkeypatch, 2)
    assert two < 32 * 2**20
    assert _weyl_panel_peak(monkeypatch, 4) - two <= 2 * 16 * 2**20
