"""Product integrals of zonal harmonics and the frequency trichotomy."""

import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kappa, kappa_vector, quad_line_integral, quad_product_integral
from talbotlab import cli
from talbotlab.fitting import fit_loglog
from talbotlab.gaunt import (
    FROZEN_LAMBDA_CONSTANTS,
    KappaTable,
    QuadratureRule,
    admissible,
    count_unclassified,
    resonance_compare,
)
from talbotlab.znls import _Workspace


def h_symbol(n1, n2, n3, n, d=2):
    """Resonance symbol lambda_n - lambda_{n1} + lambda_{n2} - lambda_{n3},
    lambda_m = m (m + d - 1), in exact integer arithmetic."""

    def lam(m):
        return m * (m + d - 1)

    return lam(n) - lam(n1) + lam(n2) - lam(n3)


def lambda_classify(n1, n2, n3, n, d=2, constants=None):
    """Lambda set of one admissible tuple, tested one rule at a time
    (the scalar oracle of count_unclassified)."""
    if not admissible((n1, n2, n3, n)):
        raise ValueError("tuple violates the kappa support condition")
    c1, c2 = FROZEN_LAMBDA_CONSTANTS[d] if constants is None else constants
    if n1 == n or n3 == n:
        return "lambda0"
    # <n1><n2><n3> >= c1 n^{3/2}, squared in exact rational arithmetic.
    if c1 <= 0 or math.prod(1 + m * m for m in (n1, n2, n3)) >= Fraction(c1) ** 2 * n**3:
        return "lambda1"
    gap = max(n1, n2, n3) * abs(n - max(n1, n3))  # an integer: c2 * gap rounds once
    if abs(h_symbol(n1, n2, n3, n, d)) >= c2 * gap:
        return "lambda2"
    return "unclassified"


def calibrate_lambda_constants(n_max, d=2, c2=1.0):
    """(largest c1 leaving no admissible tuple with 1 <= n <= n_max
    unclassified, c2): the smallest <n1><n2><n3> / n^{3/2} over the
    tuples outside Lambda_0 and Lambda_2, on one 4-d broadcast grid."""
    m = np.arange(n_max + 1)
    n1, n2, n3, n = np.ix_(m, m, m, m[1:])
    lam = m * (m + d - 1)
    top = np.maximum(np.maximum(n1, n2), n3)
    left = (
        (2 * np.maximum(top, n) <= n1 + n2 + n3 + n)
        & (n1 != n) & (n3 != n)
        & (np.abs(lam[n] - lam[n1] + lam[n2] - lam[n3])
           < c2 * top * np.abs(n - np.maximum(n1, n3)))
    )
    bracket = np.sqrt(1.0 + m.astype(float) ** 2)
    ratio = bracket[n1] * bracket[n2] * bracket[n3] / n.astype(float) ** 1.5
    return float(np.min(ratio[left])), c2


def count_unclassified_scalar(n_max, d, constants):
    """count_unclassified tuple by tuple, through lambda_classify."""
    return sum(
        1 for n in range(1, n_max + 1)
        for n1, n2, n3 in itertools.product(range(n_max + 1), repeat=3)
        if admissible((n1, n2, n3, n))
        and lambda_classify(n1, n2, n3, n, d, constants) == "unclassified"
    )


def count_unclassified_cube(n_max, d, constants):
    """count_unclassified as a full scan: for every n, the whole
    (n_max+1)^3 cube of (n1, n2, n3) is tested against every rule."""
    c1, c2 = constants
    if c1 <= 0:
        return 0
    rng = np.arange(n_max + 1, dtype=np.int64)
    m1, m2, m3 = rng[:, None, None], rng[None, :, None], rng[None, None, :]
    br = 1 + rng * rng
    shift = d - 1
    count = 0
    for n in range(1, n_max + 1):
        top = np.maximum(np.maximum(m1, m2), np.maximum(m3, n))
        keep = 2 * top <= m1 + m2 + m3 + n
        keep &= (m1 != n) & (m3 != n)
        h = np.abs(
            n * (n + shift) - m1 * (m1 + shift) + m2 * (m2 + shift) - m3 * (m3 + shift)
        )
        gap = np.maximum(np.maximum(m1, m2), m3) * np.abs(n - np.maximum(m1, m3))
        keep &= h < c2 * gap
        i1, i2, i3 = np.nonzero(keep)
        prods = br[i1] * br[i2] * br[i3]
        count += int(np.count_nonzero(prods < math.ceil(Fraction(c1) ** 2 * n**3)))
    return count


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_rule_integrates_monomials(d):
    """The rule is the normalized measure: the Jacobi weight (1-x^2)^alpha
    divided by its integral, so its weights sum to one."""
    from scipy.integrate import quad as squad

    rule = QuadratureRule.for_degree(12, d)
    assert 2 * rule.node_count - 1 >= 12
    assert rule.weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)
    # QUADPACK's algebraic weight (1+x)^alpha (1-x)^alpha handles the
    # endpoint singularities of d = 1.
    jacobi = dict(weight="alg", wvar=((d - 2) / 2, (d - 2) / 2))
    mass, _ = squad(lambda x: 1.0, -1, 1, **jacobi)
    for k in (0, 1, 2, 3, 7, 12):
        ours = rule.integrate(rule.nodes**k)
        direct, _ = squad(lambda x: x**k, -1, 1, **jacobi)
        assert ours == pytest.approx(direct / mass, abs=1e-13), k


@pytest.mark.parametrize("d", [2, 3])
def test_kappa_against_adaptive_quadrature(d):
    cases = [(0, 0, 0), (2, 2, 2), (1, 2, 3), (4, 4, 4), (2, 3, 5, 6), (1, 1, 2, 2), (3, 3, 4)]
    for indices in cases:
        ours = kappa(indices, d=d)
        ref = quad_product_integral(indices, d)
        assert ours == pytest.approx(ref, abs=1e-10), indices


def test_kappa_special_values():
    assert kappa((0, 0, 0)) == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert kappa((5, 1, 1, 1)) == pytest.approx(0.0, abs=1e-12)
    for n in (1, 4, 9):
        assert kappa((n, n, 0)) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def legendre_linearization(m, n):
    """{L: c_L} with P_m P_n = sum_L c_L P_L (Adams-Neumann), in mpmath."""

    def a(k):
        return mpmath.binomial(2 * k, k) / mpmath.mpf(2) ** k

    return {
        m + n - 2 * r: a(m - r) * a(r) * a(n - r) / a(m + n - r)
        * mpmath.mpf(2 * (m + n - 2 * r) + 1) / (2 * (m + n - r) + 1)
        for r in range(min(m, n) + 1)
    }


def kappa_mpmath_d2(n1, n2, n3, n4):
    """kappa on S^2 from two product linearizations and Legendre
    orthogonality, (1/2) integral P_L^2 dx = 1/(2L + 1)."""
    left, right = legendre_linearization(n1, n2), legendre_linearization(n3, n4)
    norm = mpmath.sqrt(mpmath.fprod(2 * n + 1 for n in (n1, n2, n3, n4)))
    return norm * mpmath.fsum(left[L] * right[L] / (2 * L + 1) for L in right if L in left)


def test_kappa_at_acceptance_scale_against_mpmath():
    """Criterion 7's kappa(n, n, 3, 5), n = 16 .. 256: every value of
    the shared rule of ``resonance_compare`` (measured within 2.2e-14)
    and the per-tuple oracle at n = 256 (5.5e-14), against 50 digits."""
    degrees = (16, 32, 64, 128, 256)
    with mpmath.workdps(50):
        assert float(kappa_mpmath_d2(1, 1, 1, 1)) == pytest.approx(1.8, rel=1e-15, abs=0.0)
        exact = [float(kappa_mpmath_d2(n, n, 3, 5)) for n in degrees]
    np.testing.assert_allclose(resonance_compare(degrees, 3, 5, 2)[0], exact,
                               rtol=1e-13, atol=0.0)
    assert kappa((256, 256, 3, 5), d=2) == pytest.approx(exact[-1], rel=1e-13, abs=0.0)


def test_kappa_is_exactly_permutation_invariant():
    base = (2, 5, 3, 4)
    val = kappa(base)
    for perm in [(5, 4, 3, 2), (3, 2, 4, 5), (4, 3, 5, 2)]:
        assert kappa(perm) == val  # bitwise equal, indices are sorted internally


@pytest.mark.parametrize("d", [2, 3])
def test_kappa_support_condition(d):
    """kappa(n1, n2, n3) vanishes unless the triple is admissible."""
    for n1 in range(0, 9):
        for n2 in range(n1, 9):
            for n3 in range(n2, 9):
                val = kappa((n1, n2, n3), d=d)
                if not admissible((n1, n2, n3)):
                    assert abs(val) < 1e-12, (n1, n2, n3)


@pytest.mark.parametrize("d", [2, 3])
def test_kappa_nonnegative_on_triples(d):
    for n1 in range(0, 13):
        for n2 in range(n1, 13):
            for n3 in range(n2, 13):
                assert kappa((n1, n2, n3), d=d) > -1e-12, (n1, n2, n3)


def test_kappa_vector_matches_scalars():
    vals = kappa_vector((3, 4), np.arange(0, 8), d=2)
    for n, v in zip(range(8), vals):
        assert v == pytest.approx(kappa((3, 4, n)), abs=1e-14)


def test_kappa_and_its_oracle_against_mpmath():
    """Both sides of the check above sit within 3e-15 of the exact kappa
    (measured: 1.4e-15 for the library, 2.0e-15 for the oracle, whose
    scipy Gauss-Jacobi weights alone gave 1.5e-14)."""
    vals = kappa_vector((3, 4), np.arange(0, 8), d=2)
    with mpmath.workdps(50):
        exact = [float(kappa_mpmath_d2(3, 4, n, 0)) for n in range(8)]
    np.testing.assert_allclose(vals, exact, rtol=0.0, atol=3e-15)
    np.testing.assert_allclose([kappa((3, 4, n)) for n in range(8)], exact,
                               rtol=0.0, atol=3e-15)


def test_kappa_needs_a_sphere_of_dimension_two():
    for d in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2"):
            kappa((1, 1, 2), d=d)


def test_admissible_examples():
    assert admissible((1, 1, 2))
    assert admissible((3, 3, 3, 3))
    assert not admissible((1, 1, 3))
    assert not admissible((0, 0, 1))


def test_admissible_mask_matches_the_scalar_predicate():
    """Stacked index arrays give the predicate of each tuple."""
    mask = admissible(np.indices((5, 4, 4, 3)))
    assert mask.shape == (5, 4, 4, 3)
    for key in itertools.product(range(5), range(4), range(4), range(3)):
        assert mask[key] == admissible(key), key


def parseval_compose_check(a, b, c, e, d):
    """Residual of the Parseval composition of a 4-index kappa.

    The product of two zonal harmonics expands in the zonal basis with
    triple-kappa coefficients, so

        kappa(a, b, c, e) = sum_n kappa(n, a, b) * kappa(n, c, e).

    Returns |sum - direct| with the intermediate range n <= a+b (the
    support of the first factor, which contains all contributions).
    """
    inter = np.arange(0, a + b + 1)
    left = kappa_vector((a, b), inter, d)
    right = kappa_vector((c, e), inter, d)
    return abs(float(left @ right) - kappa((a, b, c, e), d))


@pytest.mark.parametrize("d", [2, 3])
def test_parseval_composition(d):
    for quad in [(1, 1, 1, 1), (2, 3, 2, 3), (1, 2, 3, 4), (4, 4, 2, 2)]:
        assert parseval_compose_check(*quad, d=d) < 1e-11, quad


def test_h_symbol_arithmetic():
    # n (n + d - 1) eigenvalues: h = lam(n) - lam(n1) + lam(n2) - lam(n3)
    assert h_symbol(3, 1, 1, 1, d=2) == -10
    assert h_symbol(2, 2, 2, 2, d=3) == 0
    assert isinstance(h_symbol(7, 5, 3, 9, d=2), int)
    assert h_symbol(10**6, 1, 1, 10**6, d=2) == 0  # cancellation is exact
    assert h_symbol(10**6, 1, 1, 2, d=2) == 6 - 10**6 * (10**6 + 1)


def test_lambda_classification_basics():
    assert lambda_classify(7, 4, 2, 7) == "lambda0"  # n1 == n
    assert lambda_classify(2, 4, 7, 7) == "lambda0"  # n3 == n
    with pytest.raises(ValueError):
        lambda_classify(1, 1, 9, 2)  # inadmissible
    for d in (2, 3):
        assert count_unclassified(32, d=d) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_count_unclassified_matches_scalar_classification(d):
    """The vectorized count equals a tuple-by-tuple classification, also
    for constants that leave tuples unclassified."""
    n_max = 12
    counts = []
    for constants in (FROZEN_LAMBDA_CONSTANTS[d], (2.0, 1.0), (1.2, 1.5)):
        expected = count_unclassified_scalar(n_max, d, constants)
        assert count_unclassified(n_max, d, constants) == expected, constants
        counts.append(expected)
    assert counts[0] == 0 and counts[1] > 0 and counts[2] > 0


@pytest.mark.parametrize("d", [2, 3])
def test_frozen_constants_below_calibrated_optimum(d):
    c1_opt, c2 = calibrate_lambda_constants(24, d=d)
    c1_frozen, c2_frozen = FROZEN_LAMBDA_CONSTANTS[d]
    assert c2 == c2_frozen
    assert c1_frozen <= c1_opt + 1e-12


@pytest.mark.parametrize(
    "d, constants, expected",
    [
        (2, (2.0, 1.0), 3197),
        (2, (1.2, 1.5), 1268),
        (3, (2.0, 1.0), 3494),
        (3, (1.2, 1.5), 1485),
    ],
)
def test_count_unclassified_matches_full_cube_at_acceptance_scale(d, constants, expected):
    """The Lambda_1-prefiltered scan equals the full-cube scan at n_max 64."""
    assert count_unclassified_cube(64, d, constants) == expected
    assert count_unclassified(64, d, constants) == expected


@settings(max_examples=20, deadline=None)
@given(
    c1=st.floats(0.05, 30.0),
    c2=st.floats(0.05, 4.0),
    n_max=st.integers(1, 20),
    d=st.sampled_from([2, 3]),
)
def test_count_unclassified_matches_scalar_classification_property(c1, c2, n_max, d):
    """The Lambda_1 prefilter cuts the cube at c1 n_max^{3/2}; for most
    draws of c1 and n_max that cut lies inside the cube, so triples on
    both sides of it are checked against the scalar rules."""
    expected = count_unclassified_scalar(n_max, d, (c1, c2))
    assert count_unclassified(n_max, d, (c1, c2)) == expected


def test_lambda1_boundary_tuple_is_classified():
    """(2, 4, 4, 5) at c1 = 3.4 lies on the Lambda_1 boundary:
    <2><4><4> = 17 sqrt(5) = (17/5) 5^{3/2}, and the float 3.4 is just
    below 17/5, so the tuple is in Lambda_1.  A float quotient
    <n1><n2><n3> / n^{3/2} rounds to just below 3.4 and misses it."""
    constants = (3.4, 1e9)  # c2 so large that Lambda_2 takes nothing
    assert (1 + 2 * 2) * (1 + 4 * 4) ** 2 == 1445 == Fraction(17, 5) ** 2 * 5**3
    assert lambda_classify(2, 4, 4, 5, constants=constants) == "lambda1"
    assert count_unclassified_scalar(5, 2, constants) == 292
    assert count_unclassified(5, 2, constants) == 292
    assert count_unclassified_cube(5, 2, constants) == 292


def test_count_unclassified_bounds():
    """A non-positive c1 puts every tuple in Lambda_1; an n_max whose
    bracket products (1 + n_max^2)^3 overflow int64 is refused before
    any array is built."""
    for c1 in (0.0, -2.0):
        assert count_unclassified(12, 2, (c1, 1e9)) == 0
        assert count_unclassified_cube(12, 2, (c1, 1e9)) == 0
        assert lambda_classify(7, 1, 2, 8, constants=(c1, 1e9)) == "lambda1"
    assert (1 + 1448**2) ** 3 < 2**63 - 1 < (1 + 1449**2) ** 3
    with pytest.raises(ValueError, match="1448"):
        count_unclassified(1449, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_count_unclassified_rejects_non_finite_constants(bad):
    """Every comparison with NaN is false, so a NaN constant would
    otherwise read as "every tuple classified"."""
    with pytest.raises(ValueError, match="finite"):
        count_unclassified(16, 2, (bad, 1.0))
    with pytest.raises(ValueError, match="finite"):
        count_unclassified(16, 2, (0.88, bad))


@pytest.mark.parametrize("n_max", [0, -1, -5])
def test_count_unclassified_below_one_is_zero_without_warnings(n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_unclassified(n_max, 2) == 0
        assert count_unclassified(n_max, 3, (2.0, 1.0)) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_frozen_constants_at_their_claimed_scale(d):
    """c1 leaves nothing unclassified for n <= 64, and c1 + 0.01 does:
    c1 is the optimum at n_max 64 rounded down to two decimals."""
    c1_frozen, c2_frozen = FROZEN_LAMBDA_CONSTANTS[d]
    assert count_unclassified(64, d, (c1_frozen, c2_frozen)) == 0
    assert count_unclassified(64, d, (c1_frozen + 0.01, c2_frozen)) > 0


@settings(max_examples=120)
@given(
    n1=st.integers(0, 48),
    n2=st.integers(0, 48),
    n3=st.integers(0, 48),
    n=st.integers(0, 48),
    d=st.sampled_from([2, 3]),
)
def test_every_admissible_tuple_is_classified(n1, n2, n3, n, d):
    if not admissible((n1, n2, n3, n)):
        return
    label = lambda_classify(n1, n2, n3, n, d=d)
    assert label in {"lambda0", "lambda1", "lambda2"}


def test_lambda1_bracket_condition_holds_when_reported():
    """Outside Lambda_0 a tuple is labelled lambda1 exactly when
    (1 + n1^2)(1 + n2^2)(1 + n3^2) >= ceil(c1^2 n^3), the integer
    form of <n1><n2><n3> >= c1 n^{3/2}."""
    for d in (2, 3):
        c1_squared = Fraction(FROZEN_LAMBDA_CONSTANTS[d][0]) ** 2
        for n1, n2, n3, n in itertools.product(range(13), repeat=4):
            if not admissible((n1, n2, n3, n)) or n in (n1, n3):
                continue
            meets = (1 + n1 * n1) * (1 + n2 * n2) * (1 + n3 * n3) >= math.ceil(
                c1_squared * n**3)
            assert (lambda_classify(n1, n2, n3, n, d=d) == "lambda1") == meets


def test_count_unclassified_memory_is_quadratic_in_n_max():
    """The Lambda_1 prefilter builds one n1 slab at a time: a whole
    (n_max + 1)^3 int64 cube at n_max 200 would take 62 MiB."""
    tracemalloc.start()
    try:
        assert count_unclassified(200, 2) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("d", [2, 3])
def test_line_integral_table_against_quadrature(d):
    """The meridian line integral of ``resonance_compare`` against scipy
    quad, and symmetric in its two degrees."""
    for n1, n2 in [(0, 0), (1, 1), (2, 4), (3, 5), (8, 8), (0, 6)]:
        line = resonance_compare([8], n1, n2, d)[1]
        assert line == resonance_compare([8], n2, n1, d)[1], (n1, n2)
        ref = quad_line_integral(n1, n2, d)
        assert line == pytest.approx(ref, abs=1e-10), (n1, n2)


def meridian_mpmath_d2(pairs, n_max, count):
    """(1/pi) integral_0^pi Y_k Y_l dtheta on S^2 at 40 digits: Gauss-Chebyshev
    with ``count`` closed-form nodes cos((2i - 1) pi / (2 count)) and the
    Legendre recurrence, exact while 2 n_max < 2 count."""
    with mpmath.workdps(40):
        rows = []
        for i in range(1, count + 1):
            x = mpmath.cos((2 * i - 1) * mpmath.pi / (2 * count))
            p = [mpmath.mpf(1), x]
            for n in range(1, n_max):
                p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
            rows.append(p)
        return [float(mpmath.sqrt((2 * k + 1) * (2 * l + 1))
                      * mpmath.fsum(row[k] * row[l] for row in rows) / count)
                for k, l in pairs]


def test_line_integral_table_at_acceptance_scale_against_mpmath():
    """The nodal gamma of criterion 9's truncation, n_max 256, by
    polarization on 65 meridian products:
    (1/pi) integral Y_k Y_l = (gamma(e_k + e_l) - gamma(e_k) - gamma(e_l)) / 4.
    Max error 1.9e-12."""
    n_max = 256
    rng = np.random.default_rng(5)
    pairs = [tuple(int(v) for v in rng.integers(0, n_max + 1, 2)) for _ in range(60)]
    pairs += [(0, 0), (3, 5), (0, n_max), (n_max - 1, n_max), (n_max, n_max)]
    exact = meridian_mpmath_d2(pairs, n_max, count=n_max + 64)
    ws = _Workspace(n_max, 2)
    unit = np.eye(n_max + 1)
    ours = [(ws.gamma(unit[k] + unit[l]) - ws.gamma(unit[k]) - ws.gamma(unit[l])) / 4.0
            for k, l in pairs]
    np.testing.assert_allclose(ours, exact, rtol=0.0, atol=1e-11)


def test_resonance_compare_structure():
    """One kappa per degree, in the given order, each equal to the
    per-tuple oracle on its own smaller rule; one line integral."""
    degrees = (32, 5, 9, 5)
    kappas, line = resonance_compare(degrees, 3, 5)
    assert kappas.shape == (4,) and kappas[1] == kappas[3]
    np.testing.assert_allclose(kappas, [kappa((n, n, 3, 5)) for n in degrees],
                               rtol=1e-13, atol=1e-15)
    # 40-digit oracle; the float sum is 2.5e-15 from it.
    exact = meridian_mpmath_d2([(3, 5)], 5, count=16)[0]
    assert line == pytest.approx(exact, abs=1e-14)
    assert resonance_compare((7,), 3, 5)[1] == line


@pytest.mark.parametrize("args, message", [
    (((), 3, 5), "at least one degree"),
    (((16, 4, 32), 3, 5), "n2, n3 <= n"),  # n3 above the smallest n
    (((16, 4), 5, 3), "n2, n3 <= n"),  # n2 above it
    (((4,), 3, 5), "n2, n3 <= n"),
    (((16,), -1, 5), "non-negative"),
    (((16,), 3, 5, 1), "at least 2"),
    (((16,), 3, 5, 0), "at least 2"),
])
def test_resonance_compare_rejects_bad_degrees(args, message):
    with pytest.raises(ValueError, match=message):
        resonance_compare(*args)


def test_resonance_difference_shrinks_with_degree():
    kappas, line = resonance_compare((16, 64, 256), 3, 5)
    diffs = np.abs(kappas - line)
    assert diffs[2] < diffs[0]
    assert diffs[2] < 0.01


@pytest.mark.parametrize("n2, n3", [(1, 1), (2, 2), (3, 5), (4, 6), (2, 8)])
def test_resonance_difference_vanishes_on_s3(n2, n3):
    """On S^3, Y_n is proportional to sin((n + 1) theta) / sin(theta), and
    kappa(n, n, n2, n3) equals its meridian limit at every n: the largest
    difference is 1.45e-13.  So criterion 7 has no decay to fit there,
    and its study runs on S^2 only."""
    kappas, line = resonance_compare((16, 32, 64), n2, n3, 3)
    np.testing.assert_allclose(kappas, line, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_resonance_difference_decays_above_s3(d):
    """Above S^3 the difference decays again, at the gate of criterion 7:
    fitted slopes -1.95, -1.92 and -1.90 at d = 4, 5 and 6 over
    n = 16..256, against the gate -0.9."""
    degrees = (16, 32, 64, 128, 256)
    kappas, line = resonance_compare(degrees, 3, 5, d)
    assert fit_loglog(list(degrees), np.abs(kappas - line)).slope <= -0.9


def load_kappa_table(json_path, csv_path):
    """Read a value table the kappa-table study wrote back (round-trip oracle).

    Returns the header and {canonical index tuple: value} of the rows.
    """
    with open(json_path, "r", encoding="ascii") as fh:
        header = json.load(fh)
    entries = {}
    with open(csv_path, "r", encoding="ascii") as fh:
        assert fh.readline().strip() == "n1,n2,n3,n4,value"
        for line in fh:
            *indices, value = line.strip().split(",")
            entries[tuple(int(p) for p in indices if p)] = float(value)
    return header, entries


def canonical_entries(table):
    """{sorted index tuple: value} of every 3- and 4-index entry with
    indices <= n_max, read straight from the tensors."""
    degrees = range(table.n_max + 1)
    return {key: float(values[key])
            for values, r in ((table.triple, 3), (table.quad, 4))
            for key in itertools.combinations_with_replacement(degrees, r)}


def test_kappa_table_build_value_and_roundtrip(tmp_path):
    table = KappaTable.build(6, d=2)
    assert table.triple.shape == (13, 7, 7) and table.quad.shape == (7, 7, 7, 7)
    assert table.triple[5, 3, 4] == pytest.approx(kappa((3, 4, 5)), abs=1e-12)
    assert table.triple[12, 6, 6] == pytest.approx(kappa((6, 6, 12)), abs=1e-12)
    assert table.quad[4, 2, 3, 1] == pytest.approx(kappa((1, 2, 3, 4)), abs=1e-12)
    assert min(table.triple.min(), table.quad.min()) > -1e-12
    with pytest.raises(ValueError, match="read-only"):
        table.quad[0, 0, 0, 0] = 2.0
    assert cli.main(["kappa-table", "--n-max", "6", "--scan-n-max", "8",
                     "--out", str(tmp_path)]) == 0
    jp, cp = tmp_path / "kappa-values-d2.json", tmp_path / "kappa-values-d2.csv"
    assert cp.read_text().splitlines()[0] == "n1,n2,n3,n4,value"
    header, entries = load_kappa_table(jp, cp)
    expected = canonical_entries(table)
    assert list(entries) == list(expected)  # triples, then quads, each sorted
    assert entries == expected
    assert header["node_count"] == table.node_count
    assert (header["triples"], header["quads"]) == (math.comb(9, 3), math.comb(10, 4))


@pytest.mark.parametrize("d", [2, 3])
def test_kappa_table_at_acceptance_scale_against_scalar_kappa(d):
    """Every canonical entry of both tensors at criterion 6's n_max 12,
    the rows 12 < n <= 24 of T included, equals the scalar path to
    1e-12 max(1, |kappa|).  Both paths share the Gauss-Jacobi rule, so
    they differ by the roundoff of their sums: the largest differences
    are 1.4e-14 (S^2) and 6.2e-14 (S^3)."""
    n_max = 12
    table = KappaTable.build(n_max, d)
    top = range(n_max + 1)
    keys = [(n, a, b) for a, b in itertools.combinations_with_replacement(top, 2)
            for n in range(b, 2 * n_max + 1)]
    keys += list(itertools.combinations_with_replacement(top, 4))
    ours = [table.triple[key] if len(key) == 3 else table.quad[key] for key in keys]
    scalar = [kappa(key, d) for key in keys]
    np.testing.assert_allclose(ours, scalar, rtol=1e-12, atol=1e-12)


def test_kappa_table_exact_value_on_s3():
    """On S^3, Y_n = U_n and U_9 U_9 = sum_{k <= 9} U_{2k}, so
    kappa(9, 9, 10, 10) = 10 exactly: the rule's weights decide it."""
    assert KappaTable.build(12, 3).quad[9, 9, 10, 10] == pytest.approx(10.0, rel=1e-14, abs=0.0)


def test_kappa_table_quads_against_mpmath():
    """A seeded sample of Q at n_max 12 on S^2 against 40-digit values,
    to the tolerance of the scalar acceptance-scale check."""
    table = KappaTable.build(12, 2)
    rng = np.random.default_rng(11)
    keys = [tuple(int(v) for v in rng.integers(0, 13, 4)) for _ in range(40)]
    keys += [(12, 12, 12, 12), (1, 1, 1, 1), (0, 12, 12, 0)]
    with mpmath.workdps(40):
        exact = [float(kappa_mpmath_d2(*key)) for key in keys]
    np.testing.assert_allclose([table.quad[key] for key in keys], exact, rtol=1e-12, atol=1e-12)


def test_kappa_table_header_names_its_body_relative_to_itself(tmp_path, monkeypatch):
    """Two spellings of one output directory give byte-identical headers."""
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    texts = []
    for out in ("out", str(tmp_path / "elsewhere" / ".." / "out")):
        assert cli.main(["kappa-table", "--n-max", "4", "--scan-n-max", "8",
                         "--out", out, "--force"]) == 0
        texts.append((tmp_path / "out" / "kappa-values-d2.json").read_bytes())
    assert texts[0] == texts[1]
    body = json.loads(texts[0])["body"]
    csv_path = tmp_path / "out" / "kappa-values-d2.csv"
    assert (tmp_path / "out" / body).resolve() == csv_path.resolve()
