"""Matrix elements: first-principles oracle, cross-form identity, truncations."""
import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from su11 import (
    IDENTITY,
    GroupElement,
    InvalidParams,
    as_rep_label,
    compact_element,
    from_cartan,
    inverse,
    matrix_element,
    matrix_element_batch,
    matrix_element_cartan,
    multiply,
    to_cartan,
    truncated_operator,
    unitarity_defect,
    homomorphism_defect,
)
from su11.repmatrix import matrix_element_polar

ETAS = ["1", "3/2", "2", "5/2", "3", "7/2", "4"]


def disk_overlap_oracle(eta, n, n_prime, g, radial=96, angular=256):
    """<e_n | U(g) e_n'> as a weighted disk integral on a polar grid.

    Independent of the closed-form machinery: the operator acts by
    (U f)(z) = (-conj(beta) z + alpha)^{-2 eta} f((conj(alpha) z - beta)
    / (-conj(beta) z + alpha)), the basis is e_k(z) = sqrt((2 eta)_k / k!) z^k,
    and the pairing carries the weight (2 eta - 1)/pi (1 - |z|^2)^{2 eta - 2}
    against the area measure (the normalization that makes e_k orthonormal).
    """
    te = as_rep_label(eta).two_eta

    def poch(k):
        out = 1
        for i in range(k):
            out *= te + i
        return out

    norm_n = math.sqrt(poch(n) / math.factorial(n))
    norm_np = math.sqrt(poch(n_prime) / math.factorial(n_prime))
    u, w = np.polynomial.legendre.leggauss(radial)
    rho = 0.5 * (u + 1.0)
    wr = 0.5 * w
    phis = 2.0 * math.pi * np.arange(angular) / angular
    z = rho[:, None] * np.exp(1j * phis[None, :])
    denom = -np.conj(g.beta) * z + g.alpha
    mapped = (np.conj(g.alpha) * z - g.beta) / denom
    transformed = denom ** (-te) * norm_np * mapped**n_prime
    weight = (te - 1) / math.pi * (1.0 - rho**2) ** (te - 2)
    integrand = np.conj(norm_n * z**n) * transformed
    angular_avg = integrand.sum(axis=1) * (2.0 * math.pi / angular)
    return complex(np.dot(wr * weight * rho, angular_avg))


def closed_form_oracle(eta, n, n_prime, g, dps=50):
    """U_{n n'}(g) from the closed form, evaluated in mpmath at dps digits.

    The double entries (alpha, beta) of g are taken as exact, so the only
    rounding left in the comparison is the program's own.
    """
    te = as_rep_label(eta).two_eta
    m, big = min(n, n_prime), max(n, n_prime)
    with mp.workdps(dps):
        alpha, beta = mp.mpc(g.alpha), mp.mpc(g.beta)
        gamma = -beta if n_prime >= n else mp.conj(beta)
        x = 1 - 2 * abs(beta / mp.conj(alpha)) ** 2
        pref = mp.sqrt(mp.factorial(m) * mp.gamma(te + big)
                       / (mp.factorial(big) * mp.gamma(te + m)))
        value = (pref * alpha ** (-(te + big)) * mp.conj(alpha) ** m
                 * gamma ** (big - m) * mp.jacobi(m, big - m, te - 1, x))
        return complex(value)


# ----------------------------------------------------------------------
# Anchor values
# ----------------------------------------------------------------------

def test_identity_gives_kronecker_delta():
    for eta in ("1", "3/2", "2"):
        for n in range(5):
            for np_ in range(5):
                val = matrix_element(eta, n, np_, IDENTITY)
                assert val == (1.0 if n == np_ else 0.0)


def test_compact_element_is_diagonal_phase():
    theta = 1.234
    h = compact_element(theta)
    for eta in ("1", "3/2"):
        eta_val = as_rep_label(eta).two_eta / 2
        for n in range(6):
            got = matrix_element(eta, n, n, h)
            assert got == pytest.approx(cmath.exp(-1j * (eta_val + n) * theta), abs=1e-14)
            assert matrix_element(eta, n, n + 2, h) == 0.0
        chart = matrix_element_cartan(eta, 2, 2, to_cartan(h))
        assert chart == pytest.approx(cmath.exp(-1j * (eta_val + 2) * theta), abs=1e-13)


def test_boost_ground_state_value():
    tau = 1.1
    g = from_cartan(tau, 0.0, 0.0)
    assert matrix_element("1", 0, 0, g) == pytest.approx(
        math.cosh(tau / 2) ** (-2), rel=1e-14
    )


def test_matches_disk_integral_oracle():
    g = from_cartan(0.8, 0.9, -1.4)
    for eta, n, np_ in [("1", 0, 0), ("1", 0, 1), ("1", 1, 0), ("1", 2, 2),
                        ("3/2", 0, 0), ("3/2", 1, 3), ("2", 2, 1), ("2", 3, 3)]:
        oracle = disk_overlap_oracle(eta, n, np_, g)
        value = matrix_element(eta, n, np_, g)
        assert value == pytest.approx(oracle, abs=1e-8)


# ----------------------------------------------------------------------
# Cross-form identity (the module's central consistency check)
# ----------------------------------------------------------------------

def test_cross_form_identity_random_grid():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        eta = ETAS[int(rng.integers(len(ETAS)))]
        n = int(rng.integers(0, 13))
        np_ = int(rng.integers(0, 13))
        g = from_cartan(rng.uniform(0.0, 4.0), rng.uniform(0.0, 2 * math.pi),
                        rng.uniform(-2 * math.pi, 2 * math.pi))
        direct = matrix_element(eta, n, np_, g)
        chart = matrix_element_cartan(eta, n, np_, to_cartan(g))
        assert abs(direct - chart) <= 1e-11 * (1.0 + abs(direct))


def test_chart_form_special_cases():
    c = to_cartan(compact_element(0.9))
    eta_val = 1.5
    assert matrix_element_cartan("3/2", 3, 3, c) == pytest.approx(
        cmath.exp(-1j * (eta_val + 3) * 0.9), abs=1e-13
    )
    # tau = 0 with n' > n vanishes through the (1 - x) factor
    assert matrix_element_cartan("3/2", 1, 4, c) == 0.0


@pytest.mark.parametrize("tau", [30.0, 40.0])
def test_chart_form_keeps_large_tau_magnitudes(tau):
    # x = 1 - 2 tanh^2(tau/2) rounds to -1 here, so 1 + x must come from tau.
    g = from_cartan(tau, 0.4, -1.1)
    c = to_cartan(g)
    for eta, n, np_ in [("1", 0, 0), ("3/2", 1, 3), ("2", 3, 1), ("5/2", 4, 4)]:
        direct = matrix_element(eta, n, np_, g)
        assert direct != 0.0
        assert matrix_element_cartan(eta, n, np_, c) == pytest.approx(direct, rel=1e-10)


def test_modulus_symmetric_under_index_swap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = from_cartan(rng.uniform(0.1, 3.0), rng.uniform(0, 6), rng.uniform(-6, 6))
        n, np_ = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        a = abs(matrix_element("2", n, np_, g))
        b = abs(matrix_element("2", np_, n, g))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_batch_matches_scalar():
    rng = np.random.default_rng(9)
    tau = rng.uniform(0.0, 3.0, 64)
    phi = rng.uniform(0.0, 2 * math.pi, 64)
    psi = rng.uniform(-2 * math.pi, 2 * math.pi, 64)
    alpha = np.cosh(tau / 2) * np.exp(0.5j * (phi + psi))
    beta = np.sinh(tau / 2) * np.exp(0.5j * (phi - psi))
    for n, np_ in [(0, 0), (2, 5), (5, 2)]:
        batch = matrix_element_batch("3/2", n, np_, alpha, beta)
        for i in (0, 17, 63):
            g = from_cartan(tau[i], phi[i], psi[i])
            assert batch[i] == pytest.approx(matrix_element("3/2", n, np_, g), rel=1e-12)
    # Index arrays over one element: each entry is the scalar call, bit for bit.
    g = from_cartan(tau[5], phi[5], psi[5])
    rows, cols = np.array([0, 7, 3, 12]), np.array([0, 2, 9, 12])
    values = matrix_element_batch("3/2", rows, cols, g.alpha, g.beta)
    assert values.tolist() == [matrix_element("3/2", int(i), int(j), g) for i, j in zip(rows, cols)]
    # Every pair on the diagonal, broadcast to a shape that n alone lacks.
    same = matrix_element_batch("3/2", np.array([[4], [4]]), np.array([[4, 4, 4]]), g.alpha, g.beta)
    assert same.shape == (2, 3) and (same == matrix_element("3/2", 4, 4, g)).all()
    with pytest.raises(InvalidParams):
        matrix_element_batch("3/2", rows, cols, alpha[:4], beta[:4])


def test_batch_on_empty_index_arrays_is_empty():
    # No entry, so no recurrence: an empty complex array of the broadcast
    # shape, as empty element arrays give shape (0,).
    g = from_cartan(0.7, 0.3, -0.4)
    for n, n_prime in (np.ogrid[:0, :3], np.ogrid[:3, :0], (np.arange(0), np.arange(0))):
        out = matrix_element_batch("1", n, n_prime, g.alpha, g.beta)
        assert out.dtype == complex
        assert out.shape == np.broadcast_shapes(n.shape, n_prime.shape)


# ----------------------------------------------------------------------
# Large indices and large tau
# ----------------------------------------------------------------------

def test_large_index_entries_match_mpmath():
    g = from_cartan(1.6, 0.7, -0.4)
    for n, np_ in [(171, 169), (169, 171), (180, 0)]:
        oracle = closed_form_oracle("1", n, np_, g)
        assert matrix_element("1", n, np_, g) == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("n, tau", [(150, 11.0), (50, 30.0)])
def test_scalar_entries_finite_where_powers_overflow(n, tau):
    # |alpha|^-(2 eta + n) and conj(alpha)^n underflow and overflow apart
    # here; the entry itself is a representable double.
    g = from_cartan(tau, 0.3, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = matrix_element("1", n, n, g)
    assert math.isfinite(abs(value))
    assert value == pytest.approx(closed_form_oracle("1", n, n, g), rel=1e-10)


def test_batch_entries_finite_at_large_index():
    g = from_cartan(6.0, 0.3, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (value,) = matrix_element_batch("1", 400, 400, [g.alpha], [g.beta])
    assert math.isfinite(abs(value))
    assert value == pytest.approx(closed_form_oracle("1", 400, 400, g), rel=1e-10)


def test_jacobi_overflow_is_refused():
    # |z|^700 underflows while P_600^{(700, 1)}(x) overflows: no double
    # holds the Jacobi factor, so every form refuses instead of returning NaN.
    g = from_cartan(0.1, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParams):
            matrix_element("1", 600, 1300, g)
        with pytest.raises(InvalidParams):
            matrix_element_batch("1", 600, 1300, [g.alpha], [g.beta])
        with pytest.raises(InvalidParams):
            matrix_element_cartan("1", 600, 1300, to_cartan(g))
        # Index arrays, whose lanes run on one recurrence, refuse it the same way.
        with pytest.raises(InvalidParams):
            matrix_element_batch("1", np.array([600, 0]), np.array([1300, 0]), g.alpha, g.beta)


def test_polar_form_matches_scalar_and_refuses_overflow():
    # sign * exp(log_mag + i angle) is the entry, from the element's polar data.
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = from_cartan(rng.uniform(0.0, 12.0), rng.uniform(0.0, 2 * math.pi),
                        rng.uniform(-2 * math.pi, 2 * math.pi))
        n, np_ = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        polar = (abs(g.alpha) ** 2, abs(g.beta) ** 2 / abs(g.alpha) ** 2,
                 cmath.phase(g.alpha), cmath.phase(g.beta))
        sign, log_mag, angle = matrix_element_polar("5/2", n, np_, *polar)
        assert sign * cmath.exp(log_mag + 1j * angle) == pytest.approx(
            matrix_element("5/2", n, np_, g), rel=1e-12, abs=1e-300)
    sign, _, _ = matrix_element_polar("1", 0, 3, 1.0, 0.0, 0.0, 0.0)
    assert sign == 0.0  # off-diagonal at the identity
    g = from_cartan(0.1, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParams):
            matrix_element_polar("1", 600, 1300, abs(g.alpha) ** 2,
                                 abs(g.beta) ** 2 / abs(g.alpha) ** 2, 0.0, 0.0)


def test_large_block_discards_overflowing_lanes():
    # The recurrence runs every offset to the block's top degree; past
    # n_< + d = size - 1 those lanes overflow, but no kept entry depends on them.
    g = from_cartan(0.1, 0.5, -0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block = truncated_operator("1", g, 600).entries
    assert np.all(np.isfinite(block))
    for i, j in [(599, 0), (300, 299), (0, 599), (599, 599)]:
        assert block[i, j] == matrix_element("1", i, j, g)


def test_logspace_survives_where_direct_overflows():
    # tau = 6 gives |beta| ~ 10; |beta|^400 alone overflows double precision,
    # but the chart form keeps (1-x), (1+x) powers bounded and must agree.
    g = from_cartan(6.0, 0.2, 0.1)
    value = matrix_element("1", 400, 0, g)
    chart = matrix_element_cartan("1", 400, 0, to_cartan(g))
    assert math.isfinite(abs(value))
    assert value == pytest.approx(chart, rel=1e-9)


# ----------------------------------------------------------------------
# Truncated blocks
# ----------------------------------------------------------------------

def test_block_entries_match_scalar_bit_for_bit():
    g = from_cartan(1.3, 0.8, -2.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for eta, size in (("1", 12), ("5/2", 12), ("2", 1), ("2", 2)):
            block = truncated_operator(eta, g, size)
            for i in range(size):
                for j in range(size):
                    assert block.entries[i, j] == matrix_element(eta, i, j, g)
        rng = np.random.default_rng(180)
        for size in (179, 180, 181):
            block = truncated_operator("3/2", g, size)
            # The last row and column hold every offset's lane at its own last degree.
            last = size - 1
            cells = [(i, j) for i, j in rng.integers(0, size, (200, 2))]
            cells += [(last, j) for j in range(size)] + [(i, last) for i in range(size)]
            cells += [(171, 169), (169, 171)]
            for i, j in cells:
                assert block.entries[i, j] == matrix_element("3/2", int(i), int(j), g)


def test_open_grids_give_the_full_grids_entries():
    # Row and column vectors from np.ogrid, as the blocks pass them, give the
    # entries of the full np.indices grids bit for bit, on both triangles.
    g = from_cartan(2.1, 5.9, -0.4)
    for eta, shape in (("1", (7, 31)), ("5/2", (40, 9)), ("3/2", (1, 1)), ("2", (25, 25))):
        vectors = matrix_element_batch(eta, *np.ogrid[:shape[0], :shape[1]], g.alpha, g.beta)
        grids = matrix_element_batch(eta, *np.indices(shape), g.alpha, g.beta)
        assert vectors.shape == shape
        assert vectors.tobytes() == grids.tobytes()


def test_centre_acts_by_its_sign_on_blocks():
    # -1 is central and U(-1) = (-1)^(2 eta), so U(-g) = (-1)^(2 eta) U(g);
    # the entries differ in their last bits, since arg(-alpha) rounds apart.
    for eta in ("1", "3/2", "5/2"):
        sign = (-1) ** as_rep_label(eta).two_eta
        for tau in (0.3, 1.5, 3.0):
            g = from_cartan(tau, 0.4, -1.1)
            neg = GroupElement(-g.alpha, -g.beta)
            block = truncated_operator(eta, g, 12).entries
            flipped = truncated_operator(eta, neg, 12).entries
            assert np.max(np.abs(flipped - sign * block)) <= 1e-13


def test_block_of_identity_and_compact():
    block = truncated_operator("2", IDENTITY, 8)
    np.testing.assert_array_equal(block.entries, np.eye(8, dtype=complex))
    h = truncated_operator("2", compact_element(0.4), 8).entries
    off_diagonal = h - np.diag(np.diag(h))
    assert np.all(off_diagonal == 0.0)
    # The zeros are +0j, never -0j.
    zeros = np.concatenate([block.entries.ravel(), h[~np.eye(8, dtype=bool)]])
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


def test_identity_block_is_exact_where_prefactors_leave_double_range():
    # From (0, 320) on, the label-5000 prefactor of an off-diagonal entry is
    # beyond double range; at beta = 0 the entry is still exactly 0.
    entry = matrix_element("5000", 320, 0, IDENTITY)
    assert entry == 0.0 and not np.signbit([entry.real, entry.imag]).any()
    block = truncated_operator("5000", IDENTITY, 400).entries
    np.testing.assert_array_equal(block, np.eye(400, dtype=complex))
    assert not np.signbit(block.real).any() and not np.signbit(block.imag).any()


def test_block_entries_read_only():
    block = truncated_operator("1", IDENTITY, 4)
    with pytest.raises(ValueError):
        block.entries[0, 0] = 5.0


def test_column_norms_approach_one():
    g = from_cartan(1.0, 0.3, 0.5)
    norms = []
    for size in (20, 40, 60):
        b = truncated_operator("1", g, size).entries
        norms.append(float(np.sum(np.abs(b[:, 3]) ** 2)))
    assert abs(norms[-1] - 1.0) < 1e-10
    assert abs(norms[0] - 1.0) >= abs(norms[-1] - 1.0) - 1e-15


def test_unitarity_defect_identity_and_budget():
    assert unitarity_defect(truncated_operator("1", IDENTITY, 10), 10) == 0.0
    tau = 2.0 * math.atanh(0.5)  # |z| = 0.5
    g = from_cartan(tau, 0.6, -0.9)
    assert unitarity_defect(truncated_operator("1", g, 60), 10) <= 1e-8


def test_unitarity_defect_decays_geometrically():
    # Tail envelope: the missing rows j >= size contribute entries of modulus
    # ~ binom(j, n) |z|^{j - n}, so the defect on a fixed k x k corner decays
    # like size^{2(k-1)} |z|^{2(size - k)}.  Fit the constant on the smallest
    # size past the preasymptotic hump and check the rest stay under it.
    absz = 0.5
    tau = 2.0 * math.atanh(absz)
    g = from_cartan(tau, 1.0, 0.2)
    k = 10
    sizes = [30, 35, 40, 45, 50, 55, 60]
    defects = [unitarity_defect(truncated_operator("1", g, s), k) for s in sizes]
    for first, second in zip(defects, defects[1:]):
        assert second <= first * 1.05 + 1e-14

    def envelope(s):
        return s ** (2 * (k - 1)) * absz ** (2 * (s - k))

    fitted = max(d / envelope(s) for s, d in zip(sizes[:2], defects[:2]))
    for s, d in zip(sizes[2:], defects[2:]):
        assert d <= 20.0 * fitted * envelope(s)


def test_homomorphism_defect_identity_is_exact_zero():
    g = from_cartan(0.9, 0.1, 0.7)
    assert homomorphism_defect("3/2", g, IDENTITY, 30, 5) == 0.0


def test_homomorphism_defect_inverse_pair():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = from_cartan(rng.uniform(0, 1.0), rng.uniform(0, 6), rng.uniform(-6, 6))
        assert homomorphism_defect("1", g, inverse(g), 60, 5) <= 1e-8


def test_homomorphism_defect_compact_pair_machine_zero():
    assert homomorphism_defect("2", compact_element(0.3), compact_element(1.1), 20, 20) <= 1e-14


def test_homomorphism_defect_random_pairs():
    rng = np.random.default_rng(13)
    for eta in ("1", "3/2", "2"):
        for _ in range(5):
            g1 = from_cartan(rng.uniform(0, 1.0), rng.uniform(0, 6), rng.uniform(-6, 6))
            g2 = from_cartan(rng.uniform(0, 1.0), rng.uniform(0, 6), rng.uniform(-6, 6))
            assert homomorphism_defect(eta, g1, g2, 60, 10) <= 1e-8


def test_block_size_validation():
    for size in (0, -1, -60):
        with pytest.raises(InvalidParams, match="size must be >= 1"):
            truncated_operator("1", IDENTITY, size)
    with pytest.raises(InvalidParams):
        unitarity_defect(truncated_operator("1", IDENTITY, 4), 5)


def test_unitarity_defect_from_leading_columns():
    # The k x size corner reads only the first k columns, so the columns
    # alone, from open grids, give the block's defect bit for bit.
    g = from_cartan(0.8, 1.1, -2.0)
    block = truncated_operator("3/2", g, 40)
    for k in (1, 10, 40):
        columns = matrix_element_batch("3/2", *np.ogrid[:40, :k], g.alpha, g.beta)
        assert unitarity_defect(columns, k) == unitarity_defect(block, k)
    with pytest.raises(InvalidParams, match=r"k must lie in \[1, size\]"):
        unitarity_defect(columns[:, :5], 6)
    with pytest.raises(InvalidParams, match="2-D"):
        unitarity_defect(columns[:, 0], 1)


def _full_unitarity_defect(block, k):
    """The defect from the whole Gram matrix B^dag B, cut to its corner."""
    b = block.entries
    return float(np.max(np.abs((b.conj().T @ b)[:k, :k] - np.eye(k))))


def _full_homomorphism_defect(eta, g1, g2, size, k):
    """The defect from three whole blocks and their whole product."""
    product = truncated_operator(eta, multiply(g1, g2), size).entries
    composed = truncated_operator(eta, g1, size).entries @ truncated_operator(eta, g2, size).entries
    return float(np.max(np.abs((product - composed)[:k, :k])))


@pytest.mark.parametrize("size", [20, 60])
def test_corner_defects_match_full_matrix_definitions(size):
    rng = np.random.default_rng(14)
    for eta in ("1", "3/2", "2"):
        g1 = from_cartan(rng.uniform(0, 1.0), rng.uniform(0, 6), rng.uniform(-6, 6))
        g2 = from_cartan(rng.uniform(0, 1.0), rng.uniform(0, 6), rng.uniform(-6, 6))
        block = truncated_operator(eta, g1, size)
        for k in (1, 10, size):
            assert abs(unitarity_defect(block, k)
                       - _full_unitarity_defect(block, k)) <= 1e-15
            assert abs(homomorphism_defect(eta, g1, g2, size, k)
                       - _full_homomorphism_defect(eta, g1, g2, size, k)) <= 1e-15
