import random
from fractions import Fraction

import pytest

from monsterlie.qseries import (
    IntegralityError,
    NotInvertibleError,
    PrecisionError,
    QSeries,
    eta_quotient,
    euler_product,
    j_series,
    mckay_thompson,
    primary_dim_series,
)


def series(valuation, coeffs):
    return QSeries(valuation, [Fraction(c) for c in coeffs])


# -- oracles: the routes to J and the primary dimensions that the package
# -- no longer takes, kept here to cross-check the routes it does take


def sigma(power, k):
    """Sum of the power-th powers of the divisors of k, by trial division."""
    return sum(d ** power for d in range(1, k + 1) if k % d == 0)


def eisenstein_e4(order):
    """Weight-4 Eisenstein series 1 + 240 * sum sigma3(k) q**k, exact below q**order."""
    return QSeries(0, [1] + [240 * sigma(3, k) for k in range(1, order)])


def partition_series(order):
    """Generating series of partition numbers, sum p(j) q**j."""
    return euler_product(order).invert().require_integral("partition_series")


# -- ring operations ---------------------------------------------------


def test_difference_of_squares():
    one_plus_q = series(0, [1, 1, 0, 0, 0])
    one_minus_q = series(0, [1, -1, 0, 0, 0])
    assert one_plus_q * one_minus_q == series(0, [1, 0, -1, 0, 0])


def test_monomial_valuations_add():
    q_inv = QSeries.monomial(-1, 1, order=4)
    q = QSeries.monomial(1, 1, order=4)
    product = q_inv * q
    assert product.valuation == 0
    assert product.coeff(0) == 1
    assert all(product.coeff(n) == 0 for n in range(1, product.order))


def test_mismatched_orders_truncate_to_minimum():
    a = series(0, [1, 2, 3])
    b = series(0, [1, 1, 1, 1, 1, 1])
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_precision_window_is_enforced():
    a = series(0, [1, 2, 3])
    assert a.coeff(-5) == 0
    with pytest.raises(PrecisionError):
        a.coeff(3)
    with pytest.raises(PrecisionError):
        a.truncate(10)


def test_scalar_addition_needs_constant_term_in_window():
    a = QSeries.monomial(2, 5, order=6)
    assert (a + 7).coeff(0) == 7
    low = series(-3, [1, 0])
    with pytest.raises(PrecisionError):
        low + 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s + True, "expected an exact rational, got bool"),
        (lambda s: s - True, "expected an exact rational, got bool"),
        (lambda s: True - s, "expected an exact rational, got bool"),
        (lambda s: s ** True, "series powers must be integers"),
    ],
    ids=["add", "sub", "rsub", "pow"],
)
def test_series_arithmetic_rejects_bool(call, message):
    with pytest.raises(TypeError) as err:
        call(j_series(3))
    assert str(err.value) == message


def test_power_routes_negative_exponents_through_invert():
    a = series(0, [1, -1, 0, 0, 0, 0])
    assert a ** -1 == a.invert()
    assert a ** 0 == QSeries.one(6)


def test_invert_geometric_series():
    one_minus_q = series(0, [1, -1] + [0] * 6)
    inv = one_minus_q.invert()
    assert list(inv.coeffs) == [Fraction(1)] * 8


def test_invert_rejects_zero_leading_coefficient():
    with pytest.raises(NotInvertibleError):
        series(0, [0, 1, 1]).invert()
    with pytest.raises(NotInvertibleError):
        QSeries(0, []).invert()


def test_invert_is_two_sided_inverse_on_random_unit_series():
    rng = random.Random(20240131)
    # units stay in int; the other leading coefficients take the Fraction path
    leading = [1, -1, 2, -3, Fraction(1, 2)]
    for _ in range(25 * len(leading)):
        n = rng.randint(3, 12)
        coeffs = [rng.choice(leading)] + [rng.randint(-9, 9) for _ in range(n - 1)]
        a = series(0, coeffs)
        inv = a.invert()
        assert a * inv == QSeries.one(n)
        assert inv * a == QSeries.one(n)
        assert inv.invert() == a
        if coeffs[0] in (1, -1):
            assert all(type(c) is int for c in inv.coeffs)


def test_division_undoes_multiplication_on_random_series():
    rng = random.Random(20240601)
    # unit divisors keep int quotients; the others take the Fraction path
    leading = [1, -1, 2, -3, Fraction(1, 2)]
    for _ in range(25 * len(leading)):
        n = rng.randint(1, 12)
        a = QSeries(0, [rng.randint(-9, 9) for _ in range(n)])
        lead_b = rng.choice(leading)
        b = QSeries(0, [lead_b] + [rng.randint(-9, 9) for _ in range(n - 1)])
        quotient = (a * b) / b
        assert (quotient.valuation, quotient.order) == (0, n)
        assert quotient == a
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        assert a.shift(s) / b.shift(t) == (a / b).shift(s - t)
        if lead_b in (1, -1):
            assert all(type(c) is int for c in quotient.coeffs)


def test_division_windows_and_errors():
    # the quotient is exact only as far as both operands are known
    a = QSeries(1, [1, 2, 3, 4, 5])
    b = QSeries(-1, [1, -1, 0])
    quotient = a / b
    assert (quotient.valuation, quotient.order) == (2, 5)
    assert list(quotient.coeffs) == [1, 3, 6]
    with pytest.raises(NotInvertibleError):
        a / QSeries(0, [0, 1, 1])
    with pytest.raises(NotInvertibleError):
        a / QSeries(0, [])
    with pytest.raises(TypeError):
        a / 2


# -- Eisenstein ----------------------------------------------------------


def test_e4_cube_linear_coefficient():
    # (1 + 240q + ...)**3 has q coefficient 3 * 240 * sigma3(1) = 720.
    cube = eisenstein_e4(8) ** 3
    assert cube.coeff(0) == 1
    assert cube.coeff(1) == 720


# -- Euler product ------------------------------------------------------


def test_euler_product_pentagonal_prefix():
    e = euler_product(8)
    assert list(e.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert e.coeff(3) == 0


def test_euler_product_matches_literal_product_up_to_200():
    order = 200
    # Independent oracle: multiply the factors (1 - q**j) one at a time.
    coeffs = [Fraction(0)] * order
    coeffs[0] = Fraction(1)
    for j in range(1, order):
        for n in range(order - 1, j - 1, -1):
            coeffs[n] -= coeffs[n - j]
    assert euler_product(order) == QSeries(0, coeffs)


def test_partition_series_small_values():
    p = partition_series(12)
    # partitions of 4: 4, 3+1, 2+2, 2+1+1, 1+1+1+1
    assert p.coeff(4) == 5
    assert list(p.coeffs[:7]) == [1, 1, 2, 3, 5, 7, 11]


# -- eta products ----------------------------------------------------------


def test_eta_quotient_matches_euler_product_and_partitions():
    for order in (1, 2, 7, 120):
        assert eta_quotient({1: 1}, order) == euler_product(order)
    assert eta_quotient({1: -1}, 120) == partition_series(120)


def test_eta_quotient_inverse_24th_power_pinned():
    # prod(1-q^n)^-24 = q / Delta
    inverse = eta_quotient({1: -24}, 300)
    assert list(inverse.coeffs[:6]) == [1, 24, 324, 3200, 25650, 176256]
    assert inverse.coeff(50) == 167884450803343339733543652
    assert inverse.coeff(299) == int(
        "155030114833895249231181805649725828345683242629876581404002613402789501280000"
    )


def test_eta_quotient_general_exponents_match_products():
    order = 60
    e = euler_product(order)
    lifted = [0] * order  # prod(1-q^(2n)), i.e. e at q^2
    lifted[::2] = e.coeffs[: len(lifted[::2])]
    e2 = QSeries(0, lifted)
    assert eta_quotient({1: 3, 2: -2}, order) == e ** 3 * (e2 ** 2).invert()
    assert eta_quotient({1: 1, 2: 0}, order) == e


def test_eta_quotient_rejects_bad_exponents():
    for bad in ({0: 1}, {-2: 1}, {1: Fraction(1, 2)}, {1.0: 1}, {1: 0.5}):
        with pytest.raises(ValueError):
            eta_quotient(bad, 10)
    with pytest.raises(ValueError):
        eta_quotient({1: 24}, 0)


# q^-1 ... q^4 of the eta-quotient McKay-Thompson series
MCKAY_THOMPSON_HEADS = {
    "2B": [1, 0, 276, -2048, 11202, -49152],
    "3B": [1, 0, 54, -76, -243, 1188],
    "4C": [1, 0, 20, 0, -62, 0],
    "5B": [1, 0, 9, 10, -30, 6],
    "7B": [1, 0, 2, 8, -5, -4],
    "13B": [1, 0, -1, 2, 1, 2],
}


def test_mckay_thompson_first_coefficients():
    for name, head in MCKAY_THOMPSON_HEADS.items():
        t = mckay_thompson(name, 4)
        assert (t.valuation, t.order) == (-1, 5)
        assert [t.coeff(n) for n in range(-1, 5)] == head, name
        assert all(type(c) is int for c in t.coeffs)
    for order in (0, 1, 60):
        assert mckay_thompson("13B", order).order == j_series(order).order


def test_mckay_thompson_4c_squares_to_2b():
    # T_4C(q)^2 - 40 = T_2B(q^2): two different eta quotients of the table
    order = 120
    square = mckay_thompson("4C", order) ** 2 - 40
    t2b = mckay_thompson("2B", order)
    assert square.valuation == -2
    for n in range(-2, square.order):
        assert square.coeff(n) == (t2b.coeff(n // 2) if n % 2 == 0 else 0), n


def test_mckay_thompson_rejects_unknown_classes():
    for bad in ("1A", "2A", "2b", "4c", ""):
        with pytest.raises(ValueError, match="known: 2B"):
            mckay_thompson(bad, 5)
    with pytest.raises(ValueError):
        mckay_thompson("2B", -1)


# -- the modular invariant ----------------------------------------------


def test_j_series_first_coefficients():
    j = j_series(3)
    assert j.valuation == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 0
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_j_series_fourth_coefficient_by_quadrisection():
    # With seeds c(1), c(2), c(3), the coefficient c(4) must equal
    # c(3) + (c(1)**2 - c(1)) / 2 (quadrisection of the series).
    j = j_series(4)
    c1, c3, c4 = j.coeff(1), j.coeff(3), j.coeff(4)
    half, remainder = divmod(c1 * c1 - c1, 2)
    assert remainder == 0
    assert c4 == c3 + half


def test_j_series_times_denominator_reproduces_numerator():
    # the power-and-invert route is independent of the recurrence in j_series
    for order in (5, 20, 150, 300):
        work = order + 2
        denominator = (euler_product(work) ** 24).shift(1)
        numerator = eisenstein_e4(work) ** 3
        lhs = (j_series(order) + 744) * denominator
        window = min(lhs.order, numerator.order)
        assert lhs.truncate(window) == numerator.truncate(window)


def test_discriminant_identity_cross_checks_both_routes():
    # E4**3 - E6**2 = 1728 q prod(1-q**k)**24 pins every coefficient of the
    # denominator against an independent Eisenstein-only computation.
    order = 40
    e4 = eisenstein_e4(order)

    e6 = QSeries(
        0, [Fraction(1)] + [Fraction(-504 * sigma(5, k)) for k in range(1, order)]
    )
    lhs = e4 ** 3 - e6 ** 2
    rhs = 1728 * (euler_product(order) ** 24).shift(1)
    window = min(lhs.order, rhs.order)
    assert lhs.truncate(window) == rhs.truncate(window)


def test_weight_twelve_identity():
    # M_12 = <E12, Delta>: 691 E4^3 = 691 E12 + 432000 q prod(1-q^n)^24, the
    # identity j_series rests on, from E4 and the Euler product alone
    order = 300

    e12 = QSeries(0, [691] + [65520 * sigma(11, k) for k in range(1, order)])
    lhs = 691 * eisenstein_e4(order) ** 3
    rhs = e12 + 432000 * (euler_product(order) ** 24).shift(1)
    window = min(lhs.order, rhs.order)
    assert lhs.truncate(window) == rhs.truncate(window)


def test_j_series_coefficients_are_integral():
    assert all(c.denominator == 1 for c in j_series(30).coeffs)


def test_integer_series_store_plain_ints():
    for s in (j_series(30), primary_dim_series(30), euler_product(30)):
        assert all(type(c) is int for c in s.coeffs)
    assert list(QSeries(0, [Fraction(4, 2), Fraction(1, 2)]).coeffs) == [2, Fraction(1, 2)]
    assert type(QSeries(0, [Fraction(4, 2)]).coeffs[0]) is int

    class Int(int):
        pass

    assert type(QSeries(0, [Int(3)]).coeffs[0]) is int


# -- primary-dimension series --------------------------------------------


def test_primary_dim_series_small_values():
    dims = primary_dim_series(4)
    assert dims.valuation == -1
    assert dims.coeff(-1) == 1  # weight-0 subspace: the vacuum line
    assert dims.coeff(0) == 0  # weight-1 subspace is zero
    assert dims.coeff(1) == 196883
    assert dims.coeff(2) == 21296876


def test_primary_dim_series_matches_expanded_route():
    # Independent expansion: q**-1 E4**3 P(q)**23 - 744 prod(1-q**j) + 1,
    # with P the partition series; equivalent after clearing eta powers.
    order = 25
    work = order + 4
    direct = primary_dim_series(order)
    expanded = (
        (eisenstein_e4(work) ** 3 * partition_series(work) ** 23).shift(-1)
        - 744 * euler_product(work)
        + 1
    )
    assert direct == expanded.truncate(order)


def test_primary_dim_series_positivity():
    order = 60
    dims = primary_dim_series(order)
    assert all(c.denominator == 1 for c in dims.coeffs)
    assert dims.coeff(-1) > 0
    assert dims.coeff(0) == 0
    for j in range(2, order + 1):
        assert dims.coeff(j - 1) > 0, f"weight {j} has no primary vectors?"


def test_recurrence_and_691_tripwires_name_the_exponent(monkeypatch):
    import monsterlie.qseries as qs

    divisor_sums, quotient = qs._divisor_sums, qs.eta_quotient

    def bad_sums(limit, power):
        sums = divisor_sums(limit, power)
        sums[2] += 1  # makes 2 * a_2 odd for prod(1 - q^n)
        return sums

    monkeypatch.setattr(qs, "_divisor_sums", bad_sums)
    with pytest.raises(IntegralityError, match=r"q\^2 is non-integral"):
        eta_quotient({1: 1}, 5)
    monkeypatch.setattr(qs, "_divisor_sums", divisor_sums)

    def bad_quotient(exponents, order):
        # one unit off at q^5 shifts 691 * q * J at q^6 by a non-multiple of 691
        return quotient(exponents, order) + QSeries.monomial(5, 1, order)

    monkeypatch.setattr(qs, "eta_quotient", bad_quotient)
    with pytest.raises(IntegralityError, match=r"j_series: coefficient of q\^5 "):
        j_series(10)


def test_series_integrity_tripwire_message():
    bad = QSeries(0, [Fraction(1, 2)])
    with pytest.raises(IntegralityError):
        bad.require_integral("bad")
