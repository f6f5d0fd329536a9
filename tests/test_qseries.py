import random
from fractions import Fraction
from operator import mul

import pytest

from monsterlie.qseries import (
    _MCKAY_THOMPSON,
    IntegralityError,
    NotInvertibleError,
    PrecisionError,
    QSeries,
    _primary_dims,
    eta_quotient,
    euler_product,
    j_series,
    mckay_thompson,
    primary_dim_series,
)


class Int(int):
    """An int subclass other than bool: read as the plain int it equals."""


# -- oracles: the routes to J and the primary dimensions that the package
# -- no longer takes, kept here to cross-check the routes it does take.
# -- They work on plain int lists, the coefficients of q**0, q**1, ...


def times(a, b):
    """The product of two coefficient lists on the shorter window."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def power(a, e):
    """a**e on a's window, e >= 0, by repeated squaring."""
    out = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            out = times(out, a)
        a, e = times(a, a), e >> 1
    return out


def reciprocal(a):
    """1 / a on a's window, for a leading coefficient 1, by back-substitution."""
    x = [1]
    for k in range(1, len(a)):
        x.append(-sum(a[m] * x[k - m] for m in range(1, k + 1)))
    return x


def sigma(power, k):
    """Sum of the power-th powers of the divisors of k, by trial division."""
    return sum(d ** power for d in range(1, k + 1) if k % d == 0)


def eisenstein(weight, order):
    """The Eisenstein series of weight 4, 6 or 12, times 1, 1 or 691:
    c + b * sum sigma_{weight-1}(k) q**k below q**order."""
    c, b = {4: (1, 240), 6: (1, -504), 12: (691, 65520)}[weight]
    return [c] + [b * sigma(weight - 1, k) for k in range(1, order)]


def partition_series(order):
    """Generating series of partition numbers, sum p(j) q**j."""
    return reciprocal(list(euler_product(order).coeffs))


def eta_quotient_by_recurrence(exponents, order):
    """prod_d prod_k (1 - q**(d*k))**r_d by the logarithmic derivative:
    n * a_n = sum_{m=1..n} B_m a_{n-m} with B_m = -sum_{d | m} r_d * d *
    sigma(m/d), each exact division checked."""
    sigma = [0] * order
    for d in range(1, order):
        for m in range(d, order, d):
            sigma[m] += d
    b = [0] * order
    for d, r in exponents.items():
        for m in range(d, order, d):
            b[m] -= r * d * sigma[m // d]
    a = [1]
    for n in range(1, order):
        # B_m * a[n - m] for m = 1..n
        a_n, rem = divmod(sum(map(mul, b[1 : n + 1], reversed(a))), n)
        if rem:
            raise IntegralityError(
                f"eta_quotient {exponents}: coefficient of q^{n} is non-integral; "
                "this signals an arithmetic bug"
            )
        a.append(a_n)
    return a


# -- ring operations ---------------------------------------------------


def test_difference_of_squares():
    one_plus_q = QSeries(0, [1, 1, 0, 0, 0])
    one_minus_q = QSeries(0, [1, -1, 0, 0, 0])
    assert one_plus_q * one_minus_q == QSeries(0, [1, 0, -1, 0, 0])


def test_monomial_valuations_add():
    q_inv = QSeries(-1, [1, 0, 0, 0, 0])
    q = QSeries(1, [1, 0, 0])
    product = q_inv * q
    assert product.valuation == 0
    assert product.coeff(0) == 1
    assert all(product.coeff(n) == 0 for n in range(1, product.order))


def test_mismatched_orders_truncate_to_minimum():
    a = QSeries(0, [1, 2, 3])
    b = QSeries(0, [1, 1, 1, 1, 1, 1])
    assert (a * b).order == 3
    assert (b * a).order == 3


def test_precision_window_is_enforced():
    a = QSeries(0, [1, 2, 3])
    assert a.coeff(-5) == 0
    with pytest.raises(PrecisionError):
        a.coeff(3)


def test_product_with_an_empty_window_is_empty():
    assert QSeries(0, [1]) * QSeries(0, []) == QSeries(0, [])
    assert QSeries(0, []) * QSeries(0, [1]) == QSeries(0, [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: j_series(-1), "order must be nonnegative"),
        (lambda: primary_dim_series(-1), "order must be nonnegative"),
        (lambda: euler_product(0), "order must be at least 1"),
    ],
)
def test_named_series_reject_orders_below_their_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_repr_shows_six_nonzero_terms_then_a_cut():
    assert repr(QSeries(-1, [0, 0])) == "QSeries(0 + O(q^1))"
    assert repr(QSeries(0, [])) == "QSeries(0 + O(q^0))"
    assert repr(QSeries(-1, [1, 0, -2])) == "QSeries(1*q^-1 + -2*q^1 + O(q^2))"
    shown = " + ".join(f"{n}*q^{n}" for n in range(1, 7))
    assert repr(QSeries(1, range(1, 9))) == f"QSeries({shown} + ... + O(q^9))"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s * True, "scalar must be an int, got bool"),
        (lambda s: True * s, "scalar must be an int, got bool"),
        (lambda s: s ** True, "series powers must be integers"),
    ],
    ids=["mul", "rmul", "pow"],
)
def test_series_arithmetic_rejects_bool(call, message):
    with pytest.raises(TypeError) as err:
        call(j_series(3))
    assert str(err.value) == message


def test_power_reads_an_int_subclass_as_its_int():
    assert j_series(3) ** Int(2) == j_series(3) ** 2
    assert j_series(3) ** Int(-1) == j_series(3) ** -1


def test_power_routes_negative_exponents_through_invert():
    a = QSeries(0, [1, -1, 0, 0, 0, 0])
    assert a ** -1 == a.invert()
    assert a ** 0 == QSeries(0, [1, 0, 0, 0, 0, 0])


def test_invert_geometric_series():
    one_minus_q = QSeries(0, [1, -1] + [0] * 6)
    inv = one_minus_q.invert()
    assert list(inv.coeffs) == [1] * 8


def test_invert_rejects_zero_leading_coefficient():
    with pytest.raises(NotInvertibleError):
        QSeries(0, [0, 1, 1]).invert()
    with pytest.raises(NotInvertibleError):
        QSeries(0, []).invert()


def test_invert_is_two_sided_inverse_on_random_unit_series():
    rng = random.Random(20240131)
    for _ in range(50):
        n = rng.randint(3, 12)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(n - 1)]
        a = QSeries(0, coeffs)
        inv = a.invert()
        one = QSeries(0, [1] + [0] * (n - 1))
        assert a * inv == one
        assert inv * a == one
        assert inv.invert() == a
        # the list oracle inverts the monic series lead * a
        assert reciprocal([coeffs[0] * c for c in coeffs]) == [coeffs[0] * c for c in inv.coeffs]


def test_division_undoes_multiplication_on_random_series():
    # dividing by b is multiplying by b.invert(), for a leading coefficient +-1
    rng = random.Random(20240601)
    for _ in range(50):
        n = rng.randint(1, 12)
        a = QSeries(0, [rng.randint(-9, 9) for _ in range(n)])
        b = QSeries(0, [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(n - 1)])
        quotient = (a * b) * b.invert()
        assert (quotient.valuation, quotient.order) == (0, n)
        assert quotient == a


def test_division_windows_and_errors():
    # 1/b is exact on b's window, from q**-valuation(b) on, and a quotient
    # a * (1/b) only as far as both factors are known
    b = QSeries(-1, [1, -1, 0])
    inverse = b.invert()
    assert (inverse.valuation, inverse.order) == (1, 4)
    assert list(inverse.coeffs) == [1, 1, 1]
    a = QSeries(1, [1, 2, 3, 4, 5])
    quotient = a * inverse
    assert (quotient.valuation, quotient.order) == (2, 4)
    assert list(quotient.coeffs) == [1, 3]
    for divisor in (QSeries(0, [0, 1, 1]), QSeries(0, [])):
        with pytest.raises(NotInvertibleError):
            divisor.invert()
    with pytest.raises(TypeError):
        a / b


# -- Eisenstein ----------------------------------------------------------


def test_e4_cube_linear_coefficient():
    # (1 + 240q + ...)**3 has q coefficient 3 * 240 * sigma3(1) = 720.
    cube = power(eisenstein(4, 8), 3)
    assert cube[:2] == [1, 720]


# -- Euler product ------------------------------------------------------


def test_euler_product_pentagonal_prefix():
    e = euler_product(8)
    assert list(e.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert e.coeff(3) == 0


def test_euler_product_matches_literal_product_up_to_200():
    order = 200
    # Independent oracle: multiply the factors (1 - q**j) one at a time.
    coeffs = [1] + [0] * (order - 1)
    for j in range(1, order):
        for n in range(order - 1, j - 1, -1):
            coeffs[n] -= coeffs[n - j]
    assert euler_product(order) == QSeries(0, coeffs)


def test_partition_series_small_values():
    p = partition_series(12)
    # partitions of 4: 4, 3+1, 2+2, 2+1+1, 1+1+1+1
    assert p[4] == 5
    assert p[:7] == [1, 1, 2, 3, 5, 7, 11]


# -- eta products ----------------------------------------------------------


def test_eta_quotient_matches_euler_product_and_partitions():
    for order in (1, 2, 7, 120):
        assert eta_quotient({1: 1}, order) == euler_product(order)
    assert list(eta_quotient({1: -1}, 120).coeffs) == partition_series(120)


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
    e = list(euler_product(order).coeffs)
    lifted = [0] * order  # prod(1-q^(2n)), i.e. e at q^2
    lifted[::2] = e[: len(lifted[::2])]
    assert list(eta_quotient({1: 3, 2: -2}, order).coeffs) == times(
        power(e, 3), reciprocal(power(lifted, 2))
    )
    assert list(eta_quotient({1: 1, 2: 0}, order).coeffs) == e


@pytest.mark.parametrize(
    "exponents",
    list(_MCKAY_THOMPSON.values()) + [{1: 1}, {1: -1}, {1: 24}, {1: -24}],
    ids=str,
)
def test_eta_quotient_matches_the_log_derivative_recurrence(exponents):
    oracle = eta_quotient_by_recurrence(exponents, 1001)
    for order in (1, 2, 3, 7, 30, 222, 1001):
        assert list(eta_quotient(exponents, order).coeffs) == oracle[:order]


def test_eta_quotient_matches_the_recurrence_on_random_exponents():
    rng = random.Random(24)
    kinds = set()  # (sign, |r| mod 3): cubes, single factors and both directions
    for _ in range(12):
        exponents = {d: rng.randint(-30, 30) for d in rng.sample(range(1, 26), 3)}
        kinds |= {(r > 0, abs(r) % 3) for r in exponents.values() if r}
        oracle = eta_quotient_by_recurrence(exponents, 120)
        assert list(eta_quotient(exponents, 120).coeffs) == oracle
    assert kinds == {(sign, k) for sign in (False, True) for k in range(3)}


def test_eta_quotient_rejects_bad_exponents():
    for bad in ({0: 1}, {-2: 1}, {1: Fraction(1, 2)}, {1.0: 1}, {1: 0.5},
                {True: 1}, {1: True}):
        with pytest.raises(ValueError):
            eta_quotient(bad, 10)
    assert eta_quotient({Int(2): Int(-5), 1: 3}, 40) == eta_quotient({2: -5, 1: 3}, 40)
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
    t4c = list(mckay_thompson("4C", order).coeffs)
    square = times(t4c, t4c)  # T_4C**2 from q**-2 on
    square[2] -= 40
    t2b = mckay_thompson("2B", order)
    assert len(square) == order + 2
    for n, c in enumerate(square, -2):
        assert c == (t2b.coeff(n // 2) if n % 2 == 0 else 0), n


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


def delta(order):
    """Delta = q prod(1-q**n)**24 below q**order, by the power route."""
    return [0] + power(list(euler_product(order - 1).coeffs), 24)


def test_j_series_times_denominator_reproduces_numerator():
    # the power route is independent of the recurrence in j_series:
    # (J + 744) Delta = E4**3, read as q (J + 744), J's list from q**-1 on
    # with 744 added at q**0, times prod(1 - q**n)**24
    for order in (5, 20, 150, 300):
        work = order + 2
        j = list(j_series(order).coeffs)
        j[1] += 744
        lhs = times(j, power(list(euler_product(work).coeffs), 24))
        assert lhs == power(eisenstein(4, work), 3)


def test_discriminant_identity_cross_checks_both_routes():
    # E4**3 - E6**2 = 1728 q prod(1-q**k)**24 pins every coefficient of the
    # denominator against an independent Eisenstein-only computation.
    order = 40
    e4_cube, e6_square = power(eisenstein(4, order), 3), power(eisenstein(6, order), 2)
    assert [a - b for a, b in zip(e4_cube, e6_square)] == [1728 * c for c in delta(order)]


def test_weight_twelve_identity():
    # M_12 = <E12, Delta>: 691 E4^3 = 691 E12 + 432000 q prod(1-q^n)^24, the
    # identity j_series rests on, from E4 and the Euler product alone
    order = 300
    lhs = [691 * c for c in power(eisenstein(4, order), 3)]
    rhs = [a + 432000 * b for a, b in zip(eisenstein(12, order), delta(order))]
    assert lhs == rhs


def test_j_series_coefficients_are_integral():
    assert all(c.denominator == 1 for c in j_series(30).coeffs)


def test_integer_series_store_plain_ints():
    for s in (j_series(30), primary_dim_series(30), euler_product(30)):
        assert all(type(c) is int for c in s.coeffs)
    assert type(QSeries(0, [Int(3)]).coeffs[0]) is int


# -- primary-dimension series --------------------------------------------


def test_primary_dim_series_small_values():
    dims = primary_dim_series(4)
    assert dims.valuation == -1
    assert dims.coeff(-1) == 1  # weight-0 subspace: the vacuum line
    assert dims.coeff(0) == 0  # weight-1 subspace is zero
    assert dims.coeff(1) == 196883
    assert dims.coeff(2) == 21296876


def test_named_series_at_the_lowest_orders():
    # at order 0 the window holds q**-1 alone, so the plus one at q**0 lies
    # beyond it; the McKay-Thompson series always reach q**0
    assert repr(primary_dim_series(0)) == "QSeries(1*q^-1 + O(q^0))"
    assert repr(primary_dim_series(1)) == "QSeries(1*q^-1 + O(q^1))"
    assert repr(mckay_thompson("2B", 0)) == "QSeries(1*q^-1 + O(q^1))"
    assert repr(mckay_thompson("3B", 1)) == "QSeries(1*q^-1 + 54*q^1 + O(q^2))"


def test_primary_dim_series_matches_expanded_route():
    # Independent expansion: q**-1 E4**3 P(q)**23 - 744 prod(1-q**j) + 1,
    # with P the partition series; equivalent after clearing eta powers.
    order = 25
    work = order + 4
    # q times the expansion, from q**0 on: E4**3 P**23 - 744 q prod + q
    expanded = times(power(eisenstein(4, work), 3), power(partition_series(work), 23))
    for n, c in enumerate(euler_product(work - 1).coeffs, 1):
        expanded[n] -= 744 * c
    expanded[1] += 1
    assert list(primary_dim_series(order).coeffs) == expanded[: order + 1]


def test_primary_dim_series_positivity():
    order = 60
    dims = primary_dim_series(order)
    assert all(c.denominator == 1 for c in dims.coeffs)
    assert dims.coeff(-1) > 0
    assert dims.coeff(0) == 0
    for j in range(2, order + 1):
        assert dims.coeff(j - 1) > 0, f"weight {j} has no primary vectors?"


# -- Lehner's congruences: an oracle for J at every order -----------------

# Lehner, "Divisibility properties of the Fourier coefficients of the
# modular invariant j(tau)", Amer. J. Math. 71 (1949): for every n, a >= 1,
# c(p**a * n) = 0 mod p**e(a), with e below for p = 2, 3, 5, 7 and 11.
LEHNER = {
    2: lambda a: 3 * a + 8,
    3: lambda a: 2 * a + 3,
    5: lambda a: a + 1,
    7: lambda a: a,
    11: lambda a: a,
}


def lehner_violations(c, top):
    """(p, a, m) for every instance m = p**a * n <= top whose c[m] (the q**m
    coefficient of J) is not 0 mod p**e(a); the instance count second."""
    out, instances = [], 0
    for p, e in LEHNER.items():
        a, step = 1, p
        while step <= top:
            modulus = p ** e(a)
            out += [(p, a, m) for m in range(step, top + 1, step) if c[m] % modulus]
            instances += top // step
            a, step = a + 1, step * p
    return out, instances


@pytest.fixture(scope="module")
def j_to_8000():
    return list(j_series(8000).coeffs[1:])  # index m holds c(m), m = 0..8000


def test_lehner_congruences_hold_through_order_8000(j_to_8000):
    c = j_to_8000
    assert lehner_violations(c, 8000) == ([], 16116)
    for p, e in LEHNER.items():  # sharp at m = p**a: e(a) + 1 fails
        for a in (1, 2, 3):
            assert c[p**a] % p ** (e(a) + 1), (p, a)


@pytest.mark.parametrize("p", sorted(LEHNER))
def test_lehner_check_catches_one_unit_off(j_to_8000, p):
    # 13 * p is a multiple of p and of no other Lehner prime, so one unit
    # added there breaks exactly one instance: (p, 1, 13 p)
    c = list(j_to_8000)
    c[13 * p] += 1
    assert lehner_violations(c, 8000)[0] == [(p, 1, 13 * p)]


def test_691_tripwire_names_the_exponent(monkeypatch):
    import monsterlie.qseries as qs

    kernel = qs._eta_times

    def bad_kernel(coeffs, exponents):
        # one unit off at q^6 of 691 * q * (J + 744), J's q^5: no multiple of 691
        out = kernel(coeffs, exponents)
        out[6] += 1
        return out

    monkeypatch.setattr(qs, "_eta_times", bad_kernel)
    with pytest.raises(IntegralityError, match=r"j_series: coefficient of q\^5 "):
        j_series(10)


def test_series_integrity_tripwire_message():
    # a unit at J's q**0 would reach the weight-1 primaries, which are zero
    with pytest.raises(IntegralityError, match="weight-1 coefficient must vanish"):
        _primary_dims([1, 1, 196884, 21493760], 2)


# a call taking one exponent, the name it reports and its least value (None: unbounded)
EXPONENT_ENTRY_POINTS = {
    "QSeries": (lambda k: QSeries(k, [1]), "valuation", None),
    "coeff": (lambda k: j_series(5).coeff(k), "n", None),
    "j_series": (j_series, "order", 0),
    "primary_dim_series": (primary_dim_series, "order", 0),
    "euler_product": (euler_product, "order", 1),
    "eta_quotient": (lambda k: eta_quotient({1: 24}, k), "order", 1),
    "mckay_thompson": (lambda k: mckay_thompson("2B", k), "order", 0),
}


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 0.5, 3.0, True])
@pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRY_POINTS))
def test_exponents_must_be_ints(entry, value):
    call, name, _ = EXPONENT_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"{name} must be an int, got {type(value).__name__}"):
        call(value)
    assert call(3) is not None
    assert call(Int(3)) == call(3)  # an int subclass reads as the int it equals


def check_least_value(call, name, least):
    """call refuses one below its least value, as an int or an int
    subclass, with the exact `ValueError`, and takes the least value."""
    bound = "nonnegative" if least == 0 else f"at least {least}"
    for below in (least - 1, Int(least - 1)):
        with pytest.raises(ValueError) as err:
            call(below)
        assert str(err.value) == f"{name} must be {bound}"
    assert call(least) == call(Int(least))


@pytest.mark.parametrize(
    "entry", sorted(k for k, (_, _, least) in EXPONENT_ENTRY_POINTS.items() if least is not None)
)
def test_exponents_have_a_least_value(entry):
    check_least_value(*EXPONENT_ENTRY_POINTS[entry])


def test_eta_quotient_reads_int_subclass_exponents_as_int():
    assert eta_quotient({Int(1): Int(24)}, 10) == eta_quotient({1: 24}, 10)
