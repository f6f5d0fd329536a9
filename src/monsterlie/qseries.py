"""Exact truncated Laurent series in q and the named modular series.

Coefficients are exact rationals, stored as plain `int` where integral and
as `fractions.Fraction` otherwise; the integer-valued named series (the
normalized modular invariant, the Euler product, the primary-subspace
dimensions) stay in `int` throughout and are
integrality-checked at their boundary.  A series is an immutable value:
its `valuation` (lowest represented exponent) and a tuple of `coeffs`, from
which the exclusive precision bound `order` = valuation + len(coeffs)
follows.  The coefficient of q**n is exact for valuation <= n < order, and
arithmetic never claims precision the operands cannot support; a scalar is
added as the constant series of the other operand's order.

The fractional power q**(1/24) of the Dedekind eta function is never
materialized.  `euler_product` returns the integral-exponent combination
q**(-1/24) * eta(q) = prod_{j>=1} (1 - q**j), and `eta_quotient` the
general product prod_d prod_k (1 - q**(d*k))**r_d by an exact integer
recurrence on the divisor sums sigma(m); `mckay_thompson` reads the
McKay-Thompson series of the classes 2B, 3B, 4C, 5B, 7B and 13B off a
table of such quotients.  The modular invariant is one
exact division: 691 * q * (J + 744) = 691 * E12 / prod(1-q**n)**24 +
432000 * q, with E12 read off its divisor sums sigma11 and no series
product.  The primary-dimension series multiplies J by prod(1-q**n) as a
signed sum over the generalized pentagonal numbers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub


class NotInvertibleError(ValueError):
    """Series has no inverse at this precision (zero leading coefficient)."""


class PrecisionError(ValueError):
    """A coefficient beyond the exact window of a series was requested."""


class IntegralityError(ArithmeticError):
    """An exactness tripwire fired: a value that must be an integer is not."""


def _coeff(value):
    """An exact rational in coefficient form: a plain `int` where integral,
    a `Fraction` otherwise; `TypeError` on anything else (`bool` included)."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _int(value, name):
    """value when it is an `int` (`bool` excluded): the gate of exponents and
    mode indices; `TypeError` naming the argument otherwise."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


class QSeries:
    """Truncated Laurent series sum of coeffs[i] * q**(valuation + i).

    `coeffs` is a tuple; `order` = valuation + len(coeffs) is the exclusive
    precision bound.  Coefficients of q**n for n < valuation are exactly
    zero; coefficients for n >= order are undetermined and requesting one
    raises PrecisionError.  A series is immutable.
    """

    __slots__ = ("valuation", "coeffs")

    def __init__(self, valuation, coeffs):
        object.__setattr__(self, "valuation", _int(valuation, "valuation"))
        object.__setattr__(self, "coeffs", tuple([_coeff(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def order(self):
        return self.valuation + len(self.coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exponent, coefficient=1, order=None):
        """c * q**exponent, exact through q**(order-1)."""
        if order is None:
            order = exponent + 1
        if order <= exponent:
            raise PrecisionError(f"q^{exponent} lies beyond the precision window")
        return cls(exponent, [coefficient] + [0] * (order - exponent - 1))

    @classmethod
    def one(cls, order):
        return cls.monomial(0, 1, order)

    # -- accessors ----------------------------------------------------

    def coeff(self, n):
        """Exact coefficient of q**n; raises beyond the precision window."""
        if _int(n, "n") >= self.order:
            raise PrecisionError(
                f"coefficient of q^{n} is not determined (order {self.order})"
            )
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    def require_integral(self, name):
        """Hard integrality tripwire for the named series."""
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise IntegralityError(
                    f"{name}: coefficient of q^{self.valuation + i} is "
                    f"non-integral ({c}); this signals an arithmetic bug"
                )
        return self

    # -- structural helpers -------------------------------------------

    def shift(self, k):
        """Multiply by the exact monomial q**k."""
        return QSeries(self.valuation + _int(k, "k"), self.coeffs)

    def truncate(self, new_order):
        if _int(new_order, "new_order") > self.order:
            raise PrecisionError(
                f"cannot extend precision from order {self.order} to {new_order}"
            )
        if new_order < self.valuation:
            raise ValueError("truncation below the valuation leaves no window")
        return QSeries(self.valuation, self.coeffs[: new_order - self.valuation])

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(0, _coeff(other), self.order)
        elif not isinstance(other, QSeries):
            return NotImplemented
        val = min(self.valuation, other.valuation)
        order = min(self.order, other.order)
        return QSeries(val, [self.coeff(n) + other.coeff(n) for n in range(val, order)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.valuation, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)  # rejects bool before it is negated
        elif not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return QSeries(self.valuation, [c * a for a in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        val = self.valuation + other.valuation
        # Unknown tails enter the product at exponent order_a + val_b and
        # order_b + val_a; additionally never claim beyond either operand.
        order = min(
            self.order,
            other.order,
            self.order + other.valuation,
            other.order + self.valuation,
        )
        n = order - val
        if n <= 0:
            return QSeries(val, [])
        a, b = self.coeffs, other.coeffs
        rb = b[::-1]
        out = []
        for k in range(n):
            # a[i] * b[k - i] over every i that indexes both windows; in the
            # reversed copy rb, b[k - i] sits at len(b) - 1 - k + i.
            lo = max(0, k - len(b) + 1)
            hi = min(k, len(a) - 1)
            shift = len(b) - 1 - k
            out.append(sum(map(mul, a[lo : hi + 1], rb[shift + lo : shift + hi + 1])))
        return QSeries(val, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int:
            raise TypeError("series powers must be integers")
        if exponent < 0:
            return self.invert() ** (-exponent)
        if exponent == 0:
            return QSeries.one(max(self.order - self.valuation, 1))
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other):
        """Exact quotient by back-substitution on the window both operands
        determine; the divisor needs a nonzero leading coefficient."""
        if not isinstance(other, QSeries):
            return NotImplemented
        b = other.coeffs
        if not b or b[0] == 0:
            raise NotInvertibleError(
                "series is not invertible: zero series or zero leading coefficient"
            )
        a = self.coeffs
        # an int when b[0] is +-1, so unit divisors never leave int
        inv0 = _coeff(Fraction(1) / b[0])
        x = []
        for k in range(min(len(a), len(b))):
            # a[k] - sum_{m=1..k} b[m] * x[k - m]
            x.append((a[k] - sum(map(mul, b[1 : k + 1], reversed(x)))) * inv0)
        val = self.valuation - other.valuation
        return QSeries(val, x)

    def invert(self):
        """Multiplicative inverse: self * invert(self) = 1 + O(q**precision)."""
        return QSeries.one(max(len(self.coeffs), 1)) / self

    # -- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        lo = min(self.valuation, other.valuation)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, self.order))

    def __repr__(self):
        shown = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            shown.append(f"{c}*q^{self.valuation + i}")
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"QSeries({body} + O(q^{self.order}))"


# -- named series -----------------------------------------------------


def _divisor_sums(limit, power):
    """[0, sigma_power(1), ..., sigma_power(limit - 1)] by a divisor sieve."""
    sums = [0] * limit
    for d in range(1, limit):
        dp = d ** power
        for m in range(d, limit, d):
            sums[m] += dp
    return sums


def euler_product(order):
    """prod_{j>=1} (1 - q**j) via the pentagonal-number expansion.

    This is q**(-1/24) * eta(q); every coefficient is -1, 0 or 1, with
    support on the generalized pentagonal numbers j(3j +- 1)/2.
    """
    if _int(order, "order") < 1:
        raise ValueError("order must be at least 1")
    coeffs = [0] * order
    coeffs[0] = 1
    j = 1
    while True:
        lo = j * (3 * j - 1) // 2
        hi = j * (3 * j + 1) // 2
        if lo >= order and hi >= order:
            break
        sign = -1 if j % 2 else 1
        if lo < order:
            coeffs[lo] = sign
        if hi < order:
            coeffs[hi] = sign
        j += 1
    return QSeries(0, coeffs)


def eta_quotient(exponents, order):
    """prod_d prod_{k>=1} (1 - q**(d*k))**r_d for exponents {d: r_d}, exact
    below q**order (the eta quotient prod eta(d*t)**r_d without its power of
    q**(1/24)).

    The logarithmic derivative gives n * a_n = sum_{m=1..n} B_m a_{n-m} with
    B_m = -sum_{d | m} r_d * d * sigma(m/d) (sigma the divisor sum).  Every
    a_n is an integer; each exact division is checked.
    """
    if _int(order, "order") < 1:
        raise ValueError("order must be at least 1")
    sigma = _divisor_sums(order, 1)
    b = [0] * order
    for d, r in exponents.items():
        if type(d) is not int or d < 1 or type(r) is not int:
            raise ValueError(
                f"eta_quotient: exponent {d!r}: {r!r} needs int d >= 1 and int r"
            )
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
    return QSeries(0, a)


# Eta-quotient McKay-Thompson series T_g = q**-1 prod_d prod_k
# (1 - q**(d*k))**r_d + r_1 (Conway-Norton 1979, "Monstrous Moonshine",
# Table 2); adding r_1 makes the constant term zero.
_MCKAY_THOMPSON = {
    "2B": {1: 24, 2: -24},
    "3B": {1: 12, 3: -12},
    "4C": {1: 8, 4: -8},
    "5B": {1: 6, 5: -6},
    "7B": {1: 4, 7: -4},
    "13B": {1: 2, 13: -2},
}


def mckay_thompson(name, order):
    """The McKay-Thompson series q**-1 + 0 + ... of the Monster class `name`,
    exact through q**order like `j_series`, for the classes whose series is
    an eta quotient: 2B, 3B, 4C, 5B, 7B and 13B."""
    if name not in _MCKAY_THOMPSON:
        raise ValueError(
            f"no eta-quotient McKay-Thompson series for class {name!r}; "
            f"known: {', '.join(_MCKAY_THOMPSON)}"
        )
    if _int(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    exponents = _MCKAY_THOMPSON[name]
    return eta_quotient(exponents, order + 2).shift(-1) + exponents[1]


def j_series(order):
    """The normalized modular invariant with zero constant term.

    Returns the Laurent expansion q**-1 + 0 + 196884 q + ... exact through
    q**order.  E4**3 = E12 + (432000/691) * Delta in weight 12, so 691 * q *
    (J + 744) = 691 * E12 / prod(1-q**k)**24 + 432000 * q, with 691 * E12 =
    691 + 65520 * sum sigma11(k) q**k; every division by 691 is checked.
    """
    if _int(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    work = order + 2
    e12 = QSeries(0, [691] + [65520 * s for s in _divisor_sums(work, 11)[1:]])
    qj = list((e12 / eta_quotient({1: 24}, work)).coeffs)
    qj[1] += 432000
    for n, c in enumerate(qj):
        qj[n], rem = divmod(c, 691)
        if rem:
            raise IntegralityError(
                f"j_series: coefficient of q^{n - 1} is non-integral; "
                "this signals an arithmetic bug"
            )
    qj[1] -= 744
    series = QSeries(-1, qj)
    series.require_integral("j_series")
    if series.coeff(-1) != 1 or series.coeff(0) != 0:
        raise IntegralityError("j_series: leading terms are inconsistent")
    return series


def _times_euler_product(series):
    """series * prod(1 - q**n) on the window of series, as a signed sum of
    shifted copies over the generalized pentagonal numbers: O(n**1.5)."""
    c = series.coeffs
    out = list(c)
    for p, sign in enumerate(euler_product(len(c)).coeffs):
        if p and sign:
            out[p:] = map(add if sign > 0 else sub, out[p:], c)
    return QSeries(series.valuation, out)


def primary_dim_series(order):
    """Generating series whose q**(j-1) coefficient is the dimension of the
    subspace of primary vectors of weight j in the moonshine module.

    Computed from the defining identity: the modular invariant times the
    Euler product, plus one.  The q**0 coefficient (weight-1 subspace) is
    zero; every other represented coefficient is a nonnegative integer.
    """
    if _int(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    series = _times_euler_product(j_series(order)) + 1
    series = series.truncate(order)
    series.require_integral("primary_dim_series")
    if order > 0 and series.coeff(0) != 0:
        raise IntegralityError(
            "primary_dim_series: weight-1 coefficient must vanish"
        )
    return series
