"""Exact truncated Laurent series in q and the named modular series.

Coefficients are exact rationals, stored as plain `int` where integral and
as `fractions.Fraction` otherwise; the integer-valued named series (the
normalized modular invariant, the Euler product, partition numbers,
primary-subspace dimensions) stay in `int` throughout and are
integrality-checked at their boundary.  A series knows its `valuation`
(lowest represented exponent) and an exclusive precision bound `order`: the
coefficient of q**n is exact for valuation <= n < order, and arithmetic
never claims precision the operands cannot support.

The fractional power q**(1/24) of the Dedekind eta function is never
materialized.  `euler_product` returns the integral-exponent combination
q**(-1/24) * eta(q) = prod_{j>=1} (1 - q**j), which is the only form the
named series here ever need: it enters the modular invariant through its
24th power and the primary-dimension series through a single factor, where
the fractional prefactors cancel.  The modular invariant divides by that
24th power through its inverse prod(1-q**n)**-24, computed by an exact
integer recurrence on the divisor sums sigma(m).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


class NotInvertibleError(ValueError):
    """Series has no inverse at this precision (zero leading coefficient)."""


class PrecisionError(ValueError):
    """A coefficient beyond the exact window of a series was requested."""


class IntegralityError(ArithmeticError):
    """An exactness tripwire fired: a value that must be an integer is not."""


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _coeff(value):
    """`_frac`, then an integral value as a plain `int` (the coefficient form)."""
    if type(value) is int:
        return value
    value = _frac(value)
    return value.numerator if value.denominator == 1 else value


class QSeries:
    """Truncated Laurent series sum of coeffs[i] * q**(valuation + i).

    `coeffs` always has length order - valuation (zero-padded, never
    silently shortened).  Coefficients of q**n for n < valuation are
    exactly zero; coefficients for n >= order are undetermined and
    requesting one raises PrecisionError.
    """

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation, coeffs, order=None):
        coeffs = [_coeff(c) for c in coeffs]
        if order is None:
            order = valuation + len(coeffs)
        if order - valuation != len(coeffs):
            raise ValueError(
                f"coefficient window mismatch: {len(coeffs)} coefficients for "
                f"exponents [{valuation}, {order})"
            )
        self.valuation = valuation
        self.coeffs = coeffs
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exponent, coefficient=1, order=None):
        """c * q**exponent, exact through q**(order-1)."""
        if order is None:
            order = exponent + 1
        if order <= exponent:
            raise ValueError("order must exceed the monomial exponent")
        coeffs = [0] * (order - exponent)
        coeffs[0] = coefficient
        return cls(exponent, coeffs, order)

    @classmethod
    def one(cls, order):
        return cls.monomial(0, 1, order)

    # -- accessors ----------------------------------------------------

    def coeff(self, n):
        """Exact coefficient of q**n; raises beyond the precision window."""
        if n >= self.order:
            raise PrecisionError(
                f"coefficient of q^{n} is not determined (order {self.order})"
            )
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    def coefficients(self, lo, hi):
        """List of exact coefficients of q**n for lo <= n <= hi."""
        return [self.coeff(n) for n in range(lo, hi + 1)]

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

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
        return QSeries(self.valuation + k, list(self.coeffs), self.order + k)

    def truncate(self, new_order):
        if new_order > self.order:
            raise PrecisionError(
                f"cannot extend precision from order {self.order} to {new_order}"
            )
        if new_order < self.valuation:
            raise ValueError("truncation below the valuation leaves no window")
        return QSeries(
            self.valuation, self.coeffs[: new_order - self.valuation], new_order
        )

    # -- ring operations ----------------------------------------------

    def _binary_window(self, other):
        return min(self.valuation, other.valuation), min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._add_scalar(_coeff(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        val, order = self._binary_window(other)
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(val, order)]
        return QSeries(val, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._add_scalar(-_coeff(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _add_scalar(self, c):
        if self.order <= 0:
            raise PrecisionError(
                "cannot add a constant: q^0 lies beyond the precision window"
            )
        val = min(self.valuation, 0)
        coeffs = [self.coeff(n) for n in range(val, self.order)]
        coeffs[0 - val] += c
        return QSeries(val, coeffs, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return QSeries(self.valuation, [c * a for a in self.coeffs], self.order)
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
            return QSeries(val, [], val)
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
        return QSeries(val, out, order)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
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

    def invert(self):
        """Multiplicative inverse: self * invert(self) = 1 + O(q**precision).

        Requires a nonzero leading (lowest represented) coefficient.
        """
        if not self.coeffs or self.coeffs[0] == 0:
            raise NotInvertibleError(
                "series is not invertible: zero series or zero leading coefficient"
            )
        a = self.coeffs
        p = len(a)
        # an int when a[0] is +-1, so unit series never leave int
        inv0 = _coeff(Fraction(1) / a[0])
        inv = [inv0]
        for k in range(1, p):
            # sum_{i=1..k} a[i] * inv[k - i]
            inv.append(-sum(map(mul, a[1 : k + 1], reversed(inv))) * inv0)
        return QSeries(-self.valuation, inv, -self.valuation + p)

    # -- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        lo = min(self.valuation, other.valuation)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, self.order))

    def __hash__(self):
        raise TypeError("QSeries is not hashable")

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


def sigma3(k):
    """Sum of the cubes of the positive divisors of k."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError(f"sigma3 requires a positive integer, got {k!r}")
    return _divisor_sum(k, 3)


def _divisor_sum(k, power):
    """Sum of d**power over the positive divisors d of the positive int k."""
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += d ** power
            e = k // d
            if e != d:
                total += e ** power
        d += 1
    return total


def eisenstein_e4(order):
    """Weight-4 Eisenstein series 1 + 240 * sum sigma3(k) q**k, exact below q**order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs = [1] + [240 * sigma3(k) for k in range(1, order)]
    return QSeries(0, coeffs, order)


def euler_product(order):
    """prod_{j>=1} (1 - q**j) via the pentagonal-number expansion.

    This is q**(-1/24) * eta(q); every coefficient is -1, 0 or 1, with
    support on the generalized pentagonal numbers j(3j +- 1)/2.
    """
    if order < 1:
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
    return QSeries(0, coeffs, order)


def partition_series(order):
    """Generating series of partition numbers, sum p(j) q**j."""
    return euler_product(order).invert().require_integral("partition_series")


def _euler_product_power_minus_24(order):
    """prod_{n>=1} (1 - q**n)**-24 = sum a_n q**n, exact below q**order.

    The logarithmic derivative of the product is 24 * sum sigma(m) q**(m-1)
    (sigma the divisor sum), so n * a_n = 24 * sum_{m=1..n} sigma(m) a_{n-m}.
    Every a_n is an integer; each exact division is checked.
    """
    sigma = [0] + [_divisor_sum(m, 1) for m in range(1, order)]
    a = [1]
    for n in range(1, order):
        # sigma[m] * a[n - m] for m = 1..n
        a_n, rem = divmod(24 * sum(map(mul, sigma[1 : n + 1], reversed(a))), n)
        if rem:
            raise IntegralityError(
                f"prod(1-q^n)^-24: coefficient of q^{n} is non-integral; "
                "this signals an arithmetic bug"
            )
        a.append(a_n)
    return QSeries(0, a, order)


def j_series(order):
    """The normalized modular invariant with zero constant term.

    Returns the Laurent expansion q**-1 + 0 + 196884 q + ... exact through
    q**order, computed as q**-1 * E4(q)**3 * prod(1-q**k)**-24 - 744.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = order + 2
    numerator = eisenstein_e4(work) ** 3
    series = (numerator * _euler_product_power_minus_24(work)).shift(-1) - 744
    series.require_integral("j_series")
    if series.valuation != -1 or series.coeff(-1) != 1 or series.coeff(0) != 0:
        raise IntegralityError("j_series: leading terms are inconsistent")
    return series


def primary_dim_series(order):
    """Generating series whose q**(j-1) coefficient is the dimension of the
    subspace of primary vectors of weight j in the moonshine module.

    Computed from the defining identity: the modular invariant times the
    Euler product, plus one.  The q**0 coefficient (weight-1 subspace) is
    zero; every other represented coefficient is a nonnegative integer.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    series = j_series(order) * euler_product(order + 2) + 1
    series = series.truncate(order)
    series.require_integral("primary_dim_series")
    if order > 0 and series.coeff(0) != 0:
        raise IntegralityError(
            "primary_dim_series: weight-1 coefficient must vanish"
        )
    return series
