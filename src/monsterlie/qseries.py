"""Exact truncated Laurent series in q with integer coefficients, and the
named modular series.

A series is an immutable value: its `valuation` (lowest represented
exponent) and a tuple of `int` `coeffs`, from which the exclusive
precision bound `order` = valuation + len(coeffs) follows.  The
coefficient of q**n is exact for valuation <= n < order, and a product
never claims precision its factors cannot support.  Every series the
package builds is integral and is built on plain `int` lists; the named
series end in exact integer checks.

The fractional power q**(1/24) of the Dedekind eta function is never
materialized: `euler_product` is q**(-1/24) * eta(q) = prod_{j>=1}
(1 - q**j), `eta_quotient` the product prod_d prod_k (1 - q**(d*k))**r_d,
and `mckay_thompson` reads the classes 2B, 3B, 4C, 5B, 7B and 13B off a
table of such quotients.  One kernel forms every eta product from sparse
factors, Euler's pentagonal series and Jacobi's series for its cube, and
never divides an integer: 691 * q * (J + 744) = 691 * E12 /
prod(1-q**n)**24 + 432000 * q with E12 read off its divisor sums sigma11,
and the primary-dimension series is J * prod(1-q**n) + 1.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter, mul


class NotInvertibleError(ValueError):
    """Series has no inverse over the integers (leading coefficient not +-1)."""


class PrecisionError(ValueError):
    """A coefficient beyond the exact window of a series was requested."""


class IntegralityError(ArithmeticError):
    """An exactness tripwire fired: a value that must be an integer is not."""


def _int(value, name):
    """value as a plain `int`, an `int` subclass read as the `int` it equals
    and `bool` refused: the gate of exponents, mode indices and series
    coefficients; `TypeError` naming the argument."""
    if type(value) is int:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class QSeries:
    """Truncated Laurent series sum of coeffs[i] * q**(valuation + i).

    `coeffs` is a tuple of `int`s; `order` = valuation + len(coeffs) is the
    exclusive precision bound.  Coefficients of q**n for n < valuation are
    exactly zero; coefficients for n >= order are undetermined and
    requesting one raises PrecisionError.  A series is immutable.
    """

    __slots__ = ("valuation", "coeffs")

    def __init__(self, valuation, coeffs):
        object.__setattr__(self, "valuation", _int(valuation, "valuation"))
        object.__setattr__(self, "coeffs", tuple([_int(c, "coefficient") for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def order(self):
        return self.valuation + len(self.coeffs)

    def coeff(self, n):
        """Exact coefficient of q**n; raises beyond the precision window."""
        if _int(n, "n") >= self.order:
            raise PrecisionError(
                f"coefficient of q^{n} is not determined (order {self.order})"
            )
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            c = _int(other, "scalar")
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
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("series powers must be integers")
        exponent = int(exponent)
        if exponent < 0:
            return self.invert() ** (-exponent)
        if exponent == 0:
            return QSeries(0, [1] + [0] * (len(self.coeffs) - 1))
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
        """Multiplicative inverse on the same number of coefficients, by
        back-substitution: self * invert(self) = 1 + O(q**len(coeffs)).  The
        leading coefficient must be +-1, so the inverse stays integral."""
        b = self.coeffs
        if not b or b[0] not in (1, -1):
            raise NotInvertibleError(
                "series is not invertible over the integers: it is empty or "
                "its leading coefficient is not +-1"
            )
        lead = b[0]  # its own inverse
        x = [lead]
        for k in range(1, len(b)):
            # -lead * sum_{m=1..k} b[m] * x[k - m]
            x.append(-lead * sum(map(mul, b[1 : k + 1], reversed(x))))
        return QSeries(-self.valuation, x)

    # -- comparison / display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.valuation == other.valuation and self.coeffs == other.coeffs

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


def _sparse_factor(order, cube):
    """The terms (e, s), 0 < e < order ascending, of prod_{n>=1} (1 - q**n)
    or, with `cube`, of its cube: Euler's s = (-1)**k at e = k(3k-1)/2 for
    k = 1, -1, 2, -2, ..., or Jacobi's s = (-1)**k (2k+1) at e = k(k+1)/2."""
    for j in count(1):
        k = j if cube else (j + 1) // 2 * (1 if j % 2 else -1)
        e = k * (k + 1) // 2 if cube else k * (3 * k - 1) // 2
        if e >= order:
            return
        yield e, (-1 if k % 2 else 1) * (2 * k + 1 if cube else 1)


def _eta_times(coeffs, exponents):
    """The int list coeffs times prod_d prod_k (1 - q**(d*k))**r_d on its
    window.  |r_d| // 3 Jacobi cubes and |r_d| % 3 Euler factors in q**d,
    each 1 + sum s q**e, are applied by the one recurrence x_k +-= sum s
    x_{k-e}: k runs up to divide (each x_{k-e} is already divided) and down
    to multiply (each still old), so no step divides.  Time grows as
    sum |r_d| (<= 24 a table row) * n**1.5, so a quotient with both signs
    (2B) is slower than a dense O(n**2) route below n ~ 1000."""
    x = list(coeffs)
    n = len(x)
    for d, r in exponents.items():
        for cube, times in ((True, abs(r) // 3), (False, abs(r) % 3)):
            terms = list(_sparse_factor(-(-n // d), cube)) if times else []
            signs = [s if r > 0 else -s for _, s in terms]
            ends = [d * e for e, _ in terms] + [n]
            # on the run lo <= k < hi after the m-th exponent, x_k reads x_{k-e},
            # e in ends[:m], at index -e of the k values below it (0 keeps a tuple)
            runs = [(itemgetter(*[-e for e in ends[:m]], 0), signs[:m], lo, hi)
                    for m, (lo, hi) in enumerate(zip(ends, ends[1:]), 1)]
            up = r < 0  # reads the quotient so far, else the x_j still old
            for _ in range(times):
                out = x[: ends[0]] if up else []
                for get, sm, lo, hi in runs if up else runs[::-1]:
                    for k in range(lo, hi):
                        v = x[k] if up else x.pop()
                        out.append(v + sum(map(mul, sm, get(out if up else x))))
                x = out if up else x + out[::-1]
    return x


def euler_product(order):
    """prod_{j>=1} (1 - q**j) = q**(-1/24) * eta(q): -1, 0 or 1 on the
    generalized pentagonal numbers j(3j +- 1)/2 (`_sparse_factor`), else 0."""
    if _int(order, "order") < 1:
        raise ValueError("order must be at least 1")
    coeffs = [1] + [0] * (order - 1)
    for e, s in _sparse_factor(order, False):
        coeffs[e] = s
    return QSeries(0, coeffs)


def eta_quotient(exponents, order):
    """prod_d prod_{k>=1} (1 - q**(d*k))**r_d for exponents {d: r_d}, exact
    below q**order (the eta quotient prod eta(d*t)**r_d without its power of
    q**(1/24)); d and r_d are read as `_int` reads them."""
    if _int(order, "order") < 1:
        raise ValueError("order must be at least 1")
    for d, r in exponents.items():
        try:
            if _int(d, "d") >= 1 and _int(r, "r") == r:  # each gate raises TypeError
                continue
        except TypeError:
            pass
        raise ValueError(
            f"eta_quotient: exponent {d!r}: {r!r} needs int d >= 1 and int r"
        )
    return QSeries(0, _eta_times([1] + [0] * (order - 1), exponents))


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
    coeffs = _eta_times([1] + [0] * (order + 1), exponents)
    coeffs[1] += exponents[1]
    return QSeries(-1, coeffs)


def j_series(order):
    """The normalized modular invariant with zero constant term.

    Returns the Laurent expansion q**-1 + 0 + 196884 q + ... exact through
    q**order.  E4**3 = E12 + (432000/691) * Delta in weight 12, so 691 * q *
    (J + 744) = 691 * E12 / prod(1-q**k)**24 + 432000 * q, with 691 * E12 =
    691 + 65520 * sum sigma11(k) q**k divided by eight Jacobi cubes
    (`_eta_times`); every division by 691 is checked.
    """
    if _int(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    work = order + 2
    qj = _eta_times([691] + [65520 * s for s in _divisor_sums(work, 11)[1:]], {1: -24})
    qj[1] += 432000
    for n, c in enumerate(qj):
        qj[n], rem = divmod(c, 691)
        if rem:
            raise IntegralityError(
                f"j_series: coefficient of q^{n - 1} is non-integral; "
                "this signals an arithmetic bug"
            )
    qj[1] -= 744
    if qj[:2] != [1, 0]:
        raise IntegralityError("j_series: leading terms are inconsistent")
    return QSeries(-1, qj)


def primary_dim_series(order):
    """Generating series whose q**(j-1) coefficient is the dimension of the
    subspace of primary vectors of weight j in the moonshine module: the
    modular invariant times the Euler product, plus one (`_primary_dims`).
    The q**0 coefficient (weight-1 subspace) is zero; every other
    represented coefficient is a nonnegative integer.
    """
    if _int(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    return _primary_dims(j_series(order).coeffs, order)


def _primary_dims(j_coeffs, order):
    """J * prod(1 - q**n) + 1 below q**order, from J's coefficients
    [1, 0, c(1), ...] from q**-1 on, at least order + 1 of them: one Euler
    pass (`_eta_times`), whose weight-1 coefficient must vanish."""
    coeffs = _eta_times(j_coeffs, {1: 1})[: order + 1]
    if order > 0:
        coeffs[1] += 1
        if coeffs[1]:
            raise IntegralityError("primary_dim_series: weight-1 coefficient must vanish")
    return QSeries(-1, coeffs)
