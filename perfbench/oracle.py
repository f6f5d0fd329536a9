"""Plain-integer oracle for the benchmark, independent of `monsterlie`.

Every series here is computed from first principles with Python ints:

- the modular invariant J = E4^3 / (q * prod(1-q^n)^24) - 744, with the
  Euler-product power from the log-derivative recurrence
  n*a_n = 24 * sum_{m<=n} sigma(m) * a_{n-m};
- primary dimensions as J * prod(1-q^n) + 1, by the pentagonal-number
  convolution;
- the McKay-Thompson series T_2B = eta(t)^24/eta(2t)^24 + 24 and
  T_3B = eta(t)^12/eta(3t)^12 + 12 (Conway-Norton 1979, Table 2) by the
  same recurrence for general eta quotients.

From these it builds the S3 dataset (classes 1A, 2B, 3B) the `table`
workload feeds to the CLI, and the trivial multiplicities that dataset
must produce.
"""

from __future__ import annotations

from operator import mul

S3_CLASSES = (
    # name, class size, class of the square, eta exponents {d: r_d}, constant
    ("1A", 1, "1A", None, None),
    ("2B", 3, "1A", {1: 24, 2: -24}, 24),
    ("3B", 2, "3B", {1: 12, 3: -12}, 12),
)
SEED_INDICES = (-1, 1, 2, 3, 5)


def _divisor_sums(limit, power=1):
    """sigma_power(n) for 0 <= n < limit (index 0 unused)."""
    sums = [0] * limit
    for d in range(1, limit):
        dp = d ** power
        for m in range(d, limit, d):
            sums[m] += dp
    return sums


def eta_product(exponents, order):
    """Coefficients a_0..a_{order-1} of prod_d prod_k (1 - q^{dk})^{r_d}.

    Uses q f'/f = -sum_d r_d d sum_m sigma(m) q^{dm}, so that
    n a_n = sum_{m=1}^{n} B_m a_{n-m} with B_m = -sum_{d | m} r_d d sigma(m/d);
    every division is checked to be exact.
    """
    sigma = _divisor_sums(order)
    b = [0] * order
    for d, r in exponents.items():
        for m in range(d, order, d):
            b[m] -= r * d * sigma[m // d]
    a = [1] + [0] * (order - 1)
    for n in range(1, order):
        total = sum(map(mul, b[1 : n + 1], a[n - 1 :: -1]))
        a[n], rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"eta product recurrence inexact at n={n}")
    return a


def _convolve(x, y, order):
    out = [0] * order
    for i, xi in enumerate(x[:order]):
        if xi:
            for j, yj in enumerate(y[: order - i]):
                out[i + j] += xi * yj
    return out


def j_coefficients(max_n):
    """{n: c(n)} for -1 <= n <= max_n, with c(-1) = 1 and c(0) = 0."""
    order = max_n + 2  # exponents 0..max_n+1 of q*J
    sigma3 = _divisor_sums(order, 3)
    e4 = [1] + [240 * sigma3[k] for k in range(1, order)]
    e4_cubed = _convolve(_convolve(e4, e4, order), e4, order)
    qj = _convolve(e4_cubed, eta_product({1: -24}, order), order)
    qj[1] -= 744
    return {n: qj[n + 1] for n in range(-1, max_n + 1)}


def pentagonal(order):
    """Coefficients of prod_{n>=1} (1 - q^n) below q^order."""
    coeffs = [0] * order
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = -1 if k % 2 else 1
        for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if p < order:
                coeffs[p] = sign
        k += 1
    return coeffs


def primary_dims(j_coeffs, max_n):
    """{n: d(n)} for -1 <= n <= max_n, d the coefficients of J*prod(1-q^k) + 1;
    d(j-1) is the dimension of the weight-j primary subspace."""
    euler = pentagonal(max_n + 2)
    support = [(p, s) for p, s in enumerate(euler) if s]
    dims = {}
    for n in range(-1, max_n + 1):
        dims[n] = sum(s * j_coeffs[n - p] for p, s in support if n - p >= -1)
    dims[0] += 1
    return dims


def mckay_thompson(exponents, constant, max_n):
    """{n: C(n)} for -1 <= n <= max_n of q^-1 * eta_product + constant."""
    a = eta_product(exponents, max_n + 2)
    series = {n: a[n + 1] for n in range(-1, max_n + 1)}
    series[0] += constant
    return series


class Oracle:
    """Every exact value the benchmark's checks compare against, to max_n."""

    def __init__(self, max_n):
        self.max_n = max_n
        self.j = j_coefficients(max_n)
        self.dims = primary_dims(self.j, max_n)
        self._traces = None

    @property
    def traces(self):
        """{class name: {n: C(class, n)}} for the S3 classes."""
        if self._traces is None:
            self._traces = {
                name: self.j if exps is None else mckay_thompson(exps, const, self.max_n)
                for name, _, _, exps, const in S3_CLASSES
            }
        return self._traces

    def trivial_multiplicity(self, n):
        total = sum(size * self.traces[name][n] for name, size, *_ in S3_CLASSES)
        mult, rem = divmod(total, sum(size for _, size, *_ in S3_CLASSES))
        if rem or mult < 0:
            raise ArithmeticError(f"S3 trivial multiplicity at {n} is {total}/6")
        return mult

    def s3_dataset(self):
        """The S3 dataset as JSON-ready data, every integer a decimal string."""
        return {
            "classes": [
                {
                    "name": name,
                    "class_size": str(size),
                    "power2": square,
                    "seeds": {str(k): str(self.traces[name][k]) for k in SEED_INDICES},
                }
                for name, size, square, _, _ in S3_CLASSES
            ],
            "group_order": str(sum(size for _, size, *_ in S3_CLASSES)),
        }
