"""Oracles for the McKay-Thompson series that do not come from the
package's own formulas: the ATLAS character values on the 196883-dimensional
irreducible, and Borcherds' twisted denominator identity."""

from math import gcd

import pytest

from monsterlie.qseries import (
    _MCKAY_THOMPSON,
    euler_product,
    j_series,
    mckay_thompson,
    primary_dim_series,
)

CLASSES = ["1A", *_MCKAY_THOMPSON]

# chi_2, the character of the 196883-dimensional irreducible, on each class
# of the table (Conway, Curtis, Norton, Parker, Wilson, "ATLAS of Finite
# Groups", Oxford 1985, the Monster's character table)
ATLAS_CHI2 = {"1A": 196883, "2B": 275, "3B": 53, "4C": 19, "5B": 8, "7B": 1, "13B": -2}


def test_chi2_pins_cover_the_table():
    assert sorted(ATLAS_CHI2) == sorted(CLASSES)


@pytest.mark.parametrize("name", sorted(ATLAS_CHI2))
def test_primary_traces_match_the_atlas_chi2(name):
    # V = vacuum module + sum_h P_h (x) M(24, h), so sum_j tr(g | P_{j+1}) q^j
    # = T_g prod(1 - q^n) + 1, and P_2 is the 196883-dimensional irreducible
    if name == "1A":
        trace = primary_dim_series(2).coeff(1)
    else:
        trace = (mckay_thompson(name, 2) * euler_product(4) + 1).coeff(1)
    assert trace == ATLAS_CHI2[name]


# -- Borcherds' denominator identity -------------------------------------

# The class of g^d for gcd(d, ord g) strictly between 1 and ord g (ATLAS
# power maps); g^d is g when the gcd is 1 and 1A when ord g divides d.  The
# element order is the number in the class name.
POWER_MAPS = {"4C": {2: "2B"}}


def power_class(name, d):
    order = int(name[:-1])
    k = gcd(d, order)
    if k == 1:
        return name
    if k == order:
        return "1A"
    return POWER_MAPS[name][k]


def coefficients(order):
    """{class: [C(class, 0), ..., C(class, order)]} for 1A and every table class."""
    series = {name: mckay_thompson(name, order) for name in _MCKAY_THOMPSON}
    series["1A"] = j_series(order)
    return {name: [t.coeff(n) for n in range(order + 1)] for name, t in series.items()}


def denominator_mismatch(name, C, power, M, N):
    """The first (a, n), a <= M and n <= N, at which a F_a and
    sum_{0<=i<a} F_i G_{a-i} differ in their q^n coefficient, or None.

    p(T_g(p) - T_g(q)) = exp(-sum_k sum_{m>0,n} C(g^k, mn) p^{mk} q^{nk} / k)
    (Borcherds 1992), divided by its factor 1 - p/q, reads
    F = 1 - sum_{m,n>=1} C(g, m+n-1) p^m q^n
      = exp(-sum_k sum_{m,n>=1} C(g^k, mn) p^{mk} q^{nk} / k).
    With F_a the p^a part of F and G_a that of p d/dp log F,
    G_{a,b} = -sum_{d | gcd(a,b)} (a/d) C(g^d, ab/d^2), the identity
    p dF/dp = F p d(log F)/dp is a F_a = sum_{0<=i<a} F_i G_{a-i}: integers
    only, C needed through index M N.
    """

    def g(a, b):
        return -sum(
            (a // d) * C[power(name, d)][a * b // (d * d)]
            for d in range(1, a + 1)
            if a % d == 0 == b % d
        )

    F = [[1] + [0] * N]
    F += [[0] + [-C[name][a + n - 1] for n in range(1, N + 1)] for a in range(1, M + 1)]
    G = [None] + [[0] + [g(a, b) for b in range(1, N + 1)] for a in range(1, M + 1)]
    for a in range(1, M + 1):
        for n in range(1, N + 1):
            rhs = sum(F[i][k] * G[a - i][n - k] for i in range(a) for k in range(n))
            if a * F[a][n] != rhs:
                return a, n
    return None


M, N = 16, 16


@pytest.fixture(scope="module")
def C():
    return coefficients(M * N)


@pytest.mark.parametrize("name", CLASSES)
def test_denominator_identity_holds(C, name):
    assert denominator_mismatch(name, C, power_class, M, N) is None


def test_denominator_identity_catches_a_wrong_coefficient(C):
    wrong = dict(C, **{"1A": list(C["1A"])})
    wrong["1A"][7] += 1
    assert denominator_mismatch("1A", wrong, power_class, M, N) == (2, 6)


def test_denominator_identity_catches_a_wrong_power_map(C):
    def squares_to_itself(name, d):
        return name if name == "2B" else power_class(name, d)

    assert denominator_mismatch("2B", C, squares_to_itself, M, N) == (2, 2)
