import random
from fractions import Fraction
from math import factorial

import pytest

from monsterlie.lattice import (
    FockState,
    HAT_IDENTITY,
    HatLatticeElement,
    LatticeVector,
    UnsupportedStateError,
    cocycle_sign,
    conformal_vector,
    hat_inverse,
    hat_multiply,
    heisenberg_apply,
    is_primary,
    pairing,
    schur_apply,
    _schur_numerators,
    section,
    vertex_iota_coeff,
    virasoro_apply,
    weight_of,
)

ALPHA = LatticeVector(1, 1)
BETA = LatticeVector(1, -1)


def rand_vector(rng, lo=-6, hi=6):
    return LatticeVector(rng.randint(lo, hi), rng.randint(lo, hi))


def rand_key(rng, max_degree):
    """Random term key: a monomial of creation degree <= max_degree on a
    small lattice point."""
    mono = []
    degree = 0
    while degree < max_degree and rng.random() < 0.7:
        n = rng.randint(1, max_degree - degree)
        mono.append((rng.randint(0, 1), n))
        degree += n
    return (tuple(sorted(mono)), (rng.randint(-2, 2), rng.randint(-2, 2)))


def rand_state(rng, max_degree=5):
    """Random small Fock state: up to three terms of creation degree <= max_degree."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = rand_key(rng, max_degree)
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FockState(terms)


def assert_exact_nonzero(state):
    """Every stored coefficient is nonzero and in coefficient form (a plain
    int, or a Fraction that is not integral), so structural equality is
    equality of states."""
    for key, c in state.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (key, c)
        assert c != 0, key


def test_fock_state_stores_integral_coefficients_as_int():
    key = ((), (0, 0))
    c = FockState({key: Fraction(6, 3)}).terms[key]
    assert type(c) is int and c == 2
    ((_, point),) = FockState({((), (Fraction(2, 2), 1)): 1}).terms
    assert point == (1, 1) and all(type(x) is int for x in point)


def test_fock_state_sorts_outside_monomials_and_merges_keys():
    # creation modes commute, so u2(-1)u1(-1)iota(0,0) is u1(-1)u2(-1)iota(0,0)
    swapped, ordered = (((1, 1), (0, 1)), (0, 0)), (((0, 1), (1, 1)), (0, 0))
    assert FockState({swapped: 1}) == FockState({ordered: 1})
    assert (FockState({swapped: 1}) + FockState({ordered: 1})).terms == {ordered: 2}
    half = FockState({swapped: Fraction(1, 2), ordered: 1})
    assert half.terms == {ordered: Fraction(3, 2)}
    assert FockState({swapped: 1, ordered: -1}).is_zero()
    moved = virasoro_apply(-1, FockState({swapped: 1}))
    assert not moved.is_zero()
    assert moved == virasoro_apply(-1, FockState({ordered: 1}))


# -- pairing and reflection ----------------------------------------------


def test_pairing_values():
    assert pairing(BETA, BETA) == 2
    assert pairing(ALPHA, ALPHA) == -2
    assert pairing(LatticeVector(1, 3), LatticeVector(-1, -3)) == 6


def test_pairing_is_symmetric_bilinear_and_even():
    rng = random.Random(7)
    for _ in range(100):
        u, v, w = (rand_vector(rng) for _ in range(3))
        assert pairing(u, v) == pairing(v, u)
        # coordinate pairs pair like the vectors they unpack from
        assert pairing(tuple(u), v) == pairing(u, tuple(v)) == pairing(u, v)
        assert cocycle_sign(tuple(u), tuple(v)) == cocycle_sign(u, v)
        assert pairing(u + v, w) == pairing(u, w) + pairing(v, w)
        assert pairing(u, u) % 2 == 0


# -- the double cover ------------------------------------------------------


def test_cocycle_commutator_law():
    rng = random.Random(13)
    for _ in range(200):
        lam, mu = rand_vector(rng), rand_vector(rng)
        assert cocycle_sign(lam, mu) * cocycle_sign(mu, lam) == (-1) ** pairing(
            lam, mu
        )


def test_hat_multiply_examples():
    a = section(1, 0)
    b = section(0, 1)
    ab = hat_multiply(a, b)
    ba = hat_multiply(b, a)
    assert ab.vector == ba.vector == LatticeVector(1, 1)
    # <(1,0),(0,1)> = -1, so the two orders differ by a sign
    assert ab.sign == -ba.sign


def test_naive_opposite_product_carries_the_cocycle_sign():
    # without the inverse's sign correction, (lam,+1)(-lam,+1) lands on the
    # identity vector with sign eps(lam, -lam)
    rng = random.Random(43)
    for _ in range(50):
        lam = rand_vector(rng)
        a = HatLatticeElement(lam, 1)
        b = HatLatticeElement(-lam, 1)
        product = hat_multiply(a, b)
        assert product.vector == LatticeVector(0, 0)
        assert product.sign == cocycle_sign(lam, -lam)


def test_hat_inverse_is_two_sided():
    rng = random.Random(17)
    for _ in range(100):
        a = HatLatticeElement(rand_vector(rng), rng.choice((1, -1)))
        assert hat_multiply(a, hat_inverse(a)) == HAT_IDENTITY
        assert hat_multiply(hat_inverse(a), a) == HAT_IDENTITY


def test_hat_multiply_associative():
    rng = random.Random(19)
    for _ in range(100):
        a, b, c = (
            HatLatticeElement(rand_vector(rng), rng.choice((1, -1))) for _ in range(3)
        )
        assert hat_multiply(hat_multiply(a, b), c) == hat_multiply(a, hat_multiply(b, c))


def test_central_sign_negates_iota():
    a = section(2, -1, sign=-1)
    assert FockState.iota(a) == -1 * FockState.iota(section(2, -1))


# -- Heisenberg action -----------------------------------------------------


def test_single_contraction():
    state = heisenberg_apply(BETA, -1, FockState.vacuum())
    contracted = heisenberg_apply(BETA, 1, state)
    assert contracted == 2 * FockState.vacuum()


def test_zero_mode_scales_by_pairing():
    c2 = FockState.iota(section(1, 2))
    t1 = LatticeVector(0, -1)
    assert heisenberg_apply(t1, 0, c2) == 1 * c2


def test_annihilation_on_iota_vanishes():
    assert heisenberg_apply(BETA, 5, FockState.iota(section(2, 3))).is_zero()


def test_heisenberg_bracket_identity():
    rng = random.Random(23)
    for _ in range(40):
        lam, mu = rand_vector(rng), rand_vector(rng)
        s = rand_state(rng, max_degree=4)
        for m in (-2, -1, 1, 2):
            for n in (-2, -1, 1, 2):
                left = heisenberg_apply(lam, m, heisenberg_apply(mu, n, s))
                right = heisenberg_apply(mu, n, heisenberg_apply(lam, m, s))
                assert_exact_nonzero(left)
                assert_exact_nonzero(right)
                expected = FockState.zero()
                if m + n == 0:
                    expected = (pairing(lam, mu) * m) * s
                assert left - right == expected


# -- Schur polynomials ------------------------------------------------------


def test_schur_small_orders():
    lam = LatticeVector(1, 2)
    vac = FockState.vacuum()
    with pytest.raises(ValueError, match="nonnegative"):
        schur_apply(lam, -1, vac)
    assert schur_apply(lam, 0, vac) == vac
    assert schur_apply(lam, 1, vac) == heisenberg_apply(lam, -1, vac)
    expected = Fraction(1, 2) * heisenberg_apply(
        lam, -1, heisenberg_apply(lam, -1, vac)
    ) + Fraction(1, 2) * heisenberg_apply(lam, -2, vac)
    assert schur_apply(lam, 2, vac) == expected


def schur_oracle(lam, r, state):
    """p_r(lam(-1), lam(-2), ...) on state by the Fraction recurrence
    r p_r = sum_{n=1}^{r} lam(-n) p_{r-n}, one level at a time."""
    levels = [state]
    for k in range(1, r + 1):
        acc = FockState.zero()
        for n in range(1, k + 1):
            acc = acc + heisenberg_apply(lam, -n, levels[k - n])
        levels.append(Fraction(1, k) * acc)
    return levels[r]


def test_schur_apply_matches_fraction_recurrence_on_rational_points():
    rng = random.Random(53)
    dressed = FockState({(((0, 1), (1, 2)), (1, -1)): Fraction(1, 6)})
    for _ in range(10):
        lam = LatticeVector(
            Fraction(rng.choice((-3, -1, 1, 5)), 2), Fraction(rng.choice((-2, 1, 4)), 3)
        )
        for state in (rand_state(rng, max_degree=4) + dressed, dressed):
            for r in range(7):
                got = schur_apply(lam, r, state)
                assert got == schur_oracle(lam, r, state), (lam, r)
                assert_exact_nonzero(got)


def test_schur_numerators_of_lattice_points_are_integers():
    # q_k = k! p_k has integer coefficients on a lattice point
    vac = FockState.vacuum()
    for lam in (LatticeVector(1, -1), LatticeVector(2, 3), LatticeVector(-3, 0)):
        for k, level in enumerate(_schur_numerators(lam, 8)):
            assert all(type(c) is int for c in level.values()), (lam, k)
            q_k = FockState({(mono, (0, 0)): c for (mono, _), c in level.items()})
            assert Fraction(1, factorial(k)) * q_k == schur_oracle(lam, k, vac), (lam, k)


def brute_vertex_coeff(a, b_state, power, r_max=8):
    """Independent expansion of the vertex operator on a pure iota state:
    multiply out exp(sum abar(-n)/n x**n) term by term."""
    out = FockState.zero()
    for (mono, abar), c in b_state.terms.items():
        assert mono == (), "oracle only covers pure iota states"
        b_hat = HatLatticeElement(LatticeVector(*abar), 1)
        ab = hat_multiply(a, b_hat)
        base = int(pairing(a.vector, b_hat.vector))
        r = power - base
        if r < 0 or r > r_max:
            continue
        target = (c * ab.sign) * FockState.iota(
            HatLatticeElement(ab.vector, 1)
        )
        acc = FockState.zero()

        # exp(sum_n abar(-n)/n x**n) via ordered compositions of r divided
        # by m! -- each multiset of factors appears once per ordering.
        def walk_exact(remaining, factor, state, m):
            nonlocal acc
            if remaining == 0:
                fact = 1
                for i in range(2, m + 1):
                    fact *= i
                acc = acc + (factor / fact) * state
                return
            for n in range(1, remaining + 1):
                walk_exact(
                    remaining - n,
                    factor * Fraction(1, n),
                    heisenberg_apply(a.vector, -n, state),
                    m + 1,
                )

        walk_exact(r, Fraction(1), target, 0)
        out = out + acc
    return out


def test_vertex_coeff_matches_brute_force_expansion():
    a = section(1, -1)
    b = hat_inverse(a)
    b_state = FockState.iota(b)
    base = int(pairing(a.vector, b.vector))
    for r in range(0, 7):
        got = vertex_iota_coeff(a, b_state, base + r)
        want = brute_vertex_coeff(a, b_state, base + r)
        assert got == want, f"mismatch at Schur order {r}"
        assert_exact_nonzero(got)


def test_vertex_coeff_examples():
    a = section(1, -1)
    inv_state = FockState.iota(hat_inverse(a))
    # <abar, -abar> = -2 puts the first Schur term at x**-1
    got = vertex_iota_coeff(a, inv_state, -1)
    assert got == heisenberg_apply(a.vector, -1, FockState.vacuum())
    assert_exact_nonzero(got)
    assert_exact_nonzero(vertex_iota_coeff(a, inv_state, -2))
    # the r = 0 term is exactly the vacuum
    assert vertex_iota_coeff(a, inv_state, -2) == FockState.vacuum()
    # below the pairing exponent the series has no terms
    assert vertex_iota_coeff(a, inv_state, -3).is_zero()


def rand_fractional_state(rng, n_terms, max_degree=4):
    """n_terms distinct terms of creation degree <= max_degree, each with a
    non-integral coefficient."""
    terms = {}
    while len(terms) < n_terms:
        key = rand_key(rng, max_degree)
        terms[key] = Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), rng.choice((2, 3)))
    return FockState(terms)


def test_vertex_coeff_translation_identity_and_weights():
    # L(-1) c_p(b) - c_p(L(-1) b) = (p+1) c_{p+1}(b), with c_p(b) the x**p
    # coefficient of Y(iota(a), x) b; each c_p(b) has weight wt(a)+wt(b)+p
    rng = random.Random(47)
    lifts = [section(1, -1), section(1, 2), section(-2, 1, sign=-1), section(0, 1)]
    for a in lifts + [section(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]:
        wt_a = weight_of(FockState.iota(a))
        for n_terms in (2, 3, 2, 3):
            b = rand_fractional_state(rng, n_terms)
            lowest = min(
                int(pairing(a.vector, LatticeVector(*abar))) - sum(n for _, n in mono)
                for mono, abar in b.terms
            )
            assert vertex_iota_coeff(a, b, lowest - 1).is_zero()
            b_moved = virasoro_apply(-1, b)
            coeffs = {p: vertex_iota_coeff(a, b, p) for p in range(lowest - 1, lowest + 7)}
            for p in range(lowest - 1, lowest + 6):
                lhs = virasoro_apply(-1, coeffs[p]) - vertex_iota_coeff(a, b_moved, p)
                assert lhs == (p + 1) * coeffs[p + 1], (a, b, p)
                assert_exact_nonzero(coeffs[p])
            for key, c in b.terms.items():
                term = FockState({key: c})
                wt = wt_a + weight_of(term)
                for p in range(lowest, lowest + 6):
                    got = vertex_iota_coeff(a, term, p)
                    assert got.is_zero() or weight_of(got) == wt + p, (a, key, p)


def test_vertex_coeff_degree_argument_kills_cross_terms():
    a = section(1, -1)
    for j in (1, 2, 5):
        b_state = FockState.iota(section(-1, -j))
        assert vertex_iota_coeff(a, b_state, -1).is_zero()


def test_vertex_coeff_on_single_creation_target():
    # Y(iota(a), x) on t(-1)iota(1): the contraction term sits at x**-1.
    a = section(1, 2)
    t = LatticeVector(0, -1)
    target = heisenberg_apply(t, -1, FockState.vacuum())
    got = vertex_iota_coeff(a, target, -1)
    expected = (-pairing(a.vector, t)) * FockState.iota(a)
    assert got == expected
    assert_exact_nonzero(got)
    assert vertex_iota_coeff(a, target, -2).is_zero()


@pytest.mark.parametrize("abar", [(Fraction(1, 2), 0), (0, Fraction(1, 2))])
def test_vertex_coeff_rejects_keys_off_the_lattice(abar):
    with pytest.raises(ValueError, match="double-cover elements sit over lattice points"):
        vertex_iota_coeff(section(1, 0), FockState({((), abar): 1}), 0)


def test_vertex_coeff_needs_a_double_cover_element():
    with pytest.raises(UnsupportedStateError):
        vertex_iota_coeff(LatticeVector(1, 0), FockState.vacuum(), 0)


# -- one denominator per call ------------------------------------------------


def test_kernels_are_linear_over_mixed_denominators():
    # the two terms meet in u1(-2)u2(-2) under L(-1), at 1/4 + 1/6 = 5/12:
    # the common denominator 12 exceeds every input denominator
    quarter_sixth = FockState(
        {
            (((0, 1), (1, 2)), (0, 0)): Fraction(1, 4),
            (((0, 2), (1, 1)), (0, 0)): Fraction(1, 6),
        }
    )
    moved = virasoro_apply(-1, quarter_sixth)
    assert moved.terms[(((0, 2), (1, 2)), (0, 0))] == Fraction(5, 12)
    rng = random.Random(59)
    states = [quarter_sixth] + [rand_state(rng, max_degree=4) for _ in range(8)]
    for s in states:
        a = section(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((1, -1)))
        lowest = min(
            int(pairing(a.vector, LatticeVector(*abar))) - sum(n for _, n in mono)
            for mono, abar in s.terms
        )
        for q in range(2, 8):
            c = Fraction(rng.choice((-5, -1, 1, 3)), q)
            cs = c * s
            for n in (-3, -1, 0, 1, 2):
                got = virasoro_apply(n, cs)
                assert got == c * virasoro_apply(n, s), (s, c, n)
                assert_exact_nonzero(got)
            for p in range(lowest, lowest + 4):
                got = vertex_iota_coeff(a, cs, p)
                assert got == c * vertex_iota_coeff(a, s, p), (s, c, p)
                assert_exact_nonzero(got)


# -- Virasoro ----------------------------------------------------------------


def test_grading_examples():
    beta_state = heisenberg_apply(BETA, -1, FockState.vacuum())
    assert virasoro_apply(0, beta_state) == 1 * beta_state
    for j in (1, 2, 5):
        cj = FockState.iota(section(1, j))
        assert virasoro_apply(0, cj) == -j * cj
        assert virasoro_apply(1, cj).is_zero()


def test_l2_on_single_creation_vanishes():
    lam = LatticeVector(2, -1)
    state = heisenberg_apply(lam, -1, FockState.vacuum())
    assert virasoro_apply(2, state).is_zero()


def test_weight_examples():
    assert weight_of(FockState.vacuum()) == 0
    assert weight_of(FockState.iota(section(1, 3))) == -3
    s = heisenberg_apply(
        LatticeVector(1, 0),
        -2,
        heisenberg_apply(LatticeVector(0, 1), -1, FockState.iota(section(1, 1))),
    )
    assert weight_of(s) == 2
    mixed = FockState.vacuum() + FockState.iota(section(1, 1))
    assert weight_of(mixed) is None


def test_weight_is_exact():
    rng = random.Random(53)
    for _ in range(60):
        s = rand_state(rng, max_degree=4)
        for key, c in s.terms.items():
            w = weight_of(FockState({key: c}))
            assert type(w) in (int, Fraction), (key, w)
        w = weight_of(s)
        assert w is None or type(w) in (int, Fraction)


def test_weight_additivity_under_creation():
    rng = random.Random(29)
    for _ in range(40):
        s = rand_state(rng, max_degree=3)
        w = weight_of(s)
        if w is None:
            continue
        n = rng.randint(1, 4)
        lam = rand_vector(rng)
        created = heisenberg_apply(lam, -n, s)
        if created.is_zero():
            continue
        assert weight_of(created) == w + n


def test_conformal_vector_and_central_charge():
    omega = conformal_vector()
    assert weight_of(omega) == 2
    # L(2) omega = (central charge / 2) vacuum, with central charge 2
    assert virasoro_apply(2, omega) == FockState.vacuum()
    assert virasoro_apply(1, omega).is_zero()


def test_virasoro_bracket_identity_central_charge_2():
    rng = random.Random(31)
    central_charge = 2
    for _ in range(12):
        s = rand_state(rng, max_degree=5)
        for m in range(-2, 3):
            for n in range(-2, 3):
                left = virasoro_apply(m, virasoro_apply(n, s)) - virasoro_apply(
                    n, virasoro_apply(m, s)
                )
                right = (m - n) * virasoro_apply(m + n, s)
                assert_exact_nonzero(left)
                assert_exact_nonzero(right)
                if m + n == 0:
                    right = right + Fraction(m ** 3 - m, 12) * central_charge * s
                assert left == right, f"[L({m}),L({n})] failed"


def virasoro_mode_oracle(n, state):
    """L(n) expanded directly from the conformal state's normal-ordered
    modes: L(n) = -sum_{i+j=n} ::u1(i)u2(j)::, truncated to the finitely
    many index pairs that can act on the given state."""
    max_degree = max(
        (sum(k for _, k in mono) for (mono, _) in state.terms), default=0
    )
    bound = max_degree + abs(n) + 2
    out = FockState.zero()
    for i in range(-bound, bound + 1):
        j = n - i
        if abs(j) > bound:
            continue
        # normal ordering: the annihilation/zero-mode factor acts first
        if i <= j:
            inner = heisenberg_apply(LatticeVector(0, 1), j, state)
            term = heisenberg_apply(LatticeVector(1, 0), i, inner)
        else:
            inner = heisenberg_apply(LatticeVector(1, 0), i, state)
            term = heisenberg_apply(LatticeVector(0, 1), j, inner)
        out = out + term
    return -1 * out


def test_virasoro_matches_mode_expansion_oracle():
    rng = random.Random(37)
    for _ in range(8):
        s = rand_state(rng, max_degree=3)
        for n in range(-3, 4):
            assert virasoro_apply(n, s) == virasoro_mode_oracle(n, s), f"L({n})"


# -- primality ----------------------------------------------------------------


def test_iota_vectors_are_primary():
    for j in (-1, 1, 2, 7, 10):
        assert is_primary(FockState.iota(section(1, j)))


def test_single_creation_on_vacuum_is_primary():
    state = heisenberg_apply(LatticeVector(3, -2), -1, FockState.vacuum())
    assert is_primary(state)


def test_conformal_vector_is_not_primary():
    assert not is_primary(conformal_vector())


def test_is_primary_checks_every_mode_up_to_the_creation_depth():
    # L(2) omega = |0> though L(1) omega = 0; (1,1)(-1)(0,1)(-1)|0> meets
    # its first nonzero mode only at L(2) as well
    omega = conformal_vector()
    assert virasoro_apply(1, omega).is_zero()
    assert virasoro_apply(2, omega) == FockState.vacuum()
    vac = FockState.vacuum()
    state = heisenberg_apply(ALPHA, -1, heisenberg_apply(LatticeVector(0, 1), -1, vac))
    assert virasoro_apply(1, state).is_zero()
    assert not is_primary(omega)
    assert not is_primary(state)
    assert is_primary(FockState.zero())


def test_modes_above_the_creation_depth_vanish():
    rng = random.Random(53)
    for _ in range(40):
        s = rand_state(rng, max_degree=6)
        top = max((sum(n for _, n in mono) for mono, _ in s.terms), default=0)
        for n in range(top + 1, top + 4):
            assert virasoro_apply(n, s).is_zero(), (s, n)
