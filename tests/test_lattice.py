import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from monsterlie import lattice
from monsterlie.lattice import (
    FockState,
    HAT_IDENTITY,
    HatLatticeElement,
    cocycle_sign,
    conformal_vector,
    hat_inverse,
    hat_multiply,
    heisenberg_apply,
    is_primary,
    pairing,
    schur_apply,
    _schur_level,
    section,
    vertex_iota_coeff,
    virasoro_apply,
    weight_of,
)

ALPHA = (1, 1)
BETA = (1, -1)


def rand_vector(rng, lo=-6, hi=6):
    return (rng.randint(lo, hi), rng.randint(lo, hi))


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
    """Every coefficient is nonzero and in coefficient form (a plain int, or
    a Fraction that is not integral), and the stored numerators are nonzero
    ints over a positive denominator in lowest terms, so structural equality
    is equality of states."""
    for key, c in state.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (key, c)
        assert c != 0, key
    assert type(state.den) is int and state.den >= 1
    for key, c in state.numer.items():
        assert type(c) is int and c != 0, (key, c)
    assert gcd(state.den, *state.numer.values()) == 1


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


def test_two_routes_to_one_state_store_one_form():
    """A kernel's output over a common denominator and the same state built
    by hand reduce to equal (den, numer), as do s and s/2 + s/2."""
    k1, k2 = (((0, 1),), (1, 0)), (((1, 2),), (0, 1))
    s = FockState({k1: Fraction(1, 4), k2: Fraction(5, 6)})
    assert (s.den, s.numer) == (12, {k1: 3, k2: 10})
    got = heisenberg_apply((2, 0), -1, s)
    k1x, k2x = (((0, 1), (0, 1)), (1, 0)), (((0, 1), (1, 2)), (0, 1))
    by_hand = FockState({k1x: Fraction(1, 2), k2x: Fraction(5, 3)})
    assert (got.den, got.numer) == (by_hand.den, by_hand.numer) == (6, {k1x: 3, k2x: 10})
    assert got == by_hand
    assert_exact_nonzero(got)
    half = Fraction(1, 2) * s + Fraction(1, 2) * s
    assert (half.den, half.numer) == (s.den, s.numer) and half == s
    gone = s - s
    assert (gone.den, gone.numer) == (1, {}) and gone == FockState.zero()


def test_constructor_divides_the_gcd_and_drops_zeros_in_one_pass():
    # kernel output over den= needs both halves of the one normalising pass,
    # the gcd of den and the numerators divided out and cancelled numerators
    # dropped; outside Fraction terms need the drop once cleared into den
    k1, k2, k3 = (((0, 1),), (1, 0)), (((1, 2),), (0, 1)), ((), (2, -1))
    swapped, ordered = (((1, 1), (0, 1)), (0, 0)), (((0, 1), (1, 1)), (0, 0))
    cases = [
        (FockState({k1: 2, k2: 0, k3: 4}, den=6), (3, {k1: 1, k3: 2})),
        (FockState({k1: 0, k2: 5}, den=2), (2, {k2: 5})),
        (FockState({k1: 4, k2: -6}, den=8), (4, {k1: 2, k2: -3})),
        (FockState({k1: 0, k2: 0}, den=4), (1, {})),
        (
            FockState({k1: Fraction(3, 2), k2: Fraction(0), k3: Fraction(9, 4)}, den=3),
            (4, {k1: 2, k3: 3}),
        ),
        (
            FockState({swapped: Fraction(1, 2), ordered: Fraction(-1, 2), k3: Fraction(2, 3)}),
            (3, {k3: 2}),
        ),
        (FockState({k1: Fraction(5, 6), k2: 0, k3: Fraction(1, 4)}), (12, {k1: 10, k3: 3})),
    ]
    for state, (den, numer) in cases:
        assert (state.den, state.numer) == (den, numer)
        assert_exact_nonzero(state)


@pytest.mark.parametrize(
    "factor",
    [(0, 0), (0, -2), (5, 1), (2, 1), (0, 1.5), (0, Fraction(1)), (0, True), (True, 1)],
)
def test_fock_state_rejects_bad_creation_factors(factor):
    # a creation factor is (axis 0 or 1, int depth >= 1)
    with pytest.raises(ValueError, match=re.escape(f"creation factor {factor}")):
        FockState({((factor,), (0, 0)): 1})


MODE_ENTRY_POINTS = {  # a call taking one mode index, and the name it reports
    "heisenberg_apply": (lambda n: heisenberg_apply((1, 0), n, FockState.vacuum()), "n"),
    "virasoro_apply": (lambda n: virasoro_apply(n, FockState.vacuum()), "n"),
    "schur_apply": (lambda r: schur_apply((1, 0), r, FockState.vacuum()), "r"),
    "vertex_iota_coeff": (
        lambda p: vertex_iota_coeff(section(1, 0), FockState.vacuum(), p),
        "power",
    ),
}


@pytest.mark.parametrize("value", [Fraction(-1, 2), Fraction(1), -1.0, True])
@pytest.mark.parametrize("entry", sorted(MODE_ENTRY_POINTS))
def test_mode_indices_must_be_ints(entry, value):
    call, name = MODE_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"{name} must be an int, got {type(value).__name__}"):
        call(value)
    assert isinstance(call(1), FockState)


# -- pairing and reflection ----------------------------------------------


def test_pairing_values():
    assert pairing(BETA, BETA) == 2
    assert pairing(ALPHA, ALPHA) == -2
    assert pairing((1, 3), (-1, -3)) == 6


def test_pairing_is_symmetric_bilinear_and_even():
    rng = random.Random(7)
    for _ in range(100):
        u, v, w = (rand_vector(rng) for _ in range(3))
        assert pairing(u, v) == pairing(v, u)
        u_plus_v = (u[0] + v[0], u[1] + v[1])
        assert pairing(u_plus_v, w) == pairing(u, w) + pairing(v, w)
        c = rng.randint(-3, 3)
        assert pairing((c * u[0], c * u[1]), w) == c * pairing(u, w)
        assert pairing(u, u) % 2 == 0


# -- the double cover ------------------------------------------------------


def test_cocycle_commutator_law():
    rng = random.Random(13)
    for _ in range(200):
        lam, mu = rand_vector(rng), rand_vector(rng)
        assert cocycle_sign(lam, mu) * cocycle_sign(mu, lam) == (-1) ** pairing(
            lam, mu
        )


def test_cocycle_sign_needs_lattice_points():
    for lam, mu in (((Fraction(1, 2), 1), (1, 1)), ((1, 1), (1, Fraction(3, 2)))):
        with pytest.raises(ValueError, match="sit over lattice points"):
            cocycle_sign(lam, mu)


@pytest.mark.parametrize("call", [pairing, cocycle_sign])
def test_form_and_cocycle_gate_every_coordinate(call):
    for slot in range(4):
        for bad in (1.0, True):
            coords = [1, 1, 1, 1]
            coords[slot] = bad
            message = f"expected an exact rational, got {type(bad).__name__}"
            with pytest.raises(TypeError, match=message):
                call(tuple(coords[:2]), tuple(coords[2:]))


def test_hat_element_repr_shows_the_sign():
    assert repr(HatLatticeElement((1, -1), -1)) == "-hat(1,-1)"
    assert repr(section(2, 0)) == "hat(2,0)"


def test_hat_multiply_examples():
    a = section(1, 0)
    b = section(0, 1)
    ab = hat_multiply(a, b)
    ba = hat_multiply(b, a)
    assert ab.vector == ba.vector == (1, 1)
    # <(1,0),(0,1)> = -1, so the two orders differ by a sign
    assert ab.sign == -ba.sign


def test_naive_opposite_product_carries_the_cocycle_sign():
    # without the inverse's sign correction, (lam,+1)(-lam,+1) lands on the
    # identity vector with sign eps(lam, -lam)
    rng = random.Random(43)
    for _ in range(50):
        lam = rand_vector(rng)
        minus_lam = (-lam[0], -lam[1])
        a = HatLatticeElement(lam, 1)
        b = HatLatticeElement(minus_lam, 1)
        product = hat_multiply(a, b)
        assert product.vector == (0, 0)
        assert product.sign == cocycle_sign(lam, minus_lam)


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
    t1 = (0, -1)
    assert heisenberg_apply(t1, 0, c2) == 1 * c2


def test_annihilation_on_iota_vanishes():
    assert heisenberg_apply(BETA, 5, FockState.iota(section(2, 3))).is_zero()


def test_contraction_counts_each_copy_of_a_repeated_factor():
    # (0,-1)(1) meets each of the three u1(-1) at <(0,-1), u1> = 1
    cube = FockState({(((0, 1),) * 3, (0, 0)): 1})
    contracted = heisenberg_apply((0, -1), 1, cube)
    assert contracted.terms == {(((0, 1),) * 2, (0, 0)): 3}


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
    lam = (1, 2)
    vac = FockState.vacuum()
    with pytest.raises(ValueError, match="^r must be nonnegative$"):
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
        lam = (
            Fraction(rng.choice((-3, -1, 1, 5)), 2), Fraction(rng.choice((-2, 1, 4)), 3)
        )
        for state in (rand_state(rng, max_degree=4) + dressed, dressed):
            for r in range(7):
                got = schur_apply(lam, r, state)
                assert got == schur_oracle(lam, r, state), (lam, r)
                assert_exact_nonzero(got)


def schur_recurrence(lam, r):
    """q_k = k! p_k for k = 0 ... r by the recurrence
    q_k = sum_{n=1}^{k} (k-1)!/(k-n)! lam(-n) q_{k-n}, from r p_r =
    sum_n lam(-n) p_{r-n}: each monomial of level k - n gains the factor
    (axis, n) once per nonzero coordinate of lam; [{monomial: coefficient}]."""
    levels = [{(): 1}]
    for k in range(1, r + 1):
        acc = {}
        falling = 1  # (k-1)!/(k-n)!
        for n in range(1, k + 1):
            for axis, x in enumerate(lam):
                if not x:
                    continue
                scale = falling * x
                for mono, c in levels[k - n].items():
                    key = tuple(sorted(mono + ((axis, n),)))
                    acc[key] = acc.get(key, 0) + scale * c
            falling *= k - n
        levels.append(acc)
    return levels


SCHUR_POINTS = [(0, 0), (1, 0), (0, -2), (1, -1), (2, 3), (-3, 1)]
SCHUR_POINTS += [(Fraction(1, 2), 0), (Fraction(-2, 3), Fraction(5, 4)), (3, Fraction(1, 3))]


def schur_numerators(lam, orders):
    """[q_0, ..., q_top], q_r = r! p_r(lam(-1), lam(-2), ...) as a dict
    {monomial: coefficient} for r in orders and None for the other r: the
    shared level of each order evaluated at lam = (x, y), each weight times
    x**len(mu) y**len(nu), zero products dropped, a key at most once."""
    x, y = lam
    levels = [None] * (max(orders, default=0) + 1)
    for r in orders:
        level = levels[r] = {}
        for key, weight, i, j in _schur_level(r):
            c = weight * (x**i if i else 1) * (y**j if j else 1)
            assert key not in level, (r, key)
            if c:
                level[key] = c
    return levels


@pytest.fixture
def fresh_schur_table(monkeypatch):
    """An empty shared Schur table for the test, the process's own restored after."""
    table = {}
    monkeypatch.setattr(lattice, "_SCHUR_LEVELS", table)
    return table


def test_schur_numerators_match_the_recurrence():
    # equal dicts and equal coefficient types: int on the axis-integral
    # terms, exact Fraction wherever a rational coordinate enters
    for lam in SCHUR_POINTS:
        expected = schur_recurrence(lam, 10)
        levels = schur_numerators(lam, range(11))
        assert len(levels) == 11
        for r in range(11):
            assert levels[r] == expected[r], (lam, r)
            types = {mono: type(c) for mono, c in levels[r].items()}
            assert types == {mono: type(c) for mono, c in expected[r].items()}, (lam, r)


def test_schur_numerators_build_only_the_orders_asked_for(fresh_schur_table):
    levels = schur_numerators((2, -1), {3, 7})
    assert sorted(fresh_schur_table) == [3, 7]
    assert [r for r, level in enumerate(levels) if level is not None] == [3, 7]
    expected = schur_recurrence((2, -1), 7)
    assert levels[3] == expected[3] and levels[7] == expected[7]


def test_schur_numerators_of_lattice_points_are_integers():
    # q_k = k! p_k has integer coefficients on a lattice point
    vac = FockState.vacuum()
    for lam in ((1, -1), (2, 3), (-3, 0)):
        levels = schur_numerators(lam, range(9))
        for k, level in enumerate(levels):
            assert all(type(c) is int for c in level.values()), (lam, k)
            q_k = FockState({(mono, (0, 0)): c for mono, c in level.items()})
            assert Fraction(1, factorial(k)) * q_k == schur_oracle(lam, k, vac), (lam, k)


def partitions(r, largest=None):
    """The partitions of r as nonincreasing tuples."""
    if r == 0:
        yield ()
        return
    for part in range(min(r, largest or r), 0, -1):
        for rest in partitions(r - part, part):
            yield (part,) + rest


def schur_closed_form(lam, r):
    """q_r = r! p_r by the cycle-type formula
    q_r = sum_{mu |- r} (r!/z_mu) prod_i (m u1(-i) + n u2(-i))**(m_i(mu)),
    z_mu = prod_i i**m_i m_i!, multiplied out with the binomial theorem;
    {monomial: coefficient}, zeros dropped."""
    m, n = lam
    out = {}
    for mu in partitions(r):
        mult = Counter(mu)
        z = 1
        for i, k in mult.items():
            z *= i**k * factorial(k)
        parts = sorted(mult.items())
        for ones in itertools.product(*(range(k + 1) for _, k in parts)):
            c, mono = Fraction(factorial(r), z), []
            for (i, k), j in zip(parts, ones):
                c *= comb(k, j) * m**j * n ** (k - j)
                mono += [(0, i)] * j + [(1, i)] * (k - j)
            key = tuple(sorted(mono))
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def test_schur_numerators_match_the_cycle_type_formula():
    for lam in SCHUR_POINTS:
        levels = schur_numerators(lam, range(9))
        assert len(levels) == 9
        for r, level in enumerate(levels):
            assert level == schur_closed_form(lam, r), (lam, r)


def partition_count(r):
    return sum(1 for _ in partitions(r))


def test_schur_numerators_hold_one_term_per_coloured_partition():
    # on (1, -2) each pair of partitions (of i on u1, of 14 - i on u2) is one
    # term, on (0, 3) each partition of 14 on u2; none cancels
    both = schur_numerators((1, -2), {14})[14]
    one = schur_numerators((0, 3), {14})[14]
    assert len(both) == sum(partition_count(i) * partition_count(14 - i) for i in range(15)) == 2665
    assert len(one) == partition_count(14) == 135
    for level in (both, one):
        assert all(type(c) is int for c in level.values())
        assert all(list(mono) == sorted(mono) for mono in level)
    vac = FockState.vacuum()
    assert schur_apply((1, -2), 10, vac) == schur_oracle((1, -2), 10, vac)


def test_schur_table_holds_only_the_orders_asked_for(fresh_schur_table):
    state = FockState({(((0, 1),), (1, 2)): 3})
    schur_apply((2, -1), 4, state)
    assert sorted(fresh_schur_table) == [4]
    # <(1,1), (1,2)> = -3, so powers -3 and -1 ask for orders 0 and 2
    vertex_iota_coeff(section(1, 1), FockState.iota(section(1, 2)), -3)
    vertex_iota_coeff(section(1, 1), FockState.iota(section(1, 2)), -1)
    assert sorted(fresh_schur_table) == [0, 2, 4]


def test_schur_table_does_not_grow_over_a_sweep_of_vectors(fresh_schur_table):
    # the levels are keyed by order alone: 200 distinct lattice vectors at
    # the orders 0..3 leave the table as the first vector left it
    vectors = [(m, n) for m in range(-10, 10) for n in range(1, 11)]
    assert len(set(vectors)) == 200
    kept = None
    for m, n in vectors:
        b = FockState({(((0, 1),), (n, m)): 1})
        base = pairing((m, n), (n, m))
        for r in range(4):
            vertex_iota_coeff(section(m, n), b, base - 1 + r)
        if kept is None:
            kept = dict(fresh_schur_table)
        assert fresh_schur_table.keys() == kept.keys()
        assert all(fresh_schur_table[r] is level for r, level in kept.items())
    assert sorted(kept) == [0, 1, 2, 3]


def test_schur_levels_are_immutable():
    for r in (0, 1, 5):
        level = _schur_level(r)
        assert level is _schur_level(r) is lattice._SCHUR_LEVELS[r]
        assert type(level) is tuple and all(type(entry) is tuple for entry in level)
        hash(level)  # tuples of ints and int tuples all the way down
        with pytest.raises(TypeError):
            level[0] = ((), 0, 0, 0)


def test_schur_levels_do_not_depend_on_the_order_they_are_built_in(monkeypatch):
    state = FockState({(((0, 1), (1, 2)), (1, -1)): Fraction(1, 6), ((), (2, 0)): 5})
    a = section(2, -1)
    results = []
    for orders in ((7, 3), (3, 7)):
        monkeypatch.setattr(lattice, "_SCHUR_LEVELS", {})
        results.append({
            r: (schur_apply((3, -2), r, state), vertex_iota_coeff(a, state, r - 3))
            for r in orders
        })
    assert results[0] == results[1]
    assert results[0][7][0] == schur_oracle((3, -2), 7, state)


@pytest.mark.parametrize("axis", [0, 1])
def test_cycle_types_list_each_partition_once_with_its_z(axis):
    # z_mu = prod_n n**m_n m_n!, counted here from the parts of mu
    for top in range(13):
        tables = lattice._cycle_types(axis, top)
        assert len(tables) == top + 1
        for i, table in enumerate(tables):
            monos = [mono for mono, _ in table]
            assert len(set(monos)) == len(monos), (top, i)
            assert all(list(mono) == sorted(mono) for mono in monos)
            assert all(a == axis for mono in monos for a, _ in mono)
            parts = {tuple(sorted((n for _, n in mono), reverse=True)) for mono in monos}
            assert parts == set(partitions(i)), (top, i)
            for mono, z in table:
                counts = Counter(n for _, n in mono)
                expected = 1
                for n, m in counts.items():
                    expected *= n**m * factorial(m)
                assert type(z) is int and z == expected, (mono, z)


def test_schur_apply_at_a_zero_coordinate_matches_the_oracle():
    rng = random.Random(59)
    vac = FockState.vacuum()
    for lam in ((0, 0), (0, 3), (-2, 0), (Fraction(1, 2), 0), (0, Fraction(-4, 3))):
        for state in (vac, rand_state(rng, max_degree=3)):
            for r in range(7):
                assert schur_apply(lam, r, state) == schur_oracle(lam, r, state), (lam, r)


def brute_vertex_coeff(a, b_state, power, r_max=8):
    """Independent expansion of the vertex operator on a pure iota state:
    multiply out exp(sum abar(-n)/n x**n) term by term."""
    out = FockState.zero()
    for (mono, abar), c in b_state.terms.items():
        assert mono == (), "oracle only covers pure iota states"
        b_hat = HatLatticeElement(abar, 1)
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
                int(pairing(a.vector, abar)) - sum(n for _, n in mono)
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
    t = (0, -1)
    target = heisenberg_apply(t, -1, FockState.vacuum())
    got = vertex_iota_coeff(a, target, -1)
    expected = (-pairing(a.vector, t)) * FockState.iota(a)
    assert got == expected
    assert_exact_nonzero(got)
    assert vertex_iota_coeff(a, target, -2).is_zero()


def test_vertex_coeff_merges_cancelling_contractions_in_lowest_terms():
    # a = (1, 1) pairs to -1 with u1 and with u2, so in u1(-1)iota(0) -
    # u2(-1)iota(0) both full contractions land on one target, at +1 and -1
    a = section(1, 1)
    vac = FockState.vacuum()
    b1, b2 = heisenberg_apply((1, 0), -1, vac), heisenberg_apply((0, 1), -1, vac)
    b = b1 - b2
    assert vertex_iota_coeff(a, b1, -1) == vertex_iota_coeff(a, b2, -1) == FockState.iota(a)
    assert vertex_iota_coeff(a, b, -1) == FockState.zero()
    for power in range(-2, 6):
        got = vertex_iota_coeff(a, b, power)
        expected = vertex_iota_coeff(a, b1, power) - vertex_iota_coeff(a, b2, power)
        assert (got.den, got.numer) == (expected.den, expected.numer), power


def test_cancelling_contractions_reach_the_schur_merge_as_no_target(monkeypatch):
    # the state of the test above: its two full contractions meet on one
    # target and cancel, and that target must not reach `_schur_terms`
    a = section(1, 1)
    vac = FockState.vacuum()
    b1, b2 = heisenberg_apply((1, 0), -1, vac), heisenberg_apply((0, 1), -1, vac)
    b = b1 - b2
    merge = lattice._schur_terms
    seen = []

    def recording(lam, targets, d):
        seen.append(dict(targets))
        return merge(lam, targets, d)

    monkeypatch.setattr(lattice, "_schur_terms", recording)
    for power in range(-2, 6):
        seen.clear()
        got = vertex_iota_coeff(a, b, power)
        assert seen and all(0 not in targets.values() for targets in seen), (power, seen)
        expected = vertex_iota_coeff(a, b1, power) - vertex_iota_coeff(a, b2, power)
        assert (got.den, got.numer) == (expected.den, expected.numer), power


def test_the_vertex_kernel_is_the_public_coefficient_on_bare_ints():
    rng = random.Random(41)
    states = [FockState.vacuum(), FockState.iota(section(1, 1, -1))]
    states += [rand_state(rng, 3) for _ in range(6)]
    for (m, n), sign in itertools.product([(1, 0), (1, 1), (-1, 2), (3, -1)], (1, -1)):
        a = section(m, n, sign)
        for state in states:
            for p in range(-4, 4):
                got = lattice._vertex_iota(a.vector, a.sign, state.numer, state.den, p)
                want = vertex_iota_coeff(a, state, p)
                assert (got.den, got.numer) == (want.den, want.numer), (a, state, p)
                # the kernel reads the sign: -a acts as minus a
                negated = lattice._vertex_iota(a.vector, -a.sign, state.numer, state.den, p)
                assert negated == -got, (a, state, p)
        # on a bare iota(b) the lowest coefficient is iota(a b), the cocycle
        # included, so a kernel that drops it fails for odd m and odd n
        for bbar in ((0, 1), (2, -1), (1, 3)):
            b = section(*bbar)
            lowest = pairing(a.vector, bbar)
            got = lattice._vertex_iota(a.vector, a.sign, {((), bbar): 1}, 1, lowest)
            assert got == FockState.iota(hat_multiply(a, b)), (a, b)


@pytest.mark.parametrize("abar", [(Fraction(1, 2), 0), (0, Fraction(1, 2))])
def test_vertex_coeff_rejects_keys_off_the_lattice(abar):
    with pytest.raises(ValueError, match="double-cover elements sit over lattice points"):
        vertex_iota_coeff(section(1, 0), FockState({((), abar): 1}), 0)


def test_vertex_coeff_needs_a_double_cover_element():
    with pytest.raises(TypeError, match="the operator argument must be a HatLatticeElement"):
        vertex_iota_coeff((1, 0), FockState.vacuum(), 0)


def locality_sum(a, b, c, P, Q):
    """The x**P y**Q coefficient of (x - y)**N [Y(iota(a), x), Y(iota(b), y)] c,
    sum_i (-1)^i C(N,i) [A_{P-N+i}, B_{Q-i}] c with A_r the x**r coefficient
    of Y(iota(a), x) and N = max(0, -<abar, bbar>), and the commutators it sums."""
    N = max(0, -pairing(a.vector, b.vector))
    total, commutators = FockState.zero(), []
    for i in range(N + 1):
        r, s = P - N + i, Q - i
        ab = vertex_iota_coeff(a, vertex_iota_coeff(b, c, s), r)
        ba = vertex_iota_coeff(b, vertex_iota_coeff(a, c, r), s)
        commutators.append(ab - ba)
        total = total + ((-1) ** i * comb(N, i)) * commutators[-1]
    return total, commutators


def test_vertex_operators_are_local():
    # (x - y)**N [Y(iota(a), x), Y(iota(b), y)] = 0: the sign the cocycle
    # gives iota(a) iota(b) against iota(b) iota(a) is what makes it hold
    rng = random.Random(71)
    odd = live = 0
    for _ in range(24):
        a = section(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((1, -1)))
        b = section(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((1, -1)))
        c = rand_fractional_state(rng, rng.randint(1, 2), max_degree=rng.choice((2, 3)))
        ab = pairing(a.vector, b.vector)
        odd += ab % 2
        N = max(0, -ab)
        # A_r B_s c vanishes below r + s = <a,b> + <a,g> + <b,g> - depth,
        # and B_s c below s = <b,g> - depth, on each term mono iota(g)
        low = ab + min(
            pairing(a.vector, g) + pairing(b.vector, g) - sum(k for _, k in mono)
            for mono, g in c.terms
        )
        low_q = min(pairing(b.vector, g) - sum(k for _, k in mono) for mono, g in c.terms)
        for total in range(low, low + 3):
            for Q in range(low_q, low_q + 3):
                got, commutators = locality_sum(a, b, c, total + N - Q, Q)
                assert got.is_zero(), (a, b, c, total + N - Q, Q)
                live += any(not t.is_zero() for t in commutators)
    assert odd and live, (odd, live)


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
            int(pairing(a.vector, abar)) - sum(n for _, n in mono)
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


def test_results_stay_exact_where_sums_cancel():
    # u1(-1)u2(-2) and u1(-2)u2(-1) both reach u1(-2)u2(-2) under L(-1),
    # and u1(-1), u2(-1) both contract to iota(1,1) under Y(iota(1,1), x)
    k12, k21 = (((0, 1), (1, 2)), (0, 0)), (((0, 2), (1, 1)), (0, 0))
    k1, k2 = (((0, 1),), (0, 0)), (((1, 1),), (0, 0))
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    s = FockState({k12: third, k21: two_thirds})
    t = FockState({k12: two_thirds, k21: two_thirds})
    meet = FockState({k1: third, k2: two_thirds})
    cancel = FockState({k1: third, k2: -third})
    a = section(1, 1)
    assert (s + t).terms == {k12: 1, k21: Fraction(4, 3)}
    assert (s - t).terms == {k12: -third}
    assert (3 * s).terms == {k12: 1, k21: 2}
    assert (s - s).is_zero() and (s + (-s)).is_zero()
    assert virasoro_apply(-1, s).terms[(((0, 2), (1, 2)), (0, 0))] == 1
    assert heisenberg_apply((1, 1), -1, meet).terms[(((0, 1), (1, 1)), (0, 0))] == 1
    assert heisenberg_apply((1, 1), -1, cancel).terms == {
        (((0, 1), (0, 1)), (0, 0)): third, (((1, 1), (1, 1)), (0, 0)): -third
    }
    assert vertex_iota_coeff(a, meet, -1) == FockState.iota(a)
    assert vertex_iota_coeff(a, cancel, -1).is_zero()
    results = [s + t, s - t, t - s, s - s, Fraction(3, 2) * s, 3 * s, 0 * s, -s]
    for state in (s, t, meet, cancel, s + meet):
        results += [virasoro_apply(n, state) for n in range(-3, 4)]
        for lam in ((1, 1), (3, 0), (Fraction(3, 2), -3)):
            results += [heisenberg_apply(lam, n, state) for n in range(-2, 3)]
            results += [schur_apply(lam, r, state) for r in range(4)]
        results += [vertex_iota_coeff(a, state, p) for p in range(-3, 3)]
    for state in results:
        assert_exact_nonzero(state)
    with pytest.raises(TypeError):
        s - 1


def test_each_kernel_call_builds_one_fock_state(monkeypatch):
    state = FockState(
        {
            (((0, 1), (0, 1), (1, 2)), (1, -1)): Fraction(1, 4),
            (((1, 1),), (0, 2)): Fraction(-5, 6),
            ((), (2, 1)): 3,
        }
    )
    calls = {
        "virasoro_apply": lambda: virasoro_apply(-2, state),
        "vertex_iota_coeff": lambda: vertex_iota_coeff(section(1, -1), state, 1),
        "schur_apply": lambda: schur_apply((1, 2), 3, state),
        "heisenberg_apply": lambda: heisenberg_apply((1, 2), 1, state),
    }
    built = []
    init = FockState.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockState, "__init__", counting)
    for name, call in calls.items():
        built.clear()
        assert not call().is_zero(), name
        assert len(built) == 1, name


# -- Virasoro ----------------------------------------------------------------


def test_grading_examples():
    beta_state = heisenberg_apply(BETA, -1, FockState.vacuum())
    assert virasoro_apply(0, beta_state) == 1 * beta_state
    for j in (1, 2, 5):
        cj = FockState.iota(section(1, j))
        assert virasoro_apply(0, cj) == -j * cj
        assert virasoro_apply(1, cj).is_zero()


def test_l2_on_single_creation_vanishes():
    lam = (2, -1)
    state = heisenberg_apply(lam, -1, FockState.vacuum())
    assert virasoro_apply(2, state).is_zero()


def test_weight_examples():
    assert weight_of(FockState.vacuum()) == 0
    assert weight_of(FockState.iota(section(1, 3))) == -3
    s = heisenberg_apply(
        (1, 0),
        -2,
        heisenberg_apply((0, 1), -1, FockState.iota(section(1, 1))),
    )
    assert weight_of(s) == 2
    mixed = FockState.vacuum() + FockState.iota(section(1, 1))
    assert weight_of(mixed) is None


def test_weight_is_exact():
    # every point is an int pair, so <abar,abar>/2 = -m n is an integer
    assert type(weight_of(FockState.iota(section(1, 3)))) is int
    rng = random.Random(53)
    for _ in range(60):
        s = rand_state(rng, max_degree=4)
        for key, c in s.terms.items():
            w = weight_of(FockState({key: c}))
            assert type(w) is int, (key, w)
        w = weight_of(s)
        assert w is None or type(w) is int


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
            inner = heisenberg_apply((0, 1), j, state)
            term = heisenberg_apply((1, 0), i, inner)
        else:
            inner = heisenberg_apply((1, 0), i, state)
            term = heisenberg_apply((0, 1), j, inner)
        out = out + term
    return -1 * out


def test_virasoro_matches_mode_expansion_oracle():
    rng = random.Random(37)
    for _ in range(8):
        s = rand_state(rng, max_degree=5)
        for n in range(-5, 6):
            assert virasoro_apply(n, s) == virasoro_mode_oracle(n, s), f"L({n})"


def golden_state(rng, max_terms=4):
    """1-max_terms terms of creation degree <= 6, each factor taken up to
    three times, on points in -3..3, with coefficient denominators 1-12."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono, degree = [], 0
        while degree < 6 and rng.random() < 0.75:
            axis, depth = rng.randint(0, 1), rng.randint(1, min(3, 6 - degree))
            copies = min(rng.choice((1, 1, 2, 3)), (6 - degree) // depth)
            mono += [(axis, depth)] * copies
            degree += depth * copies
        abar = (rng.randint(-3, 3), rng.randint(-3, 3))
        numerator = rng.choice([i for i in range(-9, 10) if i])
        terms[(tuple(mono), abar)] = Fraction(numerator, rng.randint(1, 12))
    return FockState(terms)


# SHA-256 of the reprs below, recorded with the kernel that peeled one
# creation factor per recursion level before the one-pass kernel replaced it
VIRASORO_GOLDEN_DIGEST = "c1549a56d87c2b016006f985b1e4818de976134fc35a7123a4c8b3835a647873"


def test_virasoro_golden_digest():
    rng = random.Random(61)
    states = [golden_state(rng) for _ in range(60)]
    repeated = {
        axis
        for s in states
        for mono, _ in s.terms
        for (axis, _), count in Counter(mono).items()
        if count > 1
    }
    assert repeated == {0, 1}
    text = "\n".join(repr(virasoro_apply(n, s)) for s in states for n in range(-6, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == VIRASORO_GOLDEN_DIGEST


# SHA-256 of the reprs below, recorded with the vertex kernel that built
# each Schur level and each merged target through temporary dicts
VERTEX_GOLDEN_DIGEST = "bc597da8504ea5379aaedfaafc066abb6275585d77c54134c1e8baefb3c8a1c2"

# one coordinate zero, both nonzero, and sign -1 with either shape
VERTEX_GOLDEN_OPERATORS = (
    section(0, 2), section(-1, 0), section(1, -2), section(2, 1, sign=-1), section(0, -1, sign=-1)
)


def test_vertex_golden_digest():
    rng = random.Random(67)
    states = [golden_state(rng, max_terms=3) for _ in range(30)]
    assert {
        axis
        for s in states
        for mono, _ in s.terms
        for (axis, _), count in Counter(mono).items()
        if count > 1
    } == {0, 1}
    assert any(type(c) is Fraction for s in states for c in s.terms.values())
    reprs = []
    for i, s in enumerate(states):
        a = VERTEX_GOLDEN_OPERATORS[i % len(VERTEX_GOLDEN_OPERATORS)]
        lowest = min(pairing(a.vector, abar) - sum(k for _, k in mono) for mono, abar in s.terms)
        reprs += [repr(vertex_iota_coeff(a, s, p)) for p in range(lowest - 1, lowest + 7)]
    assert reprs[0] == "FockState(0)"
    text = "\n".join(reprs)
    assert hashlib.sha256(text.encode()).hexdigest() == VERTEX_GOLDEN_DIGEST


# integer, rational and zero coordinates; repr shows 3 and Fraction(3, 1)
# alike, so the digests below also hash each coefficient's type
GOLDEN_VECTORS = (
    (0, 2), (-1, 0), (1, -2),
    (Fraction(1, 2), 3), (Fraction(-2, 3), Fraction(5, 4)), (0, Fraction(-1, 3)),
)


def golden_text(results):
    return "\n".join(
        repr(s) + " " + ",".join(type(c).__name__ for _, c in sorted(s.terms.items()))
        for s in results
    )


# SHA-256 of golden_text below, recorded with the Heisenberg action that
# built one-key dicts through `_create` and `_add`
HEISENBERG_GOLDEN_DIGEST = "6086c755f57bb9178b9e7bdc2f638323216ca3e3c4055428588c2e0d63f63742"


def test_heisenberg_golden_digest():
    rng = random.Random(71)
    states = [golden_state(rng, max_terms=3) for _ in range(40)]
    results = [
        heisenberg_apply(lam, n, s) for s in states for lam in GOLDEN_VECTORS for n in range(-3, 4)
    ]
    types = {type(c) for s in results for c in s.terms.values()}
    assert types == {int, Fraction} and any(s.is_zero() for s in results)
    assert hashlib.sha256(golden_text(results).encode()).hexdigest() == HEISENBERG_GOLDEN_DIGEST


# SHA-256 of golden_text below, recorded with the Schur merge that
# `schur_apply` wrote out on its own
SCHUR_GOLDEN_DIGEST = "91c79a583fba4f35d6b9530742d99813c40d63cad2acc626acca5e82429a5aef"


def test_schur_golden_digest():
    rng = random.Random(73)
    states = [golden_state(rng, max_terms=3) for _ in range(30)]
    results = [schur_apply(lam, r, s) for s in states for lam in GOLDEN_VECTORS for r in range(6)]
    assert {type(c) for s in results for c in s.terms.values()} == {int, Fraction}
    assert hashlib.sha256(golden_text(results).encode()).hexdigest() == SCHUR_GOLDEN_DIGEST


# -- primality ----------------------------------------------------------------


def test_iota_vectors_are_primary():
    for j in (-1, 1, 2, 7, 10):
        assert is_primary(FockState.iota(section(1, j)))


def test_single_creation_on_vacuum_is_primary():
    state = heisenberg_apply((3, -2), -1, FockState.vacuum())
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
    state = heisenberg_apply(ALPHA, -1, heisenberg_apply((0, 1), -1, vac))
    assert virasoro_apply(1, state).is_zero()
    assert not is_primary(omega)
    assert not is_primary(state)
    assert is_primary(FockState.zero())


def test_is_primary_checks_l1_where_every_higher_mode_vanishes():
    # L(1) lam(-2)|0> = 2 lam(-1)|0>, while L(2) lam(-2)|0> = 2 <lam, 0>|0> = 0
    lam = (3, -2)
    state = heisenberg_apply(lam, -2, FockState.vacuum())
    assert virasoro_apply(1, state) == 2 * heisenberg_apply(lam, -1, FockState.vacuum())
    assert all(virasoro_apply(n, state).is_zero() for n in range(2, 6))
    assert not is_primary(state)


def test_is_primary_agrees_with_every_mode_up_to_two_past_the_depth():
    rng = random.Random(79)
    seen = Counter()
    for _ in range(200):
        s = rand_state(rng, max_degree=rng.randint(1, 4))
        top = max((sum(n for _, n in mono) for mono, _ in s.terms), default=0)
        modes = [virasoro_apply(n, s).is_zero() for n in range(1, top + 3)]
        assert is_primary(s) == all(modes), s
        seen[all(modes), not modes[0] and all(modes[1:])] += 1
    # both verdicts occur, and some states fail at L(1) alone
    assert seen[True, False] and seen[False, True], seen


def test_modes_above_the_creation_depth_vanish():
    rng = random.Random(53)
    for _ in range(40):
        s = rand_state(rng, max_degree=6)
        top = max((sum(n for _, n in mono) for mono, _ in s.terms), default=0)
        for n in range(top + 1, top + 4):
            assert virasoro_apply(n, s).is_zero(), (s, n)
