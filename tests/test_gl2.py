import hashlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from monsterlie import gl2, lattice
from monsterlie.dataset import DatasetError, parse_dataset, to_jsonable, trivial_dataset
from monsterlie.gl2 import (
    FormalNaturalVector,
    Gl2ValidationError,
    MElement,
    NotPrimaryError,
    PairingNormalizationError,
    UnsupportedBracketError,
    WeightMismatchError,
    bracket,
    cartan_block_size,
    cartan_block_sizes,
    cartan_entry,
    make_gl2,
    normalize_partner,
    pairing_value,
    primality_of_representatives,
    primary_pair,
    vacuum_vector,
    verify_relations,
)
from monsterlie.lattice import (
    FockState,
    HatLatticeElement,
    cocycle_sign,
    heisenberg_apply,
    pairing,
    schur_apply,
    section,
    vertex_iota_coeff,
)
from monsterlie.qseries import NotInvertibleError, QSeries, eta_quotient


# -- Cartan matrix -------------------------------------------------------


def test_cartan_entries():
    assert cartan_entry(-1, -1) == 2
    assert cartan_entry(-1, 1) == 0
    assert cartan_entry(-1, 2) == -1
    assert cartan_entry(1, 1) == -2
    assert cartan_entry(1, 2) == -3
    assert cartan_entry(2, 2) == -4
    assert cartan_entry(3, 2) == cartan_entry(2, 3) == -5


def test_cartan_entry_rejects_invalid_labels():
    with pytest.raises(Gl2ValidationError):
        cartan_entry(0, 1)
    with pytest.raises(Gl2ValidationError):
        cartan_entry(1, -2)


BOOL_ROOT_INDEX = "root index must be -1 or a positive integer, got True"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_relations(True, *primary_pair(1)), BOOL_ROOT_INDEX),
        (lambda: cartan_block_sizes([True]), BOOL_ROOT_INDEX),
        (lambda: primary_pair(True), BOOL_ROOT_INDEX),
        (
            lambda: make_gl2(1, *primary_pair(1), section_sign=True),
            "section_sign must be +1 or -1",
        ),
        (lambda: section(1, 2, True), "sign must be +1 or -1"),
    ],
    ids=[
        "verify-relations",
        "cartan-block-sizes",
        "primary-pair",
        "section-sign",
        "hat-sign",
    ],
)
def test_bool_is_not_a_root_index_or_sign(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_cartan_block_sizes():
    assert cartan_block_size(-1) == 1
    assert cartan_block_size(1) == 196884
    assert cartan_block_size(2) == 21493760


def test_cartan_block_sizes_read_an_iterator_once():
    # the labels are gated and read in one pass, so a one-shot iterable
    # reaches the expansion and the result whole
    assert cartan_block_sizes(iter([-1, 2])) == [1, 21493760]
    assert cartan_block_sizes(i for i in (-1, 2)) == [1, 21493760]


# -- pairs and validation ---------------------------------------------------


def test_primary_pair_satisfies_construction():
    for j in (-1, 1, 2, 3, 10):
        u, v = primary_pair(j)
        gens = make_gl2(j, u, v)
        assert gens.j == j


def test_normalize_partner_examples():
    u, _ = primary_pair(2)  # (u,u) = 1, j even
    v = normalize_partner(2, u)
    assert v == u
    w = FormalNaturalVector("w", 2, True, 1, {("w", "w"): Fraction(4)})
    partner = normalize_partner(1, w)
    assert partner.label == "w"
    assert partner.scale == Fraction(-1, 4)
    assert pairing_value(w, partner) == -1


def test_normalize_partner_only_reads_the_pairing_table():
    w = FormalNaturalVector("w", 2, True, 1, {("w", "w"): 4})
    before = dict(w.pairings)
    assert normalize_partner(1, w).scale == Fraction(-1, 4)
    assert dict(w.pairings) == before
    # (u,u) comes from the table alone: a table without it raises
    unrecorded = FormalNaturalVector("x", 2, pairings={("x", "y"): 1})
    with pytest.raises(PairingNormalizationError, match=r"pairing \(x, x\) is not defined"):
        normalize_partner(1, unrecorded)
    assert dict(unrecorded.pairings) == {("x", "y"): 1}


def test_normalize_partner_rejects_nonpositive_norm():
    for norm in (0, Fraction(-3, 2)):
        w = FormalNaturalVector("w", 2, True, pairings={("w", "w"): norm})
        with pytest.raises(Gl2ValidationError, match=f"\\(u,u\\) must be positive .*, got {norm}"):
            normalize_partner(1, w)


def test_normalize_partner_random_norms_validate():
    import random

    rng = random.Random(41)
    for _ in range(30):
        j = rng.choice((1, 2, 3, 7))
        norm = rng.choice((rng.randint(1, 40), Fraction(rng.randint(1, 40), rng.randint(1, 7))))
        u = FormalNaturalVector("u", j + 1, True, 1, {("u", "u"): norm})
        v = normalize_partner(j, u)
        assert v == u.rescaled(Fraction((-1) ** j) / norm)
        make_gl2(j, u, v)  # must not raise


def test_make_gl2_validation_errors_are_distinct():
    u, v = primary_pair(1)
    not_primary = FormalNaturalVector("u", 2, primary=False, pairings={("u", "u"): 1})
    with pytest.raises(NotPrimaryError):
        make_gl2(1, not_primary, v)
    not_primary_v = FormalNaturalVector("v", 2, primary=False)
    with pytest.raises(NotPrimaryError, match=r"v\[wt 2\] is not primary"):
        make_gl2(1, u, not_primary_v)
    with pytest.raises(Gl2ValidationError, match="section_sign"):
        make_gl2(1, u, v, section_sign=2)
    wrong_weight = FormalNaturalVector("u", 3, True, 1, {("u", "u"): 1})
    with pytest.raises(WeightMismatchError):
        make_gl2(1, wrong_weight, v)
    # (u,v) = +1 at odd root index needs -1
    plus = FormalNaturalVector("u", 2, True, 1, {("u", "u"): 1})
    with pytest.raises(PairingNormalizationError):
        make_gl2(1, plus, plus)


def test_symbol_inputs_are_checked():
    with pytest.raises(ValueError, match="^weight must be nonnegative$"):
        FormalNaturalVector("u", -1)
    assert FormalNaturalVector("u", 0).weight == 0
    # one label naming symbols of two weights makes two terms of one element
    e1 = make_gl2(1, *primary_pair(1, label="u")).e
    e2 = make_gl2(2, *primary_pair(2, label="u")).e
    assert len((e1 + e2).terms) == 2
    assert repr(e1 + e2) == "MElement(1*e(1,u) + 1*e(2,u))"


BAD_SYMBOLS = {
    "int-label": (lambda: FormalNaturalVector(3, 2), TypeError, "label must be a str, got int"),
    "none-label": (
        lambda: FormalNaturalVector(None, 2),
        TypeError,
        "label must be a str, got NoneType",
    ),
    "str-primary": (
        lambda: FormalNaturalVector("u", 2, primary="no"),
        TypeError,
        "primary must be a bool, got str",
    ),
    "int-primary": (
        lambda: FormalNaturalVector("u", 2, primary=1),
        TypeError,
        "primary must be a bool, got int",
    ),
    "str-pairing-key": (
        lambda: FormalNaturalVector("u", 2, pairings={"uv": 1}),
        Gl2ValidationError,
        "pairing key 'uv' is not a pair of str labels",
    ),
    "short-pairing-key": (
        lambda: FormalNaturalVector("u", 2, pairings={("u",): 1}),
        Gl2ValidationError,
        "pairing key ('u',) is not a pair of str labels",
    ),
    "int-label-pairing-key": (
        lambda: FormalNaturalVector("u", 2, pairings={(1, "u"): 1}),
        Gl2ValidationError,
        "pairing key (1, 'u') is not a pair of str labels",
    ),
    "list-pairings": (
        lambda: FormalNaturalVector("u", 2, pairings=[1]),
        TypeError,
        "pairings must be a mapping, got list",
    ),
    "str-pairings": (
        lambda: FormalNaturalVector("u", 2, pairings="ab"),
        TypeError,
        "pairings must be a mapping, got str",
    ),
    "int-pairings": (
        lambda: FormalNaturalVector("u", 2, pairings=5),
        TypeError,
        "pairings must be a mapping, got int",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SYMBOLS))
def test_symbol_refuses_what_it_cannot_use(name):
    # a label is a str, primary a bool, the pairing table a mapping and
    # each of its keys a pair of labels
    call, error, message = BAD_SYMBOLS[name]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


_U, _V = primary_pair(1)
SYMBOL_ENTRY_POINTS = {  # a call with one symbol argument replaced, and its name
    "make_gl2 u": (lambda x: make_gl2(1, x, _V), "u"),
    "make_gl2 v": (lambda x: make_gl2(1, _U, x), "v"),
    "verify_relations u": (lambda x: verify_relations(1, x, _V), "u"),
    "verify_relations v": (lambda x: verify_relations(1, _U, x), "v"),
    "normalize_partner": (lambda x: normalize_partner(1, x), "u"),
    "pairing_value u": (lambda x: pairing_value(x, _V), "u"),
    "pairing_value v": (lambda x: pairing_value(_U, x), "v"),
    "primality_of_representatives": (lambda x: primality_of_representatives(1, x), "u"),
}


@pytest.mark.parametrize("value", [3, None, "u", ("u", 2)])
@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_symbol_arguments_must_be_symbols(entry, value):
    # as `bracket` refuses what is not an MElement, each entry point that
    # reads a symbol names the argument that is not one
    call, name = SYMBOL_ENTRY_POINTS[entry]
    message = f"{name} must be a FormalNaturalVector, got {type(value).__name__}"
    with pytest.raises(TypeError) as err:
        call(value)
    assert str(err.value) == message


def test_symbols_with_one_label_and_two_pairing_tables_conflict():
    # the norms differ, so pairing the symbols through the label's table
    # entry would give [a.e, b.f] a different value in each bracket order
    a = make_gl2(1, *primary_pair(1, norm=1))
    b = make_gl2(1, *primary_pair(1, norm=4))
    conflict = "conflicting symbols for label 'u'"
    with pytest.raises(Gl2ValidationError, match=conflict):
        bracket(a.e, b.f)
    with pytest.raises(Gl2ValidationError, match=conflict):
        bracket(b.f, a.e)
    # a sum only names both symbols, so it is a two-term element
    both = a.e - b.e
    assert both.terms == {("e", 1, a.u): 1, ("e", 1, b.u): -1}
    with pytest.raises(Gl2ValidationError, match=conflict):
        bracket(both, a.f)
    # brackets that read no pairing do not look at the label
    assert bracket(a.h1, both) == both
    # pairs built apart with equal tables still meet
    c = make_gl2(1, *primary_pair(1, norm=1))
    assert bracket(a.e, c.f) == MElement.cartan_vector(1, 1)
    assert a.e + 2 * c.e == 3 * a.e


def test_one_label_over_two_symbols_is_refused_by_every_read_of_the_form(monkeypatch):
    # equal (u,u), but the tables differ; the scales make (u,v) = -1 through
    # the label's entry, so only the one-label rule can refuse the pair
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): 1})
    v = FormalNaturalVector("u", 2, scale=-1, pairings={("u", "u"): 1, ("u", "w"): 0})
    monkeypatch.setattr(gl2, "bracket", lambda x, y: pytest.fail("a bracket ran"))
    conflict = "conflicting symbols for label 'u'"
    for read in (make_gl2, verify_relations):
        with pytest.raises(Gl2ValidationError, match=conflict):
            read(1, u, v)
    for x, y in ((u, v), (v, u)):
        with pytest.raises(Gl2ValidationError, match=conflict):
            pairing_value(x, y)
    # a weight or a primality flag of its own is another symbol too
    for other in (u._replace(weight=3), u._replace(primary=False)):
        with pytest.raises(Gl2ValidationError, match=conflict):
            pairing_value(u, other)
    monkeypatch.undo()
    # one symbol at two scales is one symbol: every primary_pair
    for j, norm in itertools.product((1, 2, 5), (1, 4, Fraction(3, 2))):
        u, v = primary_pair(j, norm)
        assert v.base() == u
        assert pairing_value(u, v) == (-1) ** j
        assert verify_relations(j, u, v).all_passed
    # a pair under two labels reads the entry from either table
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): 1, ("u", "w"): -1})
    w = FormalNaturalVector("w", 2, pairings={("w", "w"): 1})
    assert pairing_value(u, w) == pairing_value(w, u) == -1
    assert verify_relations(1, u, w).all_passed and verify_relations(1, w, u).all_passed


def test_melement_equality_compares_the_symbols_its_terms_name():
    # one label over two different symbols: the keys differ, so the
    # elements are not equal and their difference keeps both terms
    a = make_gl2(1, *primary_pair(1, norm=1))
    b = make_gl2(1, *primary_pair(1, norm=4))
    assert a.e != b.e and b.e != a.e
    assert len((a.e - b.e).terms) == 2
    # the Cartan part names no symbol
    assert bracket(a.e, a.f) == bracket(b.e, b.f) == MElement.cartan_vector(1, 1)
    assert 0 * a.e == MElement.zero() == 0 * b.e
    # a symbol built apart with the same table still compares equal, and a
    # rescaled symbol is its scale-1 symbol with the scale in the coefficient
    u, v = primary_pair(1, norm=1)
    c = make_gl2(1, u, v)
    assert a.e == c.e
    assert MElement({("e", 1, u.rescaled(5).base()): 5}) == 5 * a.e
    assert a.e + c.e == 2 * a.e
    # a symbol under another label is another symbol
    w = FormalNaturalVector("w", 2, pairings={("w", "w"): 1})
    assert MElement({("e", 1, w): 1}) != a.e


def test_tables_that_disagree_on_a_pairing_raise_in_either_order():
    def symbols(u_entry, w_entry):
        u = FormalNaturalVector("u", 2, pairings={("u", "u"): 1, ("u", "w"): u_entry})
        w = FormalNaturalVector("w", 2, pairings={("w", "w"): 1, ("u", "w"): w_entry})
        return u, w

    def e_f(u, w):
        return MElement({("e", 1, u): 1}), MElement({("f", 1, w): 1})

    u, w = symbols(-2, 5)
    e_u, f_w = e_f(u, w)
    forward = r"pairing \(u, w\) is -2 in u's table and 5 in w's"
    backward = r"pairing \(w, u\) is 5 in w's table and -2 in u's"
    with pytest.raises(Gl2ValidationError, match=forward):
        bracket(e_u, f_w)
    with pytest.raises(Gl2ValidationError, match=backward):
        bracket(f_w, e_u)
    with pytest.raises(Gl2ValidationError, match=forward):
        pairing_value(u, w)
    with pytest.raises(Gl2ValidationError, match=backward):
        pairing_value(w, u)
    # agreeing tables give the two bracket orders as negatives
    u, w = symbols(-2, -2)
    e_u, f_w = e_f(u, w)
    assert bracket(e_u, f_w) == MElement.cartan_vector(-2, -2)
    assert bracket(f_w, e_u) == MElement.cartan_vector(2, 2)
    assert pairing_value(u, w) == pairing_value(w, u) == -2
    # an entry in one table alone serves both orders
    w = FormalNaturalVector("w", 2, pairings={("w", "w"): 1})
    assert pairing_value(u, w) == pairing_value(w, u) == -2
    assert bracket(*e_f(u, w)) == MElement.cartan_vector(-2, -2)


def test_a_table_giving_one_pair_twice_must_agree_with_itself():
    pairings = {("u", "w"): 3, ("w", "u"): 5, ("u", "u"): 1}
    with pytest.raises(Gl2ValidationError, match=r"pairing \(w, u\) is given as 3 and as 5"):
        FormalNaturalVector("u", 2, pairings=pairings)
    # equal values in both orientations are one entry
    u = FormalNaturalVector("u", 2, pairings={("u", "w"): 3, ("w", "u"): Fraction(6, 2)})
    assert dict(u.pairings) == {("u", "w"): 3}


def test_symbol_equality_includes_the_pairing_table():
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): 1})
    assert u != FormalNaturalVector("u", 2, pairings={("u", "u"): 4})
    assert u == FormalNaturalVector("u", 2, pairings={("u", "u"): 1})
    assert u.rescaled(3).rescaled(Fraction(1, 3)) == u  # the table travels along


def test_rescaling_shares_the_validated_pairing_table():
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): Fraction(4, 2), ("1", "u"): 0})
    v = u.rescaled(Fraction(-1, 2))
    assert v.pairings is u.pairings and v.base().pairings is u.pairings
    assert v == FormalNaturalVector("u", 2, True, Fraction(-1, 2), dict(u.pairings))
    assert (v.scale, type(v.base().scale), type(v.rescaled(-2).scale)) == (Fraction(-1, 2), int, int)
    with pytest.raises(TypeError, match="exact rational"):
        u.rescaled(0.5)


def test_rescaling_builds_what_replace_builds():
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): 3, ("1", "u"): 0})
    for scale in (Fraction(-1, 3), -1, 5):
        v = u.rescaled(scale)
        assert v == u._replace(scale=scale) and v.pairings is u.pairings
        assert type(v) is FormalNaturalVector and type(v.scale) is type(scale)
        for got, want in ((v.base(), v._replace(scale=1)), (v.rescaled(7), v._replace(scale=7 * scale))):
            assert got == want and type(got) is FormalNaturalVector, (scale, got)
            assert got.pairings is u.pairings and type(got.scale) is type(want.scale)
        assert v.base() == u and hash(v.base()) == hash(v) == hash(u)
        assert repr(v.base()) == "u[wt 2]"


def test_a_bracket_with_no_term_is_the_shared_zero():
    gens = make_gl2(2, *primary_pair(2))
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())
    pairs = [(gens.h1, gens.h2), (real.e, gens.f), (gens.e, real.f), (real.f, gens.e)]
    pairs += [(gens.f, real.e), (gens.h1, MElement()), (MElement(), gens.e)]
    for x, y in pairs:
        z = bracket(x, y)
        assert z == MElement() and z.is_zero() and (z.den, z.numer) == (1, {}), (x, y)
        assert z == MElement({}, den=7) and repr(z) == "MElement(0)"
        with pytest.raises(AttributeError, match="MElement is immutable"):
            z.numer = {("h", 0): 1}
    assert bracket(gens.h1, gens.h2) is bracket(real.e, gens.f)
    # <(1, -2), (1, 2)> = 0: two term pairs that cancel still reduce to zero
    assert bracket(MElement.cartan_vector(1, -2), gens.e) == MElement()


def test_the_expected_e_f_bracket_is_the_cartan_vector_over_the_root():
    h1, h2 = gl2._H1, gl2._H2
    for j in (-1, *range(1, 51)):
        want = -1 * (j * h1 + h2)
        got = MElement.cartan_vector(1, j)
        assert got == want and (got.den, got.numer) == (want.den, want.numer), j
        assert repr(got) == repr(want)


def test_melement_is_one_term_dict():
    gens = make_gl2(2, *primary_pair(2))
    x = gens.e + 3 * gens.f + gens.h1 - 2 * gens.h2
    assert MElement.__slots__ == ("numer", "den")
    u = gens.u
    assert x.terms == {("e", 2, u): 1, ("f", 2, u): 3, ("h", 0): 2, ("h", 1): -1}
    assert x.cartan == (2, -1)
    assert repr(x) == "MElement(1*e(2,u) + 3*f(2,u) + cartan(2,-1))"
    assert (x - x).terms == {} and (x - x).is_zero()


def test_melement_difference_is_exact():
    u = FormalNaturalVector("u", 2)
    x = MElement({("e", 1, u): Fraction(1, 3), ("h", 0): Fraction(1, 2)})
    y = MElement({("e", 1, u): Fraction(-2, 3), ("h", 0): Fraction(1, 2)})
    d = x - y
    assert d.terms == {("e", 1, u): 1} and type(d.terms[("e", 1, u)]) is int
    with pytest.raises(TypeError):
        x - 1


def test_vacuum_pair_degenerates_at_minus_one():
    vac = vacuum_vector()
    assert pairing_value(vac, vac) == -1
    gens = make_gl2(-1, vac, vac)
    assert gens.h1 == MElement.cartan_vector(0, -1)
    assert gens.h2 == MElement.cartan_vector(-1, 0)
    assert gens.h == MElement.cartan_vector(1, -1)
    assert gens.z == MElement.cartan_vector(1, 1)


# -- brackets -----------------------------------------------------------------


def test_bracket_e_f_gives_cartan():
    for j in (1, 2, 5):
        gens = make_gl2(j, *primary_pair(j))
        got = bracket(gens.e, gens.f)
        assert got == -1 * (j * gens.h1 + gens.h2)
        assert got.cartan == (1, j)
    with pytest.raises(TypeError, match="MElement"):
        bracket(1, gens.e)


def test_bracket_real_pair():
    gens = make_gl2(-1, vacuum_vector(), vacuum_vector())
    assert bracket(gens.e, gens.f) == gens.h1 - gens.h2


def test_cartan_vectors_commute():
    gens = make_gl2(2, *primary_pair(2))
    assert bracket(gens.h1, gens.h2).is_zero()
    assert bracket(gens.h2, gens.h1).is_zero()


def test_h2_eigenvalue_distinguishes_root_indices():
    for j in (1, 2, 3):
        gens = make_gl2(j, *primary_pair(j))
        assert bracket(gens.h2, gens.e) == j * gens.e
        assert bracket(gens.h2, gens.f) == -j * gens.f


def test_root_bookkeeping():
    j = 3
    gens = make_gl2(j, *primary_pair(j))
    (e_key,) = gens.e.terms
    (f_key,) = gens.f.terms
    assert e_key[:2] == ("e", j) and f_key[:2] == ("f", j)
    e_root = (1, j)
    f_root = (-1, -j)
    assert pairing(e_root, f_root) == 2 * j


CHEVALLEY_LABELS = (-1, *range(1, 41))


def test_chevalley_relations_across_simple_roots():
    """[h_i, e_k] = A(i,k) e_k, [h_i, f_k] = -A(i,k) f_k with h_i = [e_i, f_i],
    and [e_i, f_k] = 0 for i != k: each simple root under its own label."""
    gens = {i: make_gl2(i, *primary_pair(i, label=f"u{i}")) for i in CHEVALLEY_LABELS}
    h = {i: bracket(g.e, g.f) for i, g in gens.items()}
    zero = MElement.zero()
    for i, k in itertools.product(CHEVALLEY_LABELS, repeat=2):
        a, e, f = cartan_entry(i, k), gens[k].e, gens[k].f
        assert bracket(h[i], e) == a * e, (i, k)
        assert bracket(h[i], f) == -a * f, (i, k)
        if i != k:
            assert bracket(gens[i].e, f) == zero, (i, k)
    # two primaries of one weight that the form makes orthogonal
    for j in (1, 2, 5):
        table = {("u", "u"): 1, ("w", "w"): 1, ("u", "w"): 0}
        u = FormalNaturalVector("u", j + 1, pairings=table)
        w = FormalNaturalVector("w", j + 1, pairings=table)
        assert bracket(MElement({("e", j, u): 1}), MElement({("f", j, w): 1})) == zero


def test_cross_brackets_with_real_generators_vanish():
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())
    for j in (1, 2, 3):
        gens = make_gl2(j, *primary_pair(j))
        assert bracket(real.e, gens.f).is_zero()
        assert bracket(gens.e, real.f).is_zero()
        assert bracket(real.f, gens.e).is_zero()
        assert bracket(gens.f, real.e).is_zero()


def test_mixed_root_indices_bracket_to_zero():
    gens2 = make_gl2(2, *primary_pair(2, label="u"))
    gens3 = make_gl2(3, *primary_pair(3, label="w"))
    assert bracket(gens2.e, gens3.f).is_zero()
    assert bracket(gens3.e, gens2.f).is_zero()


def test_bracket_outside_span_raises():
    gens2 = make_gl2(2, *primary_pair(2, label="u"))
    gens3 = make_gl2(3, *primary_pair(3, label="w"))
    with pytest.raises(UnsupportedBracketError):
        bracket(gens2.e, gens3.e)
    with pytest.raises(UnsupportedBracketError):
        bracket(gens2.f, gens3.f)
    # real raising against imaginary raising at index 1 is a zero root space
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())
    gens1 = make_gl2(1, *primary_pair(1))
    assert bracket(real.e, gens1.e).is_zero()
    with pytest.raises(UnsupportedBracketError):
        bracket(real.e, gens2.e)


def single_terms(x):
    """x as a list of one-term elements: each e- and f-entry and each
    Cartan coordinate on its own."""
    return [MElement({k: c}) for k, c in x.terms.items()]


def test_bracket_is_bilinear_on_multi_term_elements():
    # two raising (or two lowering) generators over an imaginary root leave
    # the span, so x carries e and y carries f; real-root generators meet
    # everything in a zero or spanned root space
    rng = random.Random(61)
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())

    def combination(members):
        scalars = [Fraction(rng.choice((-5, -1, 1, 3)), rng.randint(1, 4)) for _ in members]
        return sum((c * g for c, g in zip(scalars, members)), MElement.zero())

    for j, norm in ((-1, 1), (1, Fraction(5, 3)), (2, 1), (5, Fraction(2, 7))):
        gens = real if j == -1 else make_gl2(j, *primary_pair(j, norm))
        extra = [real.e, real.f] if j in (-1, 1) else []
        for _ in range(3):
            x = combination([gens.e, gens.h1, gens.h2] + extra)
            y = combination([gens.f, gens.h1, gens.h2] + extra)
            assert {k[0] for k in x.terms} >= {"e", "h"}
            assert {k[0] for k in y.terms} >= {"f", "h"}
            for left, right in ((x, y), (y, x)):
                want = MElement.zero()
                for a, b in itertools.product(single_terms(left), single_terms(right)):
                    want = want + bracket(a, b)
                got = bracket(left, right)
                assert got == want, (j, left, right)
                assert not got.is_zero()
                assert_element_coefficient_form(got)


def test_multi_term_bracket_outside_span_raises():
    gens2 = make_gl2(2, *primary_pair(2, label="u"))
    gens3 = make_gl2(3, *primary_pair(3, label="w"))
    x = Fraction(1, 2) * gens2.e + gens2.f + Fraction(2, 3) * gens2.h1
    y = gens3.h2 + Fraction(3, 4) * gens3.e
    with pytest.raises(UnsupportedBracketError):
        bracket(x, y)
    with pytest.raises(UnsupportedBracketError):
        bracket(y, x)


def test_bracket_against_unpaired_symbol_names_both_labels():
    gens_u = make_gl2(1, *primary_pair(1, label="u"))
    gens_w = make_gl2(1, *primary_pair(1, label="w"))
    with pytest.raises(UnsupportedBracketError, match=r"pairing \(u, w\)"):
        bracket(gens_u.e, gens_w.f)
    with pytest.raises(UnsupportedBracketError, match=r"pairing \(w, u\)"):
        bracket(gens_w.f, gens_u.e)


def test_bracket_without_symbol_names_the_label():
    # a term key names its symbol, not a label: a label-keyed term (the
    # shape before symbols moved into the keys) is refused, naming the key
    for key in (("e", 1, "u"), ("f", 1, None), ("e", 1)):
        message = re.escape(f"term key {key!r} does not name a FormalNaturalVector")
        with pytest.raises(Gl2ValidationError, match=message):
            MElement({key: 1})


U1 = FormalNaturalVector("u", 2, pairings={("u", "u"): 1})
BAD_KEYS = {
    "h-negative-axis": (("h", -1), Gl2ValidationError),
    "h-axis-5": (("h", 5), Gl2ValidationError),
    "h-no-axis": (("h",), Gl2ValidationError),
    "h-bool-axis": (("h", True), Gl2ValidationError),
    "h-float-axis": (("h", 1.0), Gl2ValidationError),
    "unknown-kind": (("x", 1, U1), Gl2ValidationError),
    "empty-key": ((), Gl2ValidationError),
    "string-key": ("e", Gl2ValidationError),
    "root-index-0": (("e", 0, U1), Gl2ValidationError),
    "root-index-minus-3": (("f", -3, U1), Gl2ValidationError),
    "float-root-index": (("e", 1.5, U1), Gl2ValidationError),
    "bool-root-index": (("e", True, U1), Gl2ValidationError),
    "weight-mismatch": (("e", 2, U1), WeightMismatchError),
    "not-primary": (
        ("e", 1, FormalNaturalVector("u", 2, primary=False, pairings={("u", "u"): 1})),
        NotPrimaryError,
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_KEYS))
def test_melement_refuses_malformed_keys(name):
    # a key is ("h", 0), ("h", 1) or (e or f, root index j, primary weight j + 1 symbol)
    key, error = BAD_KEYS[name]
    with pytest.raises(error, match=re.escape(f"term key {key!r}")):
        MElement({key: 1})


def lattice_ratio(state, base):
    """The rational r with state == r * base (0 for the zero state)."""
    if state.is_zero():
        return 0
    key = next(iter(base.terms))
    ratio = Fraction(state.terms[key]) / base.terms[key]
    assert state == ratio * base, (state, base)
    return ratio


ORACLE_CARTANS = (
    (0, -1),
    (-1, 0),
    (3, 1),
    (Fraction(2, 3), Fraction(-5, 7)),
)


@pytest.mark.parametrize("j", [-1, *range(1, 21)])
def test_cartan_brackets_match_lattice_modes(j):
    # oracle: lam(0) on iota(root) for [h, x], and the x**-1 coefficient of
    # Y(iota(root), x) lam(-1)|0> for [x, h], whose x**-2 coefficient is zero
    gens = make_gl2(j, *primary_pair(j))
    for x, root in ((gens.e, (1, j)), (gens.f, (-1, -j))):
        a = section(*root)
        iota = FockState.iota(a)
        for lam in ORACLE_CARTANS:
            h = MElement.cartan_vector(*lam)
            zero_mode = lattice_ratio(heisenberg_apply(lam, 0, iota), iota)
            assert bracket(h, x) == zero_mode * x
            cartan_state = heisenberg_apply(lam, -1, FockState.vacuum())
            coeff = vertex_iota_coeff(a, cartan_state, -1)
            assert bracket(x, h) == lattice_ratio(coeff, iota) * x
            assert vertex_iota_coeff(a, cartan_state, -2).is_zero()
            for mu in ORACLE_CARTANS:
                assert heisenberg_apply(mu, 0, cartan_state).is_zero()


def test_bracket_builds_one_melement(monkeypatch):
    gens = make_gl2(1, *primary_pair(1))
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())
    x = Fraction(1, 2) * gens.e + gens.h1 + Fraction(-3, 4) * real.f
    y = gens.f + Fraction(2, 5) * gens.h2 + real.e
    calls = []
    original = MElement.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MElement, "__init__", counting)
    for left, right in ((gens.e, gens.f), (gens.h1, gens.e), (x, y)):
        calls.clear()
        bracket(left, right)
        assert len(calls) == 1, (left, right)


def test_gl2_elements_carry_their_symbols_in_their_keys():
    gens = make_gl2(2, *primary_pair(2, norm=3))
    e, f = gens.e, gens.f
    assert gens.v.scale == Fraction(1, 3)
    assert e.terms == {("e", 2, gens.u): 1} and f.terms == {("f", 2, gens.v.base()): Fraction(1, 3)}
    (e_key,), (f_key,) = e.terms, f.terms
    assert e_key[2] == f_key[2] == gens.u and f_key[2].scale == 1
    # brackets, sums and scalar multiples keep each term's symbol
    assert bracket(gens.h1, e) == e and bracket(f, gens.h2) == 2 * f
    assert set((e + 3 * f).terms) == {e_key, f_key}
    assert (e - Fraction(1, 2) * e).terms == {e_key: Fraction(1, 2)}
    assert 1 * e is e and e * 1 is e
    # a cross-relation reads no pairing, whatever the labels
    real = make_gl2(-1, vacuum_vector(), vacuum_vector())
    assert bracket(real.e, f).is_zero() and bracket(f, real.e).is_zero()


def test_melement_gates_the_keys_it_is_given():
    u = FormalNaturalVector("u", 2, pairings={("u", "u"): 1})
    # a key holds its symbol at scale 1, unchanged; a scaled symbol is
    # refused, naming the key, as the coefficient carries the scale
    x = MElement({("e", 1, u.rescaled(5).base()): 1, ("h", 0): 0})
    assert x.terms == {("e", 1, u): 1}
    (key,) = x.terms
    assert type(key[2].scale) is int
    assert MElement({("h", 0): 1}).terms == {("h", 0): 1}
    for scale in (5, -1, Fraction(1, 2)):
        key = ("e", 1, u.rescaled(scale))
        message = re.escape(f"term key {key!r} names a symbol at scale {scale}: ")
        with pytest.raises(Gl2ValidationError, match=message + "the coefficient carries the scale"):
            MElement({key: 1})
    # the partner of a norm-4 symbol is that symbol at scale 1/4
    u, v = primary_pair(2, 4)
    assert make_gl2(2, u, v).f == MElement({("f", 2, v.base()): Fraction(1, 4)})
    with pytest.raises(Gl2ValidationError, match="scale 1/4"):
        MElement({("f", 2, v): 1})


@pytest.mark.parametrize("j", [-1, 1, 2, 3])
@pytest.mark.parametrize("section_sign", [1, -1])
def test_gl2_generators_carry_the_scales_in_their_coefficients(j, section_sign):
    # the e and f of make_gl2 are the scale-1 generator keys times the
    # scales of u and v, up to the signs of the chosen section
    for norm in (1, 3, Fraction(2, 5)):
        u, v = primary_pair(j, norm)
        gens = make_gl2(j, u, v, section_sign)
        assert gens.e == section_sign * u.scale * MElement({("e", j, u.base()): 1})
        f_sign = section_sign * (-1) ** (j % 2)
        assert gens.f == f_sign * v.scale * MElement({("f", j, v.base()): 1})


def test_antisymmetry_on_computable_pairs():
    for j in (-1, 1, 2):
        gens = make_gl2(j, *primary_pair(j))
        members = [gens.e, gens.f, gens.h1, gens.h2]
        for x, y in itertools.product(members, repeat=2):
            try:
                xy = bracket(x, y)
            except UnsupportedBracketError:
                continue
            yx = bracket(y, x)
            assert xy == -1 * yx


def test_jacobi_identity_on_span():
    for j in (1, 3):
        gens = make_gl2(j, *primary_pair(j))
        members = [gens.e, gens.f, gens.h1, gens.h2]
        for x, y, z in itertools.product(members, repeat=3):
            try:
                total = (
                    bracket(x, bracket(y, z))
                    + bracket(y, bracket(z, x))
                    + bracket(z, bracket(x, y))
                )
            except UnsupportedBracketError:
                continue
            assert total.is_zero()


def test_section_flip_negates_generators_but_fixes_brackets():
    for j in (1, 2, 10):
        u, v = primary_pair(j)
        plus = make_gl2(j, u, v, section_sign=1)
        minus = make_gl2(j, u, v, section_sign=-1)
        assert minus.e == -1 * plus.e
        assert minus.f == -1 * plus.f
        assert bracket(minus.e, minus.f) == bracket(plus.e, plus.f)
        for h in (plus.h1, plus.h2):
            assert bracket(h, minus.e) == -1 * bracket(h, plus.e)


def test_bracket_scales_with_pairing_value():
    # u against an unnormalized w: the raising/lowering bracket scales by
    # the contraction, here (u,w) = 2 * (-1)**j with j = 1.
    j = 1
    u = FormalNaturalVector("u", 2, True, 1, {("u", "u"): 1, ("u", "w"): -2})
    w = FormalNaturalVector("w", 2, True, 1, {("w", "w"): 1})
    gens_u = make_gl2(j, u, normalize_partner(j, u))
    e_u = gens_u.e
    f_w = MElement({("f", j, w): Fraction(-1)})
    got = bracket(e_u, f_w)
    assert got == 2 * bracket(gens_u.e, gens_u.f)


# -- exact inputs --------------------------------------------------------------


EXACT_ENTRY_POINTS = {
    "section": lambda x: section(x, 0),
    "HatLatticeElement": lambda x: HatLatticeElement((x, 0)),
    "pairing": lambda x: pairing((x, 0), (0, 1)),
    "cocycle_sign": lambda x: cocycle_sign((x, 1), (1, 1)),
    "heisenberg_apply": lambda x: heisenberg_apply((x, 0), -1, FockState.vacuum()),
    "schur_apply": lambda x: schur_apply((x, 0), 2, FockState.vacuum()),
    "FockState": lambda x: FockState({((), (0, 0)): x}),
    "FockState.__rmul__": lambda x: x * FockState.vacuum(),
    "primary_pair": lambda x: primary_pair(3, norm=x),
    "FormalNaturalVector": lambda x: FormalNaturalVector("u", 2, scale=x),
    "FormalNaturalVector.rescaled": lambda x: FormalNaturalVector("u", 2).rescaled(x),
    "normalize_partner": lambda x: normalize_partner(
        1, FormalNaturalVector("u", 2, pairings={("u", "u"): x})
    ),
    "MElement.__rmul__": lambda x: x * MElement.cartan_vector(1, 2),
}


@pytest.mark.parametrize("value", [0.5, 0.1, "1/2", True])
@pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
def test_exact_entry_points_reject_inexact_numbers(entry, value):
    message = f"expected an exact rational, got {type(value).__name__}"
    with pytest.raises(TypeError, match=message):
        EXACT_ENTRY_POINTS[entry](value)


def series_entry_point(x):
    """A q-series coefficient: the integer gate `_int`, not the rational one."""
    return QSeries(0, [1, x])


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, 0.1, "1/2", True])
def test_series_coefficients_must_be_ints(value):
    message = f"coefficient must be an int, got {type(value).__name__}"
    with pytest.raises(TypeError, match=message):
        series_entry_point(value)


def test_series_inverse_needs_a_unit_leading_coefficient():
    # over the integers 1 / (2 + q) does not exist
    with pytest.raises(NotInvertibleError):
        QSeries(0, [2, 1]).invert()


def test_readme_lists_only_gated_pair_entry_points():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    sentence = re.search(r"lattice point a pair of `int`s:(.*?) take pairs", text, re.S)
    assert sentence, "README no longer lists the lattice entry points that take pairs"
    names = re.findall(r"`([^`]+)`", sentence.group(1))
    assert names and set(names) <= set(EXACT_ENTRY_POINTS), names


@pytest.mark.parametrize("weight", [True, 2.5, 2.0, "3"])
def test_symbol_weight_must_be_an_int(weight):
    with pytest.raises(TypeError, match="weight must be an int"):
        FormalNaturalVector("u", weight)


class Int(int):
    """An int subclass other than bool: read as the plain int it equals."""


INT_ENTRY_POINTS = {**EXACT_ENTRY_POINTS, "QSeries": series_entry_point}


@pytest.mark.parametrize("entry", sorted(INT_ENTRY_POINTS))
def test_exact_entry_points_read_int_subclasses_as_int(entry):
    assert INT_ENTRY_POINTS[entry](Int(3)) == INT_ENTRY_POINTS[entry](3)


def test_integer_gates_read_int_subclasses_as_int():
    # the root index, the two signs and the creation factors are stored as
    # the plain ints they equal
    assert primary_pair(Int(2)) == primary_pair(2)
    gens = make_gl2(Int(1), *primary_pair(1), section_sign=Int(-1))
    assert gens == make_gl2(1, *primary_pair(1), section_sign=-1) and type(gens.j) is int
    assert cartan_entry(Int(1), Int(2)) == -3
    assert type(cartan_entry(Int(2), Int(3))) is int
    (size,) = cartan_block_sizes([Int(2)])
    assert size == 21493760 and type(size) is int
    assert normalize_partner(Int(1), U1) == normalize_partner(1, U1)
    a = section(1, 0, Int(-1))
    assert a == section(1, 0, -1) and type(a.sign) is int
    state = FockState({(((Int(0), Int(1)),), (0, 0)): 1})
    assert state == FockState({(((0, 1),), (0, 0)): 1})
    (((factor,), _),) = state.numer
    assert all(type(x) is int for x in factor)
    (key,) = MElement({("e", Int(1), U1): 1}).numer
    assert key == ("e", 1, U1) and type(key[1]) is int


def dataset_object(**fields):
    """The trivial dataset as Python objects, its one class's fields replaced."""
    obj = to_jsonable(trivial_dataset())
    obj["classes"][0].update(fields)
    return obj


# the Cartan axis, a parsed dataset's integers and a Schur order are stored
# as the plain ints they equal, not as the subclass given


def test_the_cartan_axis_is_stored_as_a_plain_int():
    element = MElement({("h", Int(0)): 1})
    assert element == MElement({("h", 0): 1})
    ((_, axis),) = element.numer
    assert type(axis) is int


def test_a_parsed_dataset_stores_plain_ints():
    seeds = {Int(k): Int(c) for k, c in trivial_dataset().classes[0].seeds.items()}
    obj = dataset_object(class_size=Int(1), seeds=seeds)
    obj["group_order"] = Int(1)
    dataset = parse_dataset(obj)
    assert dataset == trivial_dataset()
    (record,) = dataset.classes
    assert type(dataset.group_order) is int and type(record.class_size) is int
    assert all(type(k) is int and type(c) is int for k, c in record.seeds.items())


def test_the_schur_levels_are_keyed_by_plain_ints(monkeypatch):
    monkeypatch.setattr(lattice, "_SCHUR_LEVELS", {})
    vac = FockState.vacuum()
    assert schur_apply((1, 0), Int(3), vac) == schur_apply((1, 0), 3, vac)
    assert lattice._SCHUR_LEVELS and all(type(r) is int for r in lattice._SCHUR_LEVELS)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: MElement({("h", True): 1}),
            Gl2ValidationError,
            "term key ('h', True) is not ('h', 0) or ('h', 1)",
        ),
        (
            lambda: parse_dataset(dataset_object(class_size=True)),
            DatasetError,
            "class 1A: class_size is True, not an int",
        ),
        (
            lambda: parse_dataset(
                dataset_object(seeds={**dataset_object()["classes"][0]["seeds"], "2": True})
            ),
            DatasetError,
            "class 1A: seed 2 is True, not an int",
        ),
        (
            lambda: schur_apply((1, 0), True, FockState.vacuum()),
            TypeError,
            "r must be an int, got bool",
        ),
        (lambda: QSeries(0, [1, 1]) ** True, TypeError, "series powers must be integers"),
        (
            lambda: eta_quotient({True: 1}, 3),
            ValueError,
            "eta_quotient: exponent True: 1 needs int d >= 1 and int r",
        ),
        (
            lambda: eta_quotient({1: True}, 3),
            ValueError,
            "eta_quotient: exponent 1: True needs int d >= 1 and int r",
        ),
        (lambda: pairing((True, 0), (0, 1)), TypeError, "expected an exact rational, got bool"),
    ],
    ids=["cartan-axis", "class-size", "seed", "schur-order", "series-power",
         "eta-d", "eta-r", "coefficient"],
)
def test_integer_gates_still_refuse_bool(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("j", [0, True, -7, 1.5])
def test_normalize_partner_needs_a_root_index(j):
    message = f"root index must be -1 or a positive integer, got {j}"
    with pytest.raises(Gl2ValidationError, match=re.escape(message)):
        normalize_partner(j, U1)


def test_symbol_weight_reads_an_int_subclass_as_int():
    u = FormalNaturalVector("u", Int(2))
    assert u == FormalNaturalVector("u", 2) and type(u.weight) is int


# -- coefficient form ------------------------------------------------------------


def assert_coefficient_form(value):
    """A plain int, or a Fraction only when not integral; never a float."""
    assert type(value) is int or (type(value) is Fraction and value.denominator > 1), value


def assert_element_coefficient_form(x):
    for c in x.terms.values():
        assert c != 0
        assert_coefficient_form(c)
    for c in x.cartan:
        assert_coefficient_form(c)


def test_gl2_values_are_in_coefficient_form():
    for j in (-1, 1, 2, 3, 7):
        for norm in (1, 2, Fraction(1, 3), Fraction(5, 2)):
            u, v = primary_pair(j, norm)
            for symbol in (u, v):
                assert_coefficient_form(symbol.scale)
                for value in symbol.pairings.values():
                    assert_coefficient_form(value)
            gens = make_gl2(j, u, v)
            elements = (gens.e, gens.f, gens.h1, gens.h2, gens.h, gens.z)
            for x in elements:
                assert_element_coefficient_form(x)
            for x, y in itertools.product(elements, repeat=2):
                if x is y and x in (gens.e, gens.f):
                    continue  # lands outside the modeled span for j >= 1
                assert_element_coefficient_form(bracket(x, y))
            assert verify_relations(j, u, v).all_passed


TERM_SUM_KEYS = {
    "FockState": (FockState, (((), (1, 0)), (((0, 1),), (0, 1)), (((0, 1), (1, 2)), (1, 1)))),
    "MElement": (
        MElement,
        (("e", 1, FormalNaturalVector("u", 2)), ("f", 1, FormalNaturalVector("u", 2)), ("h", 0)),
    ),
}


@pytest.mark.parametrize("kind", sorted(TERM_SUM_KEYS))
def test_term_sums_match_a_fraction_reference(kind):
    cls, (k0, k1, k2) = TERM_SUM_KEYS[kind]
    x = {k0: Fraction(1, 2), k1: 3}
    y = {k0: Fraction(1, 2), k2: Fraction(-2, 3)}
    a, b = cls(x), cls(y)

    def reference(*parts):
        out = {}
        for scale, terms in parts:
            for key, c in terms.items():
                out[key] = out.get(key, Fraction(0)) + Fraction(scale) * Fraction(c)
        return {key: c for key, c in out.items() if c}

    cases = [
        (a + b, reference((1, x), (1, y))),  # 1/2 + 1/2; k1, k2 on one side only
        (a - b, reference((1, x), (-1, y))),  # 1/2 - 1/2 cancels
        (b - a, reference((1, y), (-1, x))),
        (-1 * a, reference((-1, x))),
        (Fraction(2, 3) * a, reference((Fraction(2, 3), x))),  # 2/3 * 3 = 2
        (a + Fraction(-3, 2) * b, reference((1, x), (Fraction(-3, 2), y))),
        (b * 2 - a, reference((2, y), (-1, x))),
    ]
    for got, want in cases:
        assert got.terms == want
        for c in got.terms.values():
            assert c != 0
            assert_coefficient_form(c)
    assert type((a + b).terms[k0]) is int and (a + b).terms[k0] == 1
    assert k0 not in (a - b).terms
    assert type((Fraction(2, 3) * a).terms[k1]) is int


def test_base_of_negated_symbol_is_exact():
    base = FormalNaturalVector("w", 2, scale=-1).base()
    assert base.scale == 1
    assert type(base.scale) is int


def test_normalize_partner_with_int_scale():
    u = FormalNaturalVector("u", 3, scale=2, pairings={("u", "u"): 1})  # (u,u) = 4
    v = normalize_partner(2, u)
    assert v.scale == Fraction(1, 2)
    assert pairing_value(u, v) == 1


def test_verify_relations_on_unit_scales():
    for j in (-1, *range(1, 41)):
        u, v = primary_pair(j, norm=1)
        assert type(v.scale) is int and abs(v.scale) == 1
        assert verify_relations(j, u, v).all_passed, j


# -- relation reports ----------------------------------------------------------


def test_verify_relations_all_pass():
    for j in (-1, 1, 2, 3, 10):
        report = verify_relations(j, *primary_pair(j))
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_verify_relations_core_count():
    report = verify_relations(2, *primary_pair(2))
    passed, total = report.count("core")
    assert (passed, total) == (6, 6)
    assert "6/6 relations pass" in report.summary_lines()


def test_verify_relations_sl2_triple_at_real_root():
    report = verify_relations(-1, vacuum_vector(), vacuum_vector())
    sl2 = [c for c in report.checks if c.category == "sl2"]
    assert len(sl2) == 3 and all(c.passed for c in sl2)


def test_verify_relations_cross_relations():
    report = verify_relations(3, *primary_pair(3))
    cross = [c for c in report.checks if c.category == "cross"]
    assert len(cross) == 4 and all(c.passed for c in cross)


def test_verify_relations_builds_one_gl2_per_call(monkeypatch):
    # the real-root generators of the cross-relations are built once
    import monsterlie.gl2

    calls = []
    original = monsterlie.gl2.make_gl2

    def counting(j, *args, **kwargs):
        calls.append(j)
        return original(j, *args, **kwargs)

    monkeypatch.setattr(monsterlie.gl2, "make_gl2", counting)
    for j in (1, 2, 5):
        calls.clear()
        assert verify_relations(j, *primary_pair(j)).all_passed
        assert calls == [j]


def test_verify_relations_on_the_benchmark_input_shape():
    # a short sweep over the inputs of the gl2 benchmark job: every norm it
    # draws, one non-integral norm, and both lifts of each root
    h1, h2 = MElement.cartan_vector(0, -1), MElement.cartan_vector(-1, 0)
    for j in (-1, *range(1, 61)):
        for norm in (*range(1, 10), Fraction(5, 2)):
            for sign in (1, -1):
                u, v = primary_pair(j, norm)
                report = verify_relations(j, u, v, section_sign=sign)
                assert report.all_passed, (j, norm, sign)
                assert len(report.checks) == (9 if j == -1 else 10)
                gens = make_gl2(j, u, v, section_sign=sign)
                assert (gens.h1, gens.h2) == (h1, h2)
                cartan = bracket(gens.e, gens.f).cartan
                assert cartan == (1, j) and [type(c) for c in cartan] == [int, int]


def test_relations_hold_under_flipped_section():
    for j in (-1, 2, 3):
        report = verify_relations(j, *primary_pair(j), section_sign=-1)
        assert report.all_passed


# -- primality of representatives ----------------------------------------------


def test_independent_pair_with_cross_pairing():
    # u and w need not be proportional; only (u,w) = (-1)**j matters
    table = {("u", "u"): 3, ("w", "w"): 5, ("u", "w"): 1}
    u = FormalNaturalVector("u", 3, True, 1, table)
    w = FormalNaturalVector("w", 3, True, 1, table)
    report = verify_relations(2, u, w)
    assert report.all_passed
    odd_table = {("u", "u"): 3, ("w", "w"): 5, ("u", "w"): -1}
    u1 = FormalNaturalVector("u", 2, True, 1, odd_table)
    w1 = FormalNaturalVector("w", 2, True, 1, odd_table)
    assert verify_relations(1, u1, w1).all_passed


def test_representatives_are_primary():
    for j in (-1, 1, 5):
        u, _ = primary_pair(j)
        assert primality_of_representatives(j, u)


def test_non_primary_representative_rejected():
    bad = FormalNaturalVector("u", 2, primary=False, pairings={("u", "u"): 1})
    assert not primality_of_representatives(1, bad)


def test_representative_of_the_wrong_weight_rejected():
    u, _ = primary_pair(2)  # weight 3, the weight of root (1, 2)
    assert primality_of_representatives(2, u)
    assert not primality_of_representatives(1, u)


# -- golden bracket digest -------------------------------------------------------


GOLDEN_BRACKET_LABELS = ("u", "w", "x")
GOLDEN_BRACKET_INDICES = (-1, 1, 2, 3, 5)
GOLDEN_BRACKET_NORMS = (1, 2, Fraction(1, 3), Fraction(5, 2))
GOLDEN_BRACKET_GENERATORS = {
    (label, j, norm): make_gl2(j, *primary_pair(j, norm, label))
    for label in GOLDEN_BRACKET_LABELS
    for j in GOLDEN_BRACKET_INDICES
    for norm in GOLDEN_BRACKET_NORMS
}


def golden_bracket_lines(seed=2024, count=2000):
    """One line per bracket of random multi-term combinations: the repr of
    each input and of the result, or the error type name of a failure.
    Error texts are left out, as they name whichever failing term pair is
    reached first."""
    rng = random.Random(seed)

    def pool():
        # per label one root index and norm; x and y drawn from two pools
        # sometimes meet one label under two weights or pairing tables
        members = []
        for label in GOLDEN_BRACKET_LABELS:
            j = rng.choice(GOLDEN_BRACKET_INDICES)
            norm = rng.choice(GOLDEN_BRACKET_NORMS)
            gens = GOLDEN_BRACKET_GENERATORS[label, j, norm]
            members += [gens.e, gens.f, gens.h1, gens.h2]
        return members

    def combination(members):
        out = MElement.zero()
        for g in rng.sample(members, rng.randint(1, 4)):
            out = out + Fraction(rng.randint(-6, 6), rng.randint(1, 5)) * g
        return out

    lines = []
    for _ in range(count):
        members = pool()
        x = combination(members)
        y = combination(pool() if rng.random() < 0.15 else members)
        try:
            result = repr(bracket(x, y))
        except (Gl2ValidationError, UnsupportedBracketError) as exc:
            result = type(exc).__name__
        lines.append(f"[{x!r}, {y!r}] = {result}")
    return lines


def test_golden_bracket_digest():
    lines = golden_bracket_lines()
    failures = sum(line.endswith("Error") for line in lines)
    assert 0 < failures < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_BRACKET_DIGEST


GOLDEN_BRACKET_DIGEST = "5cdd5d7bc920315203e3ffe0a76325bf23db766c20187c334b1ec859c599d23a"
