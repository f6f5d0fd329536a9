import json
from fractions import Fraction

import pytest

from monsterlie.dataset import (
    ClassRecord,
    Dataset,
    DatasetError,
    load_dataset,
    parse_dataset,
    save_dataset,
    to_jsonable,
    trivial_dataset,
)
from monsterlie.qseries import (
    IntegralityError,
    _primary_dims,
    euler_product,
    j_series,
    mckay_thompson,
    primary_dim_series,
)
from monsterlie.replication import (
    CoefficientTable,
    multiplicity,
    nontriviality_report,
    replicate_extend,
)
from test_acceptance import DIM_MULT_TABLE
from test_qseries import check_least_value, times


def two_class_dataset(seeds_b, power2_b="2Z"):
    obj = json.loads(json.dumps(to_jsonable(trivial_dataset())))
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "7",
            "power2": power2_b,
            "seeds": {str(k): str(v) for k, v in seeds_b.items()},
        }
    )
    obj["group_order"] = "8"
    return parse_dataset(obj)


# S3 acting through 1A, 2B (squares to 1A) and 3B (squares to 3B)
S3_CLASSES = [("1A", 1, "1A"), ("2B", 3, "1A"), ("3B", 2, "3B")]
# Z/2 = {1, g} through 1A and 2B (squares to 1A); character 2 sends g to -1
Z2_CLASSES = [("1A", 1, "1A"), ("2B", 1, "1A")]
Z2_CHARACTERS = {"2": {"1A": 1, "2B": -1}}
# Z/4 = {1, g, g^2, g^3} through 1A, 2B (g^2, squares to 1A) and 4C (g and
# g^3, squares to 2B); character 2 sends g to -1
Z4_CLASSES = [("1A", 1, "1A"), ("2B", 1, "1A"), ("4C", 2, "2B")]
Z4_CHARACTERS = {"2": {"1A": 1, "2B": 1, "4C": -1}}
# the sign character and the two-dimensional irreducible of S3
S3_CHARACTERS = {"2": {"1A": 1, "2B": -1, "3B": 1}, "3": {"1A": 2, "2B": 0, "3B": -1}}


def group_object(classes, traces, characters=None):
    """Dataset JSON for (name, size, square class) triples, each class
    seeded from its series in `traces`."""
    obj = {
        "classes": [
            {
                "name": name,
                "class_size": str(size),
                "power2": square,
                "seeds": {str(k): str(traces[name].coeff(k)) for k in (-1, 1, 2, 3, 5)},
            }
            for name, size, square in classes
        ],
        "group_order": str(sum(size for _, size, _ in classes)),
    }
    if characters is not None:
        obj["characters"] = characters
    return obj


def group_dataset(classes, traces, characters=None):
    return parse_dataset(group_object(classes, traces, characters))


def test_cross_class_rows_match_eta_quotients():
    # in S3, 2B squares into another class and 3B into itself, so both the
    # stride-4 C(g^2, i) sums and the alternating sums see real data; Z/2
    # adds a second class of size 1, Z/4 a class whose square chain is two
    # steps long, and the Z/p datasets run the recursions on every other
    # eta-quotient class.  At order 600 a reversed slice whose stop fell to
    # -1 would read an empty or a wrapped range long before the last index
    order = 600
    traces = {
        "1A": j_series(order),
        "2B": mckay_thompson("2B", order),
        "3B": mckay_thompson("3B", order),
        "4C": mckay_thompson("4C", order),
    }
    assert [traces["2B"].coeff(n) for n in (-1, 0, 1, 2)] == [1, 0, 276, -2048]
    assert [traces["3B"].coeff(n) for n in (-1, 0, 1, 2)] == [1, 0, 54, -76]
    cases = [
        (group_dataset(classes, traces, characters), characters)
        for classes, characters in (
            (S3_CLASSES, S3_CHARACTERS),
            (Z2_CLASSES, Z2_CHARACTERS),
            (Z4_CLASSES, Z4_CHARACTERS),
        )
    ]
    for name in ("3B", "5B", "7B", "13B"):
        # Z/p acting through 1A and the class pB of its p - 1 generators
        traces.setdefault(name, mckay_thompson(name, order))
        p = int(name[:-1])
        classes = [("1A", 1, "1A"), (name, p - 1, name)]
        cases.append((group_dataset(classes, traces), {}))
    for d, characters in cases:
        table = replicate_extend(d, order)
        for record in d.classes:
            row = [traces[record.name].coeff(n) for n in range(1, order + 1)]
            assert table.rows[record.name] == row, f"class {record.name} differs from its series"
        for k in (1, *map(int, characters)):
            mults = [multiplicity(d, table, k, j) for j in range(1, order + 1)]
            assert min(mults) >= 0


def test_cyclic_group_of_order_four_fills_its_square_chain():
    # 4C -> 2B -> 1A is a two-step square chain: a 4C row filled to k reads
    # 2B to k/2, which reads 1A to k/4
    order = 400
    traces = {
        "1A": j_series(order),
        "2B": mckay_thompson("2B", order),
        "4C": mckay_thompson("4C", order),
    }
    d = group_dataset(Z4_CLASSES, traces, Z4_CHARACTERS)
    table = replicate_extend(d, order)
    for name, series in traces.items():
        assert table.rows[name] == [series.coeff(n) for n in range(1, order + 1)], name
    for j in range(1, order + 1):
        dim, t2, t4 = (traces[name].coeff(j) for name in ("1A", "2B", "4C"))
        assert 4 * multiplicity(d, table, 1, j) == dim + t2 + 2 * t4
        assert 4 * multiplicity(d, table, 2, j) == dim + t2 - 2 * t4

    chain = replicate_extend(d, order, ["4C"])
    assert {name: len(row) for name, row in chain.rows.items()} == {
        "1A": 100,
        "2B": 200,
        "4C": 400,
    }
    for name, row in chain.rows.items():
        assert row == table.rows[name][: len(row)], name


def test_class_subsets_match_the_full_table():
    top = 911
    traces = {
        "1A": j_series(top),
        "2B": mckay_thompson("2B", top),
        "3B": mckay_thompson("3B", top),
    }
    d = group_dataset(S3_CLASSES, traces)
    for order in (*range(5, 14), 50, 200, top):
        full = replicate_extend(d, order)
        for name in traces:
            table = replicate_extend(d, order, [name])
            assert table.rows[name] == full.rows[name], (name, order)
            for j in (1, order):
                assert table.value(name, j) == full.value(name, j)


def test_lookups_outside_the_filled_rows_name_the_class():
    traces = {"1A": j_series(50), "2B": mckay_thompson("2B", 50), "3B": mckay_thompson("3B", 50)}
    table = replicate_extend(group_dataset(S3_CLASSES, traces), 40, ["2B"])
    assert table.value("1A", 20) == traces["1A"].coeff(20)
    with pytest.raises(IndexError, match="index 21 of class 1A is outside the order 20"):
        table.value("1A", 21)
    with pytest.raises(IndexError, match="index 1 of class 3B is outside the order 0"):
        table.value("3B", 1)


def test_short_square_row_is_an_error_not_a_truncated_sum(monkeypatch):
    # a 2B row filled to 40 reads 1A to index 19 at n = 39; a 1A row cut
    # at 18 must stop the fill rather than shorten a slice
    import monsterlie.replication

    traces = {"1A": j_series(50), "2B": mckay_thompson("2B", 50), "3B": mckay_thompson("3B", 50)}
    monkeypatch.setattr(
        monsterlie.replication, "_fill_orders", lambda *args: {"1A": 18, "2B": 40}
    )
    with pytest.raises(IndexError, match="class 2B reads index 19 of square class 1A"):
        replicate_extend(group_dataset(S3_CLASSES, traces), 40, ["2B"])


def test_each_pair_sum_is_formed_once_per_class(monkeypatch):
    # each P(k) = sum_{1<=i<k/2} C(g,i) C(g,k-i) is formed at most once per
    # class: S(k) is read at n = 2k - 3 and n = 2k, and P(2m) comes from the
    # products of the alternating sum at n = 2m + 1; forming every P(k) at
    # each read makes 12,199 products here
    import monsterlie.replication

    products = 0

    def counted(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(monsterlie.replication, "mul", counted)
    table = replicate_extend(trivial_dataset(), 200)
    assert products == 8527
    j = j_series(200)
    assert table.rows["1A"] == [j.coeff(n) for n in range(1, 201)]


def test_cyclic_group_of_order_two_has_integral_multiplicities():
    # Z/2 = {1A, 2B}: two classes of size 1, told apart by 2B squaring to
    # 1A; the +-1 eigenspaces of 2B have dimensions (d + t)/2 and (d - t)/2
    order = 300
    traces = {
        "1A": j_series(order),
        "2B": mckay_thompson("2B", order),
    }
    d = parse_dataset(
        {
            "classes": [
                {
                    "name": name,
                    "class_size": "1",
                    "power2": "1A",
                    "seeds": {
                        str(k): str(traces[name].coeff(k)) for k in (-1, 1, 2, 3, 5)
                    },
                }
                for name in ("1A", "2B")
            ],
            "characters": {"2": {"1A": 1, "2B": -1}},
        }
    )
    assert d.identity_class().name == "1A"
    table = replicate_extend(d, order)
    for j in range(1, order + 1):
        dim, trace = traces["1A"].coeff(j), traces["2B"].coeff(j)
        assert table.value("2B", j) == trace
        assert 2 * multiplicity(d, table, 1, j) == dim + trace
        assert 2 * multiplicity(d, table, 2, j) == dim - trace


def test_character_block_round_trips_through_a_file(tmp_path):
    # the Z/2 dataset above, its character 2 written as decimal strings
    traces = {"1A": j_series(6), "2B": mckay_thompson("2B", 6)}
    d = group_dataset(Z2_CLASSES, traces, Z2_CHARACTERS)
    path = tmp_path / "z2.json"
    save_dataset(d, path)
    assert load_dataset(path) == d
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["characters"] == {"2": {"1A": "1", "2B": "-1"}}
    values = [written["group_order"], *written["characters"]["2"].values()]
    for record in written["classes"]:
        values += [record["class_size"], *record["seeds"].values()]
    assert len(values) == 15
    assert all(type(v) is str and v == str(int(v)) for v in values), values


def test_identity_row_matches_modular_invariant():
    order = 600
    table = replicate_extend(trivial_dataset(), order)
    j = j_series(order)
    for n in range(1, order + 1):
        assert table.value("1A", n) == j.coeff(n), f"identity row differs at {n}"


def test_fourth_coefficient_formula():
    table = replicate_extend(trivial_dataset(), 5)
    c = lambda n: table.value("1A", n)
    assert c(4) == c(3) + (c(1) ** 2 - c(1)) // 2


def test_seed_five_is_never_recomputed():
    # bump the 5-seed: extension must keep it verbatim (5 is a seed, the
    # recursion instance there is vacuous)
    obj = json.loads(json.dumps(to_jsonable(trivial_dataset())))
    d = parse_dataset(obj)
    record = d.classes[0]
    record.seeds[5] += 2  # bypasses file validation on purpose
    table = replicate_extend(d, 8)
    assert table.value("1A", 5) == record.seeds[5]


def test_zero_seeded_class_stays_zero():
    seeds = {-1: 1, 1: 0, 2: 0, 3: 0, 5: 0}
    d = two_class_dataset(seeds)
    table = replicate_extend(d, 40)
    assert all(table.value("2Z", n) == 0 for n in range(1, 41))


def test_extension_is_idempotent_from_computed_seeds():
    d = trivial_dataset()
    table = replicate_extend(d, 50)
    # re-seed from the computed row and extend again: same values
    reseeded = trivial_dataset()
    for k in (1, 2, 3, 5):
        assert reseeded.classes[0].seeds[k] == table.value("1A", k)
    again = replicate_extend(reseeded, 50)
    assert again.rows == table.rows


def test_convention_values_at_low_indices():
    table = replicate_extend(trivial_dataset(), 5)
    assert table.value("1A", 0) == 0
    assert table.value("1A", -1) == 1
    with pytest.raises(IndexError, match="index -2 of class 1A is outside the order 5"):
        table.value("1A", -2)


def test_order_below_five_rejected():
    # the seeds reach index 5, so an order of 1 to 4 fills every row to 5;
    # an order below 1 asks for no row
    d = seeded_dataset(Z2_CLASSES)
    five = replicate_extend(d, 5)
    for order in range(1, 5):
        table = replicate_extend(d, order)
        assert table.order == 5 and table.rows == five.rows
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be at least 1"):
            replicate_extend(d, order)


def test_an_unknown_class_is_named():
    # a class the dataset lacks is a dataset problem, judged before any row is filled
    with pytest.raises(DatasetError) as err:
        replicate_extend(trivial_dataset(), 10, ["9Z"])
    assert err.value.args == ("unknown class '9Z'",)


def test_classes_is_a_collection_of_str_names():
    # a bare str would be read letter by letter, and an entry that is not a
    # str, such as an unhashable list, is an unknown class
    with pytest.raises(TypeError, match="classes must be a collection of class names"):
        replicate_extend(trivial_dataset(), 10, "1A")
    with pytest.raises(DatasetError) as err:
        replicate_extend(trivial_dataset(), 10, [["1A"]])
    assert err.value.args == ("unknown class ['1A']",)


@pytest.mark.parametrize("j", [True, 1.0, "1"])
def test_table_value_reads_j_as_an_int(j):
    # True is not C(1), and a float index is named rather than ending in a
    # bare list-index error
    table = replicate_extend(trivial_dataset(), 5)
    with pytest.raises(TypeError, match=f"j must be an int, got {type(j).__name__}"):
        table.value("1A", j)


def test_odd_halving_names_class_and_index():
    # seeds engineered so C(g,1)^2 - C(g^2,1) is odd at the first halving:
    # class 2Z squares to 1A, C(2Z,1)=2, C(1A,1)=196884 -> 4 - 196884 even;
    # use C(2Z,1)=1 against square 2Z-candidate... simplest: square to 1A
    # with C(2Z,1) even makes it odd? 196884 is even, so pick C(2Z,1) odd.
    seeds = {-1: 1, 1: 3, 2: 0, 3: 0, 5: 0}
    d = two_class_dataset(seeds, power2_b="1A")
    with pytest.raises(IntegralityError) as err:
        replicate_extend(d, 6)
    assert "2Z" in str(err.value) and "4" in str(err.value)


def test_multiplicity_index_must_lie_in_the_table():
    d = trivial_dataset()
    table = replicate_extend(d, 6)
    for j in (0, 7):
        with pytest.raises(IndexError, match=f"index {j} outside the computed order 6"):
            multiplicity(d, table, 1, j)


def test_negative_multiplicity_is_an_error():
    # the Dataset checks read no trace of a class but the identity: sizes 1 and 1 with
    # C(2Z, 1) = -196886 put -2 / 2 = -1 copies of the trivial character at j = 1
    identity = trivial_dataset().classes[0]
    seeds = {**identity.seeds, 1: -196886}
    d = Dataset([identity, ClassRecord("2Z", 1, "1A", seeds)], 2)
    table = replicate_extend(d, 5)
    with pytest.raises(IntegralityError, match="irreducible 1 at index 1 is negative"):
        multiplicity(d, table, 1, 1)


def test_multiplicity_on_trivial_group_is_the_trace():
    d = trivial_dataset()
    table = replicate_extend(d, 30)
    for j in (1, 2, 7, 30):
        assert multiplicity(d, table, 1, j) == table.value("1A", j)


def test_multiplicity_integrality_tripwire():
    # two classes, no character data needed for k=1: sizes 1 and 7 with a
    # stray odd trace make the orthogonality sum indivisible by 8
    seeds = {-1: 1, 1: 1, 2: 0, 3: 0, 5: 0}
    d = two_class_dataset(seeds)
    table = replicate_extend(d, 6)
    with pytest.raises(IntegralityError, match="index 1"):
        multiplicity(d, table, 1, 1)


def test_multiplicity_requires_character_block_beyond_trivial():
    d = trivial_dataset()
    table = replicate_extend(d, 6)
    with pytest.raises(DatasetError) as err:
        multiplicity(d, table, 2, 1)
    assert err.value.args == ("character values for irreducible 2 are not in the dataset",)


def test_multiplicity_with_character_block():
    # Z/2's sign character: mult_2 = (C(1A, j) - C(2B, j)) / 2
    d = seeded_dataset(Z2_CLASSES, {"1": {"1A": "1", "2B": "1"}, **Z2_CHARACTERS})
    table = replicate_extend(d, 6)
    for j in range(1, 7):
        difference = table.value("1A", j) - table.value("2B", j)
        assert 2 * multiplicity(d, table, 2, j) == difference


def test_nontriviality_report_on_trivial_group():
    d = trivial_dataset()
    rows = nontriviality_report(d, 10)
    assert [r.j for r in rows] == list(range(1, 11))
    table = replicate_extend(d, 10)
    for row in rows:
        assert row.trivial_multiplicity == table.value("1A", row.j)
        # the trivial group fixes every primary vector
        assert row.dim_fixed == row.dim_primary
        assert row.verdict == "trivial"
        assert not row.holds


def seeded_object(classes, characters=None):
    """Group dataset JSON whose classes take their seeds from the series of
    J (1A) and of the eta-quotient classes."""
    traces = {name: j_series(5) if name == "1A" else mckay_thompson(name, 5) for name, _, _ in classes}
    return group_object(classes, traces, characters)


def seeded_dataset(classes, characters=None):
    return parse_dataset(seeded_object(classes, characters))


def test_the_monster_fixes_no_primary_vector_of_weight_below_twelve():
    # the report's map on the Monster's trivial-multiplicity column
    assert [j for j, _, _ in DIM_MULT_TABLE] == list(range(1, 44))
    fixed = _primary_dims([1, 0, *(mult for _, _, mult in DIM_MULT_TABLE)], 44)
    column = [fixed.coeff(j) for j in range(1, 44)]
    assert column[:10] == [0] * 10
    assert column[10] == 1 and column[42] == 63
    assert min(column) == 0


def primary_table(d, order):
    """Oracle: every class row mapped to its traces on primaries, one
    `_primary_dims` per class, as a table `multiplicity` reads unchanged."""
    table = replicate_extend(d, order)
    rows = {}
    for name, row in table.rows.items():
        series = _primary_dims([1, 0, *row], order + 1)
        rows[name] = [series.coeff(j) for j in range(1, order + 1)]
    return CoefficientTable(order, rows)


@pytest.mark.parametrize(
    "classes, characters",
    [(Z2_CLASSES, Z2_CHARACTERS), (Z4_CLASSES, None), (S3_CLASSES, S3_CHARACTERS)],
    ids=["Z2", "Z4", "S3"],
)
def test_report_is_non_trivial_and_matches_the_per_class_route(classes, characters):
    order = 400
    d = seeded_dataset(classes, characters)
    rows = nontriviality_report(d, order)
    assert all(row.verdict == "non-trivial" and row.holds for row in rows)
    primaries = primary_table(d, order)
    degrees = {1: 1, **{int(k): chi["1A"] for k, chi in (characters or {}).items()}}
    for row in rows:
        assert row.dim_fixed == multiplicity(d, primaries, 1, row.j)
        assert row.dim_fixed < row.dim_primary
        if characters:
            parts = [deg * multiplicity(d, primaries, k, row.j) for k, deg in degrees.items()]
            assert sum(parts) == row.dim_primary, row.j
    if classes is S3_CLASSES:
        assert rows[0][1:] == (196883, 32970, "non-trivial", 32969)
        assert [multiplicity(d, primaries, k, 1) for k in (1, 2, 3)] == [32969, 32694, 65610]


@pytest.mark.parametrize(
    "block, sums",
    [
        ({"1A": 3, "2B": 1, "3B": 0}, [(1, 6, 0), (2, 12, 6)]),
        ({"1A": 1, "2B": -1, "3B": -1}, [(1, -4, 0)]),
    ],
    ids=["trivial-plus-standard", "sign-with-one-value-flipped"],
)
def test_a_character_block_that_is_not_irreducible_is_refused(tmp_path, capsys, block, sums):
    # the permutation character of S3 on three points (trivial plus
    # standard) used to load, and `mult --k 2` printed mult_1 +
    # mult_standard as the multiplicity of one irreducible; orthonormality
    # against the trivial character and itself refuses it, and a sign
    # character with one value flipped
    from monsterlie.cli import run

    violations = [
        f"characters {k} and 2 are not orthonormal: sum of class_size * chi_{k} * chi_2 "
        f"is {inner}, expected {expected}"
        for k, inner, expected in sums
    ]
    with pytest.raises(DatasetError) as err:
        seeded_dataset(S3_CLASSES, {"2": block})
    assert err.value.violations == violations
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(seeded_object(S3_CLASSES, {"2": block})))
    for argv in (["validate-data"], ["mult", "--k", "2", "--max", "3"]):
        assert run([*argv, "--data", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dataset error: {'; '.join(violations)}\n"


@pytest.mark.parametrize("name", ["2B", "3B", "5B", "7B", "13B"])
def test_cyclic_fixed_dimensions_average_the_traces(name):
    # Z/p through 1A and the class pB of its p - 1 generators: the fixed
    # primaries are (d + (p - 1) t) / p, with t = tr(g | P) read off
    # T_g * prod(1 - q**n) + 1 by the generic product of the coefficient
    # lists from q**-1 on: q**j sits at index j + 1, and the + 1 at q**0
    # reaches no row
    order = 400
    p = int(name[:-1])
    d = seeded_dataset([("1A", 1, "1A"), (name, p - 1, "1A" if p == 2 else name)])
    traces = times(mckay_thompson(name, order).coeffs, euler_product(order + 2).coeffs)
    for row in nontriviality_report(d, order):
        assert p * row.dim_fixed == row.dim_primary + (p - 1) * traces[row.j + 1]


def test_report_refuses_a_negative_fixed_dimension():
    # a 2B row whose trace at index 1 is -196884 makes the weight-2 space
    # G-fixed-free, so the fixed primaries at index 1 would be -1
    j = j_series(5)
    seeds = {k: (-1) ** k * j.coeff(k) for k in (1, 2, 3, 5)}
    obj = group_object(Z2_CLASSES, {"1A": j, "2B": j})
    obj["classes"][1]["seeds"].update({str(k): str(v) for k, v in seeds.items()})
    with pytest.raises(IntegralityError, match="fixed primary dimension at index 1 is negative"):
        nontriviality_report(parse_dataset(obj), 3)


def test_nontriviality_report_needs_a_positive_max_j():
    with pytest.raises(ValueError, match="max_j must be at least 1"):
        nontriviality_report(trivial_dataset(), 0)


class Int(int):
    """An int subclass other than bool: read as the plain int it equals."""


def sixth_character_dataset():
    """Z/2 with its sign character under index 6, so an irreducible index
    6 has a character."""
    return seeded_dataset(Z2_CLASSES, {"1": {"1A": 1, "2B": 1}, "6": Z2_CHARACTERS["2"]})


def multiplicity_at(k, j):
    d = sixth_character_dataset()
    return multiplicity(d, replicate_extend(d, 6), k, j)


# a call taking one integer, the name it reports and its least value
# (None: no `ValueError` bound; `multiplicity` checks j against the table)
INTEGER_ENTRY_POINTS = {
    "replicate_extend": (lambda n: replicate_extend(trivial_dataset(), n), "order", 1),
    "nontriviality_report": (lambda n: nontriviality_report(trivial_dataset(), n), "max_j", 1),
    "multiplicity k": (lambda n: multiplicity_at(n, 1), "k", None),
    "multiplicity j": (lambda n: multiplicity_at(1, n), "j", None),
}


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 0.5, 3.0, True])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_replication_integers_must_be_ints(entry, value):
    call, name, _ = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"{name} must be an int, got {type(value).__name__}"):
        call(value)
    assert call(Int(6)) == call(6)  # an int subclass reads as the int it equals


@pytest.mark.parametrize(
    "entry", sorted(k for k, (_, _, least) in INTEGER_ENTRY_POINTS.items() if least is not None)
)
def test_replication_integers_have_a_least_value(entry):
    check_least_value(*INTEGER_ENTRY_POINTS[entry])


def test_report_dimensions_match_the_series_route(monkeypatch):
    # the dimension column comes from the identity row; primary_dim_series
    # reaches the same numbers from j_series, so each checks the other,
    # and the report expands J not at all: the seeds were checked against
    # `IDENTITY_SEEDS` where the Dataset was built
    import monsterlie.qseries

    seeds = {name: mckay_thompson(name, 5) for name in ("2B", "4C")}
    seeds["1A"] = j_series(5)
    datasets = [
        trivial_dataset(),
        group_dataset(Z2_CLASSES, seeds, Z2_CHARACTERS),
        group_dataset(Z4_CLASSES, seeds, Z4_CHARACTERS),
    ]
    orders = []

    def spy(order):
        orders.append(order)
        return j_series(order)

    monkeypatch.setattr(monsterlie.qseries, "j_series", spy)
    for max_j in (1, 4, 5, 6, 80, 400):
        dims = primary_dim_series(max_j + 1)
        for d in datasets:
            orders.clear()
            rows = nontriviality_report(d, max_j)
            assert orders == [], (max_j, orders)
            assert [row.j for row in rows] == list(range(1, max_j + 1))
            for row in rows:
                assert row.dim_primary == dims.coeff(row.j), (max_j, row.j)


def test_report_refuses_an_identity_seed_off_by_one():
    # a wrong identity row would give the report wrong dimensions, so a
    # Dataset built in code is refused where it is built, before any report
    record = trivial_dataset().classes[0]
    seeds = {**record.seeds, 2: record.seeds[2] + 1}
    with pytest.raises(DatasetError) as err:
        Dataset([record._replace(seeds=seeds)], 1)
    assert err.value.violations == [
        "identity class 1A: seed 2 is 21493761, expected 21493760"
    ]
