import json

import pytest

from monsterlie.dataset import parse_dataset, to_jsonable, trivial_dataset
from monsterlie.qseries import IntegralityError, eta_quotient, j_series
from monsterlie.replication import (
    multiplicity,
    nontriviality_report,
    replicate_extend,
)


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


def s3_dataset(traces):
    """S3 acting through 1A, 2B (squares to 1A) and 3B (squares to 3B),
    seeded from the given series."""
    classes = [("1A", 1, "1A"), ("2B", 3, "1A"), ("3B", 2, "3B")]
    return parse_dataset(
        {
            "classes": [
                {
                    "name": name,
                    "class_size": str(size),
                    "power2": square,
                    "seeds": {
                        str(k): str(traces[name].coeff(k)) for k in (-1, 1, 2, 3, 5)
                    },
                }
                for name, size, square in classes
            ]
        }
    )


def test_cross_class_rows_match_eta_quotients():
    # 2B squares into another class and 3B into itself, so both the
    # stride-4 C(g^2, i) sums and the alternating sums see real data
    order = 300
    # T_2B = q^-1 prod(1-q^n)^24 / prod(1-q^2n)^24 + 24 and T_3B likewise
    # with 3 and 12 (Conway-Norton 1979, Table 2)
    traces = {
        "1A": j_series(order),
        "2B": eta_quotient({1: 24, 2: -24}, order + 2).shift(-1) + 24,
        "3B": eta_quotient({1: 12, 3: -12}, order + 2).shift(-1) + 12,
    }
    assert [traces["2B"].coeff(n) for n in (-1, 0, 1, 2)] == [1, 0, 276, -2048]
    assert [traces["3B"].coeff(n) for n in (-1, 0, 1, 2)] == [1, 0, 54, -76]
    d = s3_dataset(traces)
    table = replicate_extend(d, order)
    for name, series in traces.items():
        row = [series.coeff(n) for n in range(1, order + 1)]
        assert table.rows[name] == row, f"class {name} differs from its series"
    for j in range(1, order + 1):
        assert multiplicity(d, table, 1, j) >= 0


def test_cyclic_group_of_order_two_has_integral_multiplicities():
    # Z/2 = {1A, 2B}: two classes of size 1, told apart by 2B squaring to
    # 1A; the +-1 eigenspaces of 2B have dimensions (d + t)/2 and (d - t)/2
    order = 300
    traces = {
        "1A": j_series(order),
        "2B": eta_quotient({1: 24, 2: -24}, order + 2).shift(-1) + 24,
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
    with pytest.raises(IndexError):
        table._at("1A", 0)


def test_order_below_five_rejected():
    with pytest.raises(ValueError):
        replicate_extend(trivial_dataset(), 4)


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
    with pytest.raises(KeyError):
        multiplicity(d, table, 2, 1)


def test_multiplicity_with_character_block():
    obj = json.loads(json.dumps(to_jsonable(trivial_dataset())))
    obj["characters"] = {"1": {"1A": "1"}, "2": {"1A": "196883"}}
    d = parse_dataset(obj)
    table = replicate_extend(d, 6)
    assert multiplicity(d, table, 2, 1) == 196883 * table.value("1A", 1)


def test_nontriviality_report_on_trivial_group():
    d = trivial_dataset()
    rows = nontriviality_report(d, 10)
    assert [r.j for r in rows] == list(range(1, 11))
    table = replicate_extend(d, 10)
    for row in rows:
        assert row.trivial_multiplicity == table.value("1A", row.j)
        # the trace coefficient exceeds the primary dimension here, so the
        # sufficient criterion cannot fire on the trivial group
        assert row.verdict == "inconclusive"
        assert not row.holds
