"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 4 is conditional on a complete 194-class dataset; point the
MONSTERLIE_DATASET environment variable at one (or drop it at
data/monster_classes.json) to run the full reproduction.  Without it the
suite substitutes the single-class trivial-group dataset and checks the
property-based fallback so the criterion never passes vacuously.
"""

import os
import random
import time
from fractions import Fraction
from pathlib import Path

from monsterlie.dataset import load_dataset, trivial_dataset
from monsterlie.gl2 import (
    bracket,
    make_gl2,
    primary_pair,
    verify_relations,
)
from monsterlie.lattice import (
    FockState,
    cocycle_sign,
    heisenberg_apply,
    is_primary,
    pairing,
    section,
    virasoro_apply,
    weight_of,
)
from monsterlie.qseries import j_series, primary_dim_series
from monsterlie.replication import multiplicity, nontriviality_report, replicate_extend

# (j, dim of weight-(j+1) primary subspace, multiplicity of the trivial
# irreducible in weight j+1)
DIM_MULT_TABLE = [
    (1, 196883, 1),
    (2, 21296876, 1),
    (3, 842609326, 2),
    (4, 19360062527, 2),
    (5, 312092484374, 4),
    (6, 3898575000125, 4),
    (7, 40071789624999, 7),
    (8, 352582733780823, 8),
    (9, 2730312616406501, 12),
    (10, 18989796260093750, 14),
    (11, 120472350229297625, 22),
    (12, 705579405073375001, 25),
    (13, 3851890223522607078, 36),
    (14, 19754724655128969898, 44),
    (15, 95796047847905125001, 61),
    (16, 441630416897735940875, 74),
    (17, 1944474605043319578125, 102),
    (18, 8208966820642976271948, 124),
    (19, 33342403696070463426523, 167),
    (20, 130682291183967925390625, 206),
    (21, 495541230687128562902875, 271),
    (22, 1822158321664159999078124, 335),
    (23, 6510652458052884364952274, 440),
    (24, 22645881565834844801406026, 542),
    (25, 76805694478383734573046875, 701),
    (26, 254378447193404062648279992, 870),
    (27, 823820250669449124864265625, 1115),
    (28, 2612037978193398885792057928, 1381),
    (29, 8117168463824355581684218453, 1762),
    (30, 24748559924646442300596578125, 2180),
    (31, 74100585128385505089520426375, 2763),
    (32, 218068784814065333189473046875, 3422),
    (33, 631263434817949765287221989496, 4310),
    (34, 1798839455374997664745734472049, 5333),
    (35, 5049345338644493766280585734376, 6697),
    (36, 13970568011333638480233896790625, 8272),
    (37, 38122902172895468426986907453125, 10342),
    (38, 102657396484068599392862170371503, 12773),
    (39, 272929768681646094007878106129219, 15913),
    (40, 716766590714096093408391800296876, 19624),
    (41, 1860234399965047844989826549991625, 24386),
    (42, 4773156795988402310139116350828125, 30034),
    (43, 12113398911563006366044489650277199, 37219),
]


def _report(number, label, outcome=True, note=""):
    status = "PASS" if outcome else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number}: {label}: {status}{suffix}")
    assert outcome, f"criterion {number} failed{suffix}"


def test_criterion_1_j_coefficients():
    start = time.perf_counter()
    series = j_series(100)
    elapsed = time.perf_counter() - start
    ok = (
        series.coeff(1) == 196884
        and series.coeff(2) == 21493760
        and series.coeff(3) == 864299970
        and elapsed < 5.0
    )
    _report(1, "modular-invariant coefficients", ok, f"{elapsed:.2f}s at order 100")


def test_criterion_2_primary_dimension_table():
    order = 102
    dims = primary_dim_series(order)
    ok = dims.coeff(0) == 0 and dims.coeff(-1) > 0
    for j, dim, _ in DIM_MULT_TABLE:
        ok = ok and dims.coeff(j) == dim
    for j in range(2, 102):
        ok = ok and dims.coeff(j - 1) > 0
    _report(2, "primary-dimension table, 43 rows exact + positivity to 101", ok)


def test_criterion_3_replication_oracle_equivalence():
    dataset = trivial_dataset()
    table = replicate_extend(dataset, 100)
    series = j_series(100)
    mismatches = [
        n for n in range(6, 101) if table.value("1A", n) != series.coeff(n)
    ]
    _report(
        3,
        "replication matches the series route at 95 checkpoints",
        not mismatches,
        f"mismatches at {mismatches}" if mismatches else "6..100 exact",
    )


def _full_dataset_path():
    env = os.environ.get("MONSTERLIE_DATASET")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "monster_classes.json"
    return default if default.exists() else None


def test_criterion_4_multiplicity_table_or_fallback():
    path = _full_dataset_path()
    if path is not None and path.exists():
        dataset = load_dataset(path)
        ok = len(dataset.classes) == 194
        table = replicate_extend(dataset, 100)
        for j, _, mult in DIM_MULT_TABLE:
            ok = ok and multiplicity(dataset, table, 1, j) == mult
        rows = nontriviality_report(dataset, table, 99)
        ok = ok and all(row.holds for row in rows)
        _report(4, "194-class multiplicity table + strict inequality", ok)
        return
    # fallback: trivial group; the orthogonality sum has a single unit term
    dataset = trivial_dataset()
    table = replicate_extend(dataset, 100)
    ok = all(
        multiplicity(dataset, table, 1, j) == table.value("1A", j)
        for j in range(1, 101)
    )
    _report(
        4,
        "multiplicity fallback on the trivial group (no full dataset supplied)",
        ok,
        "mult equals the trace coefficient at 100 indices",
    )


def test_criterion_5_gl2_relations():
    ok = True
    notes = []
    for j in (-1, 1, 2, 3, 10):
        report = verify_relations(j, *primary_pair(j))
        core_passed, core_total = report.count("core")
        ok = ok and report.all_passed and (core_passed, core_total) == (6, 6)
        if j == -1:
            ok = ok and report.count("sl2") == (3, 3)
        else:
            ok = ok and report.count("cross") == (4, 4)
        if not report.all_passed:
            notes += [c.name for c in report.checks if not c.passed]
    _report(5, "gl2 relations for j in {-1,1,2,3,10}", ok, "; ".join(notes))


def test_criterion_6_vertex_algebra_property_suite():
    rng = random.Random(20240202)
    ok = True

    # cocycle law on 1000 random lattice pairs
    for _ in range(1000):
        lam = (rng.randint(-20, 20), rng.randint(-20, 20))
        mu = (rng.randint(-20, 20), rng.randint(-20, 20))
        ok = ok and cocycle_sign(lam, mu) * cocycle_sign(mu, lam) == (-1) ** pairing(
            lam, mu
        )

    def random_state():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = []
            degree = 0
            while degree < 5 and rng.random() < 0.6:
                n = rng.randint(1, 5 - degree)
                mono.append((rng.randint(0, 1), n))
                degree += n
            key = (tuple(sorted(mono)), (rng.randint(-2, 2), rng.randint(-2, 2)))
            terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return FockState(terms)

    # Heisenberg bracket identity on random states
    for _ in range(15):
        s = random_state()
        lam = (rng.randint(-3, 3), rng.randint(-3, 3))
        mu = (rng.randint(-3, 3), rng.randint(-3, 3))
        for m in (-2, 1, 2):
            for n in (-2, -1, 2):
                lhs = heisenberg_apply(lam, m, heisenberg_apply(mu, n, s)) - (
                    heisenberg_apply(mu, n, heisenberg_apply(lam, m, s))
                )
                rhs = (
                    (pairing(lam, mu) * m) * s if m + n == 0 else FockState.zero()
                )
                ok = ok and lhs == rhs

    # Virasoro bracket identity with central charge 2
    central_charge = 2
    for _ in range(6):
        s = random_state()
        for m in range(-2, 3):
            for n in range(-2, 3):
                lhs = virasoro_apply(m, virasoro_apply(n, s)) - virasoro_apply(
                    n, virasoro_apply(m, s)
                )
                rhs = (m - n) * virasoro_apply(m + n, s)
                if m + n == 0:
                    rhs = rhs + Fraction(m ** 3 - m, 12) * central_charge * s
                ok = ok and lhs == rhs

    # grading additivity under creation modes
    for _ in range(25):
        s = random_state()
        w = weight_of(s)
        if w is None:
            continue
        n = rng.randint(1, 4)
        lam = (rng.randint(-3, 3), rng.randint(-3, 3))
        created = heisenberg_apply(lam, -n, s)
        if not created.is_zero():
            ok = ok and weight_of(created) == w + n

    # iota over (1, j) is primary of weight -j
    for j in range(1, 11):
        state = FockState.iota(section(1, j))
        ok = ok and weight_of(state) == -j and is_primary(state)

    # section flip fixes the raising-lowering bracket
    for j in (1, 2, 5):
        u, v = primary_pair(j)
        plus = make_gl2(j, u, v, section_sign=1)
        minus = make_gl2(j, u, v, section_sign=-1)
        ok = (
            ok
            and minus.e == -1 * plus.e
            and bracket(minus.e, minus.f) == bracket(plus.e, plus.f)
        )

    _report(6, "vertex-algebra property suite (all exact)", ok)


def test_criterion_7_integrality_tripwires():
    from monsterlie.dataset import parse_dataset, to_jsonable
    from monsterlie.qseries import IntegralityError

    ok = True
    notes = []

    # an odd halving must name the class and the index
    obj = to_jsonable(trivial_dataset())
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "3",
            "power2": "1A",
            "seeds": {"-1": "1", "1": "3", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj["group_order"] = "4"
    bad = parse_dataset(obj)
    try:
        replicate_extend(bad, 6)
        ok = False
        notes.append("odd halving was not detected")
    except IntegralityError as exc:
        message = str(exc)
        if "2Z" not in message or "4" not in message:
            ok = False
            notes.append(f"halving error does not name class and index: {message}")

    # a non-integral multiplicity must name the irreducible and the index
    obj = to_jsonable(trivial_dataset())
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "7",
            "power2": "2Z",
            "seeds": {"-1": "1", "1": "1", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj["group_order"] = "8"
    skew = parse_dataset(obj)
    table = replicate_extend(skew, 6)
    try:
        multiplicity(skew, table, 1, 1)
        ok = False
        notes.append("non-integral multiplicity was not detected")
    except IntegralityError as exc:
        message = str(exc)
        if "1" not in message or "index 1" not in message:
            ok = False
            notes.append(f"multiplicity error lacks indices: {message}")

    # and on consistent data nothing fires through order 100
    clean = replicate_extend(trivial_dataset(), 100)
    total = sum(
        multiplicity(trivial_dataset(), clean, 1, j) for j in range(1, 101)
    )
    ok = ok and total > 0

    _report(7, "integrality tripwires name class and index", ok, "; ".join(notes))
