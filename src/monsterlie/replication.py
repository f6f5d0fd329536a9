"""Extension of trace-coefficient sequences by the replication recursions,
trivial-multiplicity computation, and the non-triviality report.

Writing C(g, j) for the trace of g on the weight-(j+1) graded piece of
the moonshine module, f_g = sum_{i>=1} C(g,i) q^i, and S(k) for the q^k
coefficient of the symmetric square (f_g(q)^2 - f_{g^2}(q^2))/2,

  S(k) = sum_{1<=i<k/2} C(g,i) C(g,k-i)
         [+ (C(g,k/2)^2 - C(g^2,k/2))/2 when k is even],

two recursions determine C(g, 4) and every C(g, n) for n > 5 from the
seeds at 1, 2, 3, 5 and the squared class:

  C(g,2m)   = C(g,m+1) + S(m)                                    (m >= 2)

  C(g,2m+1) = C(g,m+3) - C(g,2) C(g,m) + S(m+2)
              + ((-1)^m C(g,m)^2 + C(g^2,m))/2
              + sum_{1<=i<m/2} C(g^2,i) C(g,2m-4i)
              + sum_{i=1}^{m-1} (-1)^i C(g,i) C(g,2m-i)           (m >= 3)

Putting m = 2j and m = 2j+1 gives back, term by term, the four cases
n = 4j, 4j+1, 4j+2, 4j+3 of Alexander, Cummins, McKay and Simons,
"Completely replicable functions" (1992).  At n = 5 the odd recursion is
vacuous (it reduces to C(g,5) = C(g,5)), which is why 5 is a seed.  Each
new entry takes (1, 2, 0, 1) halvings for n mod 4 = 0, 1, 2, 3, and every
halving must be exact; an odd numerator names the class and index and
aborts, since it can only mean inconsistent seed data.

Each class row is a list with row[i-1] = C(g,i).  Every sum above is one
dot product of two row slices, the second one read backwards (with
stride 4 against C(g^2,i)).  S(k) is read by n = 2k - 3 and by n = 2k, so
its pair sum P(k) = sum_{1<=i<k/2} C(g,i) C(g,k-i) is formed once per
class and call, and kept; the products of the alternating sum, added, are
P(2m), kept before S(2m) is first read.  Rows only grow, so no kept sum
goes stale.  The halving term of an even k is checked at every use.

The square-class reads for C(g,n) stop at index (n-1)/2 (C(g^2,m) for
n = 2m+1), so a row filled to k needs the row of its square class only to
k/2.  A caller that reads some classes only fills those, each square
class to half of its class, down the power2 chain.

Multiplicities come from character orthogonality: the multiplicity of
the k-th irreducible in the weight-(j+1) piece is
(1/|G|) sum over classes of size * chi_k * C(class, j), which must be a
nonnegative integer.  The trivial character needs no character table.

The non-triviality report's primary dimensions are the identity row (J
exactly: validated seeds, and the recursions fix the rest) times
prod(1 - q**n) plus 1, the map of `primary_dim_series`.  The moonshine
module is the vacuum module plus P_h (x) M(24, h) over h >= 2, and G
commutes with the Virasoro action, so the same linear map sends any
class row to the traces on primaries and the trivial-multiplicity column
to the dimensions of the G-fixed primaries.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .dataset import DatasetError
from .qseries import IntegralityError, _int, _primary_dims


class CoefficientTable(NamedTuple):
    """Per-class coefficient rows C(g, j), each for 1 <= j <= the length of
    its row: `order` unless only some classes were asked for."""

    order: int
    rows: dict  # class name -> list, index j-1

    def value(self, name, j):
        """C(name, j); index 0 is 0 by convention (zero constant term) and
        index -1 is 1 (normalized leading coefficient); j is read by `_int`."""
        if (j := _int(j, "j")) == 0:
            return 0
        if j == -1:
            return 1
        row = self.rows.get(name, ())
        if not 1 <= j <= len(row):
            raise IndexError(
                f"index {j} of class {name} is outside the order {len(row)} it was filled to"
            )
        return row[j - 1]


def _halve(numerator, name, j):
    half, remainder = divmod(numerator, 2)
    if remainder:
        raise IntegralityError(
            f"replication: odd halving for class {name} at index {j}"
        )
    return half


def _fill_orders(dataset, order, classes):
    """{class name: the order its row is filled to}.  Each class in `classes`
    is filled to `order`; the square class of a class filled to k is filled
    to max(5, k // 2), along the power2 chains until no order grows (an
    order only grows, up to `order`, so cycles end); `DatasetError` naming an
    entry that is not the str name of a class the dataset has."""
    by_name = dataset.by_name
    fill = {}
    pending = [(name, order) for name in classes]
    while pending:
        name, k = pending.pop()
        if not isinstance(name, str) or name not in by_name:
            raise DatasetError(f"unknown class {name!r}")
        if fill.get(name, 0) < k:
            fill[name] = k
            pending.append((by_name[name].power2, max(5, k // 2)))
    return fill


def _symmetric_square(r, s, k, name, n, pairs):
    """S(k), the q^k coefficient of (f_g(q)^2 - f_{g^2}(q^2))/2, from the rows
    r of g and s of g^2, with the pair sum P(k) read from the class's store
    `pairs` ({k: P(k)}) and formed there when missing; an odd halving names
    class `name` and index `n`."""
    h = (k - 1) // 2
    total = pairs.get(k)
    if total is None:
        total = pairs[k] = sum(map(mul, r[:h], r[k - 2 : k - h - 2 : -1]))
    if k % 2 == 0:
        total += _halve(r[h] ** 2 - s[h], name, n)
    return total


def replicate_extend(dataset, order, classes=None):
    """Fill class rows through max(order, 5), for an order of at least 1
    (the seeds reach index 5), using the recursions.

    `classes` names the rows the caller reads (None: every class; a bare
    str is a `TypeError`, not a list of one-letter names).  Those
    are filled to `order` and their square chains as far as they are read
    (see `_fill_orders`); the table holds only the filled rows.  Rows are
    filled in lockstep across classes in increasing index, so the
    squared-class references (which only reach strictly smaller indices)
    are always available.
    """
    order = max(_int(order, "order", 1), 5)
    if classes is None:
        classes = [record.name for record in dataset.classes]
    elif isinstance(classes, str):
        raise TypeError(f"classes must be a collection of class names, got the str {classes!r}")
    fill = _fill_orders(dataset, order, classes)
    rows, square = {}, {}
    for record in dataset.classes:
        if record.name in fill:
            row = rows[record.name] = [None] * fill[record.name]
            for k in (1, 2, 3, 5):
                row[k - 1] = record.seeds[k]
            square[record.name] = record.power2
    # per class, read once per call: name, row, square class and row, P(k) store
    state = [(name, r, square[name], rows[square[name]], {}) for name, r in rows.items()]

    # n = 2m reads r up to index m+1, and n = 2m+1 (m >= 3, as 5 is a seed)
    # up to max(m+3, 2m-1): always below n.  An entry not yet filled is
    # None, so a read out of order fails loudly.
    for n in [4, *range(6, order + 1)]:
        m, odd = divmod(n, 2)
        for name, r, power2, s, pairs in state:  # r[i-1] is C(g,i), s[i-1] is C(g^2,i)
            if n > len(r):
                continue
            if (n - 1) // 2 > len(s):
                # a slice past the end would truncate a sum silently
                raise IndexError(
                    f"class {name} reads index {(n - 1) // 2} of square class "
                    f"{power2}, filled only to {len(s)}"
                )
            if not odd:
                total = r[m] + _symmetric_square(r, s, m, name, n, pairs)
            else:
                total = r[m + 2] - r[1] * r[m - 1]
                total += _symmetric_square(r, s, m + 2, name, n, pairs)
                total += _halve((-1) ** m * r[m - 1] ** 2 + s[m - 1], name, n)
                h = (m - 1) // 2  # sum C(g^2,i) C(g,2m-4i) over 1 <= i < m/2
                total += sum(map(mul, s[:h], r[2 * m - 5 : 2 * m - 4 * h - 2 : -4]))
                # C(g,i) C(g,2m-i) over odd and even i < m; together P(2m)
                odd_i = sum(map(mul, r[0 : m - 1 : 2], r[2 * m - 2 : m - 1 : -2]))
                even_i = sum(map(mul, r[1 : m - 1 : 2], r[2 * m - 3 : m - 1 : -2]))
                total += even_i - odd_i
                pairs[2 * m] = odd_i + even_i
            r[n - 1] = total
    return CoefficientTable(order, rows)


def character(dataset, k):
    """{class name: value} of the k-th irreducible; k = 1 (the trivial
    character) always exists, others only in the dataset's character block
    (`DatasetError` naming k otherwise)."""
    if k == 1:
        return {record.name: 1 for record in dataset.classes}
    if k not in (dataset.characters or {}):
        raise DatasetError(f"character values for irreducible {k} are not in the dataset")
    return dataset.characters[k]


def _multiplicities(dataset, table, k, lo, hi):
    """[multiplicity of the k-th irreducible at j for lo <= j <= hi]: per j,
    sum_C |C| chi_k(C) C(C, j) / |G|, which must be a nonnegative integer or
    the dataset is inconsistent.  Each class row is read once, by position."""
    chi = character(dataset, k)
    for record in dataset.classes:  # a row short of hi raises, naming its class
        table.value(record.name, hi)
    weights = [record.class_size * chi[record.name] for record in dataset.classes]
    rows = [table.rows[record.name][lo - 1 : hi] for record in dataset.classes]
    out = []
    for j, values in enumerate(zip(*rows), lo):
        mult, remainder = divmod(sum(map(mul, weights, values)), dataset.group_order)
        if remainder:
            raise IntegralityError(
                f"multiplicity of irreducible {k} at index {j} is not integral; "
                f"the dataset is inconsistent"
            )
        if mult < 0:
            raise IntegralityError(
                f"multiplicity of irreducible {k} at index {j} is negative"
            )
        out.append(mult)
    return out


def multiplicity(dataset, table, k, j):
    """Multiplicity of the k-th irreducible in the weight-(j+1) piece, by
    `_multiplicities`; the character comes from `character` (`DatasetError`
    when the dataset has none for k)."""
    k = _int(k, "k")
    if not 1 <= (j := _int(j, "j")) <= table.order:
        raise IndexError(f"index {j} outside the computed order {table.order}")
    return _multiplicities(dataset, table, k, j, j)[0]


class NontrivialityRow(NamedTuple):
    j: int
    dim_primary: int
    trivial_multiplicity: int
    verdict: str  # "non-trivial" when G fixes fewer primaries than there are
    dim_fixed: int

    @property
    def holds(self):
        return self.verdict == "non-trivial"


def nontriviality_report(dataset, max_j):
    """Rows (j, dim of weight-(j+1) primaries, trivial multiplicity,
    verdict, dim of the G-fixed weight-(j+1) primaries) for 1 <= j <= max_j.

    The verdict is exact: "non-trivial" when dim_fixed < dim_primary, that
    is when G moves a primary vector of weight j+1, else "trivial".  Each
    primary u of weight j+1 gives a gl2 over the root (1, j) (with its
    partner v), so G moving u moves the gl2's raising generator e(j, u);
    for a perfect group such as the Monster, that moves a gl2 subalgebra.

    Both dimension columns come from one linear map, times prod(1 - q**n)
    plus 1: dim_primary from the identity row, exact since a `Dataset` is
    validated where it is built (the identity seeds are J's), and dim_fixed
    from the trivial-multiplicity column.
    """
    max_j = _int(max_j, "max_j", 1)
    table = replicate_extend(dataset, max_j)
    identity = table.rows[dataset.identity_class().name]
    dims = _primary_dims([1, 0, *identity[:max_j]], max_j + 1)
    mults = _multiplicities(dataset, table, 1, 1, max_j)
    fixed = _primary_dims([1, 0, *mults], max_j + 1)
    out = []
    for j, mult in enumerate(mults, 1):
        dim, dim_fixed = dims.coeff(j), fixed.coeff(j)
        if dim_fixed < 0:
            raise IntegralityError(
                f"fixed primary dimension at index {j} is negative; "
                f"the dataset is inconsistent"
            )
        verdict = "non-trivial" if dim_fixed < dim else "trivial"
        out.append(NontrivialityRow(j, dim, mult, verdict, dim_fixed))
    return out
