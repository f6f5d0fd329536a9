"""Extension of trace-coefficient sequences by the replication recursions,
trivial-multiplicity computation, and the non-triviality report.

Writing C(g, j) for the trace of g on the weight-(j+1) graded piece of
the moonshine module, the four recursions determine C(g, 4) and every
C(g, j) for j > 5 from the seeds at 1, 2, 3, 5 and the squared class:

  C(g,4j)   = C(g,2j+1) + (C(g,j)^2 - C(g^2,j))/2
              + sum_{i=1}^{j-1} C(g,i) C(g,2j-i)

  C(g,4j+1) = C(g,2j+3) - C(g,2) C(g,2j)
              + (C(g,2j)^2 + C(g^2,2j))/2 + (C(g,j+1)^2 - C(g^2,j+1))/2
              + sum_{i=1}^{j}    C(g,i)   C(g,2j-i+2)
              + sum_{i=1}^{j-1}  C(g^2,i) C(g,4j-4i)
              + sum_{i=1}^{2j-1} (-1)^i C(g,i) C(g,4j-i)

  C(g,4j+2) = C(g,2j+2) + sum_{i=1}^{j} C(g,i) C(g,2j-i+1)

  C(g,4j+3) = C(g,2j+4) - C(g,2) C(g,2j+1) - (C(g,2j+1)^2 - C(g^2,2j+1))/2
              + sum_{i=1}^{j+1} C(g,i)   C(g,2j-i+3)
              + sum_{i=1}^{j}   C(g^2,i) C(g,4j-4i+2)
              + sum_{i=1}^{2j}  (-1)^i C(g,i) C(g,4j-i+2).

At index 5 the first recursion instance is vacuous (it reduces to
C(g,5) = C(g,5)), which is why 5 is a seed.  Every halving must be exact;
an odd numerator names the class and index and aborts, since it can only
mean inconsistent seed data.

Each class row is a list with row[i-1] = C(g,i).  Every sum above is one
dot product of two row slices, the second one reversed (with stride 4
against C(g^2,i)); the alternating sums take the products once and
subtract the even-i terms from the odd-i ones.

The square-class reads for C(g,n) stop at index (n-1)/2 (C(g^2,2j) for
n = 4j+1, C(g^2,2j+1) for n = 4j+3), so a row filled to k needs the row of
its square class only to k/2.  A caller that reads some classes only
fills those, each square class to half of its class, down the power2
chain.

Multiplicities come from character orthogonality: the multiplicity of
the k-th irreducible in the weight-(j+1) piece is
(1/|G|) sum over classes of size * chi_k * C(class, j), which must be a
nonnegative integer.  The trivial character needs no character table.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .qseries import IntegralityError, primary_dim_series


class CoefficientTable(NamedTuple):
    """Per-class coefficient rows C(g, j), each for 1 <= j <= the length of
    its row: `order` unless only some classes were asked for."""

    order: int
    rows: dict  # class name -> list, index j-1

    def value(self, name, j):
        """C(name, j); index 0 is 0 by convention (zero constant term) and
        index -1 is 1 (normalized leading coefficient)."""
        if j == 0:
            return 0
        if j == -1:
            return 1
        return self._at(name, j)

    def _at(self, name, j):
        if j < 1:
            raise IndexError(f"recursions never reference index {j}")
        row = self.rows.get(name, ())
        if j > len(row):
            raise IndexError(
                f"index {j} of class {name} beyond the order {len(row)} it was filled to"
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
    (every class when None) is filled to `order`; the square class of a
    class filled to k is filled to max(5, k // 2), along the power2 chains
    until no order grows (an order only grows, up to `order`, so cycles end)."""
    if classes is None:
        return {record.name: order for record in dataset.classes}
    by_name = dataset.by_name
    fill = {}
    pending = [(name, order) for name in classes]
    while pending:
        name, k = pending.pop()
        if fill.get(name, 0) < k:
            fill[name] = k
            pending.append((by_name[name].power2, max(5, k // 2)))
    return fill


def replicate_extend(dataset, order, classes=None):
    """Fill class rows through the given order using the recursions.

    `classes` names the rows the caller reads (None: every class).  Those
    are filled to `order` and their square chains as far as they are read
    (see `_fill_orders`); the table holds only the filled rows.  Rows are
    filled in lockstep across classes in increasing index, so the
    squared-class references (which only reach strictly smaller indices)
    are always available.
    """
    if order < 5:
        raise ValueError("order must be at least 5 (indices 1,2,3,5 are seeds)")
    fill = _fill_orders(dataset, order, classes)
    rows = {}
    for record in dataset.classes:
        if record.name in fill:
            row = [None] * fill[record.name]
            for k in (1, 2, 3, 5):
                row[k - 1] = record.seeds[k]
            rows[record.name] = row
    by_name = dataset.by_name
    square = {name: by_name[name].power2 for name in rows}

    # the case for n = 4j + rem (j >= 1) reads r up to index 2j+1, 4j-1
    # (j >= 2, as 5 is a seed), 2j+2 or max(2j+4, 4j+1): always below n.
    # An entry not yet filled is None, so a read out of order fails loudly.
    for n in [4, *range(6, order + 1)]:
        j, rem = divmod(n, 4)
        for name, r in rows.items():
            if n > len(r):
                continue
            s = rows[square[name]]  # r[i-1] is C(g,i), s[i-1] is C(g^2,i)
            if (n - 1) // 2 > len(s):
                # a slice past the end would truncate a sum silently
                raise IndexError(
                    f"class {name} reads index {(n - 1) // 2} of square class "
                    f"{square[name]}, filled only to {len(s)}"
                )
            if rem == 0:
                total = r[2 * j] + _halve(r[j - 1] ** 2 - s[j - 1], name, n)
                total += sum(map(mul, r[: j - 1], reversed(r[j : 2 * j - 1])))
            elif rem == 1:
                total = r[2 * j + 2] - r[1] * r[2 * j - 1]
                total += _halve(r[2 * j - 1] ** 2 + s[2 * j - 1], name, n)
                total += _halve(r[j] ** 2 - s[j], name, n)
                total += sum(map(mul, r[:j], reversed(r[j + 1 : 2 * j + 1])))
                total += sum(map(mul, s[: j - 1], reversed(r[3 : 4 * j - 4 : 4])))
                p = list(map(mul, r[: 2 * j - 1], reversed(r[2 * j : 4 * j - 1])))
                total += sum(p[1::2]) - sum(p[0::2])
            elif rem == 2:
                total = r[2 * j + 1]
                total += sum(map(mul, r[:j], reversed(r[j : 2 * j])))
            else:
                total = r[2 * j + 3] - r[1] * r[2 * j]
                total -= _halve(r[2 * j] ** 2 - s[2 * j], name, n)
                total += sum(map(mul, r[: j + 1], reversed(r[j + 1 : 2 * j + 2])))
                total += sum(map(mul, s[:j], reversed(r[1 : 4 * j - 2 : 4])))
                p = list(map(mul, r[: 2 * j], reversed(r[2 * j + 1 : 4 * j + 1])))
                total += sum(p[1::2]) - sum(p[0::2])
            r[n - 1] = total
    return CoefficientTable(order, rows)


def character(dataset, k):
    """{class name: value} of the k-th irreducible; k = 1 (the trivial
    character) always exists, others only in the dataset's character block."""
    if k == 1:
        return {record.name: 1 for record in dataset.classes}
    if k not in (dataset.characters or {}):
        raise KeyError(f"character values for irreducible {k} are not in the dataset")
    return dataset.characters[k]


def multiplicity(dataset, table, k, j):
    """Multiplicity of the k-th irreducible in the weight-(j+1) piece.

    The character comes from `character` (KeyError when the dataset has
    none for k).  The orthogonality sum must land on a nonnegative integer
    or the dataset is inconsistent.
    """
    if not 1 <= j <= table.order:
        raise IndexError(f"index {j} outside the computed order {table.order}")
    chi = character(dataset, k)
    total = 0
    for record in dataset.classes:
        total += record.class_size * chi[record.name] * table.value(record.name, j)
    mult, remainder = divmod(total, dataset.group_order)
    if remainder:
        raise IntegralityError(
            f"multiplicity of irreducible {k} at index {j} is not integral; "
            f"the dataset is inconsistent"
        )
    if mult < 0:
        raise IntegralityError(
            f"multiplicity of irreducible {k} at index {j} is negative"
        )
    return mult


class NontrivialityRow(NamedTuple):
    j: int
    dim_primary: int
    trivial_multiplicity: int
    verdict: str  # "non-trivial" when the strict inequality holds

    @property
    def holds(self):
        return self.verdict == "non-trivial"


def nontriviality_report(dataset, max_j):
    """Rows (j, dim of weight-(j+1) primaries, trivial multiplicity, verdict)
    for 1 <= j <= max_j.

    The action on the family of subalgebras over the root (1, j) moves
    some member whenever the primary dimension strictly exceeds the
    trivial multiplicity; equality or less is reported as inconclusive
    (the criterion is sufficient, not necessary).

    A failure of the identity-class row would implicate the recursion
    formulas; the identity row is validated elsewhere against the modular
    invariant, so a discrepancy here means inconsistent class data.
    """
    if max_j < 1:
        raise ValueError("max_j must be at least 1")
    table = replicate_extend(dataset, max(max_j, 5))
    dims = primary_dim_series(max_j + 1)
    out = []
    for j in range(1, max_j + 1):
        dim = dims.coeff(j)
        mult = multiplicity(dataset, table, 1, j)
        verdict = "non-trivial" if dim > mult else "inconclusive"
        out.append(NontrivialityRow(j, dim, mult, verdict))
    return out
