"""Normal-form slice of the Monster Lie algebra and its gl2 subalgebras.

Elements are kept in the span of raising generators e(j,u), lowering
generators f(j,v), and Cartan vectors 1 (x) lam(-1) iota(1), with the
moonshine-module tensor factors handled as formal symbols: a symbol is
an immutable value that carries a label, a weight, a primality flag, a
scale and a read-only table of bilinear pairings, each raising or
lowering term names its symbol in its key, and the only contraction the
bracket ever needs is

    u_{2j+1} v = (-1)**j (u, v) * vacuum

for primary u, v of weight j+1, together with the vanishing of every
contraction that lands in the weight-1 subspace (which is zero) or in a
negative weight.  No basis of the moonshine module is ever materialized.

A Cartan vector lam brackets with a raising or lowering term over the
root r by the number +-<lam, r> of the lattice pairing; only a raising
term against a lowering term over the opposite root needs the `lattice`
module, for one vertex-operator contraction.  A bracket whose target
root space is zero (its root (m, n) has m*n = 0 away from the origin, or
m*n < -1) is zero; a bracket landing in a genuinely nonzero root space
outside the modeled span raises rather than ever returning a wrong
answer.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .lattice import (
    _AXIS_VECTORS,
    FockState,
    _Terms,
    _coeff,
    _pairing,
    is_primary,
    section,
    vertex_iota_coeff,
)
from .qseries import _int, j_series


class Gl2ValidationError(ValueError):
    """Invalid input to a gl2 construction."""


class NotPrimaryError(Gl2ValidationError):
    """A tensor-factor symbol is not flagged primary."""


class WeightMismatchError(Gl2ValidationError):
    """Symbol weights do not match the root index."""


class PairingNormalizationError(Gl2ValidationError):
    """The pairing of the symbol pair is not (-1)**j (or is undefined)."""


class UnsupportedBracketError(ValueError):
    """The bracket lands outside the supported normal-form span."""


VACUUM_LABEL = "1"


class FormalNaturalVector(
    NamedTuple(
        "FormalNaturalVector",
        [("label", str), ("weight", int), ("primary", bool),
         ("scale", Fraction), ("pairings", MappingProxyType)],
    )
):
    """Formal primary vector of the moonshine module.

    `pairings` is a read-only map from unordered label pairs to exact
    rationals, the values of the invariant bilinear form normalized so the
    vacuum pairs with itself to -1.  `scale` lets proportional partners
    share one label.  A symbol is immutable and hashes by label and weight,
    so a term key can name it.
    """

    __slots__ = ()

    def __new__(cls, label, weight, primary=True, scale=1, pairings=None):
        if (weight := _int(weight, "weight")) < 0:
            raise ValueError("weights are nonnegative")
        table = {}
        if pairings:
            for (la, lb), value in pairings.items():
                key, value = _pair_key(la, lb), _coeff(value)
                if table.setdefault(key, value) != value:
                    raise Gl2ValidationError(
                        f"pairing ({la}, {lb}) is given as {table[key]} and as {value}"
                    )
        return super().__new__(
            cls, label, weight, bool(primary), _coeff(scale), MappingProxyType(table)
        )

    def rescaled(self, factor):
        """The symbol with its scale times factor; the validated read-only
        pairing table is shared, not rebuilt."""
        return self._replace(scale=_coeff(self.scale * _coeff(factor)))

    def base(self):
        """The symbol at scale 1: itself when it is unscaled."""
        return self if self.scale == 1 else self._replace(scale=1)

    def __hash__(self):
        # the read-only pairing table does not hash; equal symbols agree on
        # label and weight
        return hash((self.label, self.weight))

    def __repr__(self):
        prefix = "" if self.scale == 1 else f"{self.scale}*"
        return f"{prefix}{self.label}[wt {self.weight}]"


def _pair_key(la, lb):
    return (la, lb) if la <= lb else (lb, la)


def vacuum_vector():
    """The vacuum symbol: weight 0, primary, and (1, 1) = -1."""
    return FormalNaturalVector(
        VACUUM_LABEL, 0, True, 1, {(VACUUM_LABEL, VACUUM_LABEL): -1}
    )


def _table_pairing(u, v):
    """The unscaled (u, v) recorded in either symbol's table, else None;
    `Gl2ValidationError` when one label names two symbols that differ in
    more than scale, or when the two tables record different values."""
    if u.label == v.label and (u.weight, u.primary, u.pairings) != (
            v.weight, v.primary, v.pairings):
        raise Gl2ValidationError(f"conflicting symbols for label {u.label!r}")
    key = _pair_key(u.label, v.label)
    value, other = u.pairings.get(key), v.pairings.get(key)
    if value is None:
        return other
    if other is not None and other != value:
        raise Gl2ValidationError(
            f"pairing ({u.label}, {v.label}) is {value} in {u.label}'s table "
            f"and {other} in {v.label}'s"
        )
    return value


def pairing_value(u, v):
    """(u, v) from either symbol's table; raises when it is missing or the tables disagree."""
    value = _table_pairing(u, v)
    if value is None:
        raise PairingNormalizationError(
            f"pairing ({u.label}, {v.label}) is not defined"
        )
    return value * u.scale * v.scale


def normalize_partner(j, u):
    """Partner v = (-1)**j u / (u,u) so that the contraction of u against v
    is exactly the vacuum.

    Reads (u,u) from u's table, which must record it
    (`PairingNormalizationError` otherwise) and is only read, and requires
    (u,u) > 0 (positive-definite normalization of the form on the nonvacuum
    part).  The resulting pair always satisfies the pairing condition of `make_gl2`.
    """
    uu = pairing_value(u, u)
    if uu <= 0:
        raise Gl2ValidationError(
            f"(u,u) must be positive for a positive-definite form, got {uu}"
        )
    return u.rescaled(Fraction((-1) ** (j % 2)) / uu)


def primary_pair(j, norm=1, label="u"):
    """A matched primary pair (u, v) for the root index j.

    For j = -1 both members degenerate to the vacuum symbol; otherwise u
    is a fresh symbol with (u,u) = norm > 0 and v its normalized partner.
    """
    _check_root_index(j)
    if j == -1:
        vac = vacuum_vector()
        return vac, vac
    u = FormalNaturalVector(label, j + 1, True, 1, {(label, label): norm})
    return u, normalize_partner(j, u)


def _check_root_index(j):
    if type(j) is not int or j == 0 or j < -1:
        raise Gl2ValidationError(f"root index must be -1 or a positive integer, got {j}")


# -- Cartan matrix -------------------------------------------------------


def cartan_entry(i, j):
    """Entry of the Borcherds Cartan matrix between the blocks labeled i, j.

    Blocks are labeled by -1 and the positive integers (the block for
    label i has multiplicity c(i)); the entry depends only on the labels:
    A(i, j) = -(i + j).
    """
    _check_root_index(i)
    _check_root_index(j)
    return -(i + j)


def cartan_block_sizes(labels):
    """Multiplicities of the blocks with the given labels, in order: 1 for
    the real label -1, otherwise the modular-invariant coefficient c(i).
    One expansion of the invariant, to the largest label, serves them all."""
    for i in labels:
        _check_root_index(i)
    top = max(labels, default=-1)
    j = j_series(top) if top > 0 else None
    return [1 if i == -1 else j.coeff(i) for i in labels]


def cartan_block_size(i):
    """Multiplicity of the block labeled i (see `cartan_block_sizes`)."""
    return cartan_block_sizes([i])[0]


# -- normal-form elements --------------------------------------------------


class MElement(_Terms):
    """Element of the modeled slice: one exact term dict over the generator
    keys ("e", root index, symbol) and ("f", root index, symbol), each
    symbol at scale 1 as the scale lives in the coefficient, and the Cartan
    coordinates ("h", axis) on the Fock axes u1 = (1, 0) and u2 = (0, 1);
    a `lattice._Terms`."""

    __slots__ = ("numer", "den")

    @staticmethod
    def _key(key):
        """An outside term key, unchanged; `Gl2ValidationError` when its
        third entry is not a symbol, or is one at a scale other than 1."""
        if key[0] == "h":
            return key
        if len(key) != 3 or not isinstance(key[2], FormalNaturalVector):
            raise Gl2ValidationError(f"term key {key!r} does not name a FormalNaturalVector")
        if key[2].scale != 1:
            raise Gl2ValidationError(
                f"term key {key!r} names a symbol at scale {key[2].scale}: "
                "the coefficient carries the scale"
            )
        return key

    @classmethod
    def cartan_vector(cls, m, n):
        """1 (x) lam(-1) iota(1) for lam = (m, n)."""
        return cls({("h", 0): m, ("h", 1): n})

    @property
    def cartan(self):
        """The Cartan part as a coordinate pair (m, n), read off `terms`."""
        return self.terms.get(("h", 0), 0), self.terms.get(("h", 1), 0)

    def __repr__(self):
        terms = [(key, c) for key, c in self.terms.items() if key[0] != "h"]
        terms.sort(key=lambda term: (term[0][0], term[0][1], term[0][2].label))
        parts = [f"{c}*{kind}({j},{symbol.label})" for (kind, j, symbol), c in terms]
        if any(self.cartan):
            parts.append("cartan({},{})".format(*self.cartan))
        return "MElement(" + (" + ".join(parts) if parts else "0") + ")"


class Gl2Generators(NamedTuple):
    e: MElement
    f: MElement
    h1: MElement
    h2: MElement
    j: int
    u: FormalNaturalVector
    v: FormalNaturalVector

    @property
    def h(self):
        """The sl2 coroot h = h1 - h2 (Cartan vector over (1, -1))."""
        return self.h1 - self.h2

    @property
    def z(self):
        """The central direction z = -(h1 + h2) (Cartan vector over (1, 1))."""
        return -1 * (self.h1 + self.h2)


def make_gl2(j, u, v, section_sign=1):
    """Generators e(j,u), f(j,v), h1, h2 of the gl2 subalgebra attached to
    the simple root (1, j) and a matched primary pair.

    Requires u, v primary of weight j+1 with (u, v) = (-1)**j, equivalent
    to the contraction of u against v being exactly the vacuum.  For
    j = -1 the symbols degenerate to the vacuum and the construction
    recovers the subalgebra over the real simple root.  `section_sign`
    picks the lift of (1, j) in the double cover; flipping it negates e
    and f and must leave every bracket of interest unchanged.  The
    coefficients of e and f are the scales of u and v up to a sign, their
    keys carry u and v at scale 1, and h1, h2 are the shared immutable
    Cartan vectors `_H1`, `_H2`.
    """
    _check_root_index(j)
    if type(section_sign) is not int or section_sign not in (1, -1):
        raise Gl2ValidationError("section_sign must be +1 or -1")
    if not u.primary:
        raise NotPrimaryError(f"{u!r} is not primary")
    if not v.primary:
        raise NotPrimaryError(f"{v!r} is not primary")
    if u.weight != j + 1 or v.weight != j + 1:
        raise WeightMismatchError(
            f"root index {j} needs weight {j + 1} symbols, got "
            f"{u.weight} and {v.weight}"
        )
    value = pairing_value(u, v)
    expected = (-1) ** (j % 2)
    if value != expected:
        raise PairingNormalizationError(
            f"(u,v) must be {expected} for root index {j}, got {value}"
        )
    e_scale = u.scale if section_sign == 1 else -u.scale
    f_scale = v.scale if section_sign == (-1) ** (j % 2) else -v.scale
    e = MElement({("e", j, u.base()): e_scale.numerator}, den=e_scale.denominator)
    f = MElement({("f", j, v.base()): f_scale.numerator}, den=f_scale.denominator)
    return Gl2Generators(e, f, _H1, _H2, j, u, v)


# every gl2 shares h1, h2, every relation report compares against one zero,
# and every j >= 1 is checked against the real-root subalgebra; MElement is
# immutable
_H1 = MElement.cartan_vector(0, -1)
_H2 = MElement.cartan_vector(-1, 0)
_ZERO = MElement()
_REAL_ROOT_GL2 = make_gl2(-1, vacuum_vector(), vacuum_vector())


# -- the bracket ------------------------------------------------------------


def _root_of(key):
    """The root (1, j) of a raising key, (-1, -j) of a lowering key."""
    return (1, key[1]) if key[0] == "e" else (-1, -key[1])


def bracket(x, y):
    """Lie bracket on the modeled slice.

    A Cartan vector lam acts on a raising or lowering term by its zero
    mode, the number <lam, root>: [h, t] = <lam, root> t = -[t, h].  Two
    Cartan vectors commute, as a Cartan representative lies over the
    lattice point 0.  A raising term against a lowering term over one
    root index is the one vertex-operator contraction
    u_{2j+1} v (x) Y(iota(a), x) iota(-a), of which only the first Schur
    order survives: order r lands the moonshine contraction in weight
    1 - r, which vanishes for r = 0 (zero weight-1 subspace) and for
    r >= 2 (negative weight).  Every other pair of terms lands in a zero
    root space, or raises UnsupportedBracketError when it lands in a
    nonzero root space outside the e/f/Cartan span (for instance two
    raising generators over imaginary roots); never returns a silently
    wrong answer.  Each pair of terms passes its numerators on to
    `_generator_bracket`, which forms their product only for a nonzero
    bracket, so a vanishing pair costs no multiplication; the sum is over
    the denominator x.den * y.den.
    """
    if not isinstance(x, MElement) or not isinstance(y, MElement):
        raise TypeError("bracket expects MElement arguments")
    out = {}
    for kx, cx in x.numer.items():
        for ky, cy in y.numer.items():
            _generator_bracket(out, kx, cx, ky, cy)
    return MElement(out, den=x.den * y.den)


def _generator_bracket(out, kx, cx, ky, cy):
    """Add [cx kx, cy ky], for two generator keys of an `MElement` and
    their numerators, into the call's one term dict out, the kernel shape
    of the lattice mode actions.  Each scalar is formed once: the pairing
    <lam, root> times cx * cy for a Cartan vector, and for a
    raising-lowering pair the contraction scalar times cx * cy, a
    `Fraction` only where a pairing-table value or a Fock coordinate is
    one."""
    if kx[0] == "h" or ky[0] == "h":
        if kx[0] == ky[0]:
            return  # two Cartan vectors commute
        if kx[0] == "h":
            key, c = ky, _pairing(_AXIS_VECTORS[kx[1]], _root_of(ky)) * cx * cy
        else:
            key, c = kx, -_pairing(_AXIS_VECTORS[ky[1]], _root_of(kx)) * cx * cy
        out[key] = out.get(key, 0) + c
        return
    a, b = _root_of(kx), _root_of(ky)
    m, n = a[0] + b[0], a[1] + b[1]
    if m == n == 0:
        # u_{2j+1} v = (-1)**j (u, v) * vacuum for weight-(j+1) symbols
        if (value := _table_pairing(kx[2], ky[2])) is None:
            raise UnsupportedBracketError(f"pairing ({kx[2].label}, {ky[2].label}) is not defined")
        scale = (-1) ** (kx[1] % 2) * value * cx * cy
        power = _pairing(a, b) + 1  # Schur order r = 1
        iota_b = FockState({((), b): 1}, den=1)
        state = vertex_iota_coeff(section(*a), iota_b, power)
        for (mono, abar), c in state.terms.items():
            if abar != (0, 0) or len(mono) != 1 or mono[0][1] != 1:
                raise UnsupportedBracketError(
                    f"state {state!r} is not a Cartan representative"
                )
            # the coefficients of u1(-1) iota(1) and u2(-1) iota(1) are the
            # Cartan coordinates on those axes
            key, c = ("h", mono[0][0]), scale * c
            out[key] = out.get(key, 0) + c
        return
    if m * n == -1 or m * n >= 1:
        # away from the origin a root space is zero exactly when the
        # graded dimension c(m*n) is: at m*n = 0 or m*n <= -2
        raise UnsupportedBracketError(
            f"bracket lands in root space ({m},{n}), outside the supported span"
        )


# -- verification ------------------------------------------------------------


class RelationCheck(NamedTuple):
    name: str
    category: str  # "core", "sl2", or "cross"
    passed: bool
    detail: str = ""


class RelationReport(NamedTuple):
    j: int
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def count(self, category):
        """(passed, total) of the checks in `category`; shadows tuple.count."""
        members = [c for c in self.checks if c.category == category]
        return sum(c.passed for c in members), len(members)

    def summary_lines(self):
        lines = []
        for category, noun in (
            ("core", "relations"),
            ("sl2", "sl2 relations"),
            ("cross", "cross-relations"),
        ):
            passed, total = self.count(category)
            if total or category == "core":
                lines.append(f"{passed}/{total} {noun} pass")
        return lines


def _check(name, category, lhs, rhs):
    passed = lhs == rhs
    detail = "" if passed else f"got {lhs!r}, expected {rhs!r}"
    return RelationCheck(name, category, passed, detail)


def verify_relations(j, u, v, section_sign=1):
    """Evaluate every defining relation of the gl2 subalgebra for (j, u, v)
    that stays in the supported span and report pass/fail per relation.

    Covers the commuting Cartan pair, the four Cartan eigenvalue
    relations, the raising-lowering bracket, the sl2 triple at j = -1,
    and (for j >= 1) the vanishing cross-brackets against the real-root
    generators.
    """
    gens = make_gl2(j, u, v, section_sign=section_sign)
    e, f, h1, h2 = gens.e, gens.f, gens.h1, gens.h2
    checks = [
        _check("[h1, h2] == 0", "core", bracket(h1, h2), _ZERO),
        _check("[h1, e] == e", "core", bracket(h1, e), e),
        _check(f"[h2, e] == {j}*e", "core", bracket(h2, e), j * e),
        _check("[h1, f] == -f", "core", bracket(h1, f), -1 * f),
        _check(f"[h2, f] == {-j}*f", "core", bracket(h2, f), -j * f),
        _check(
            f"[e, f] == -({j}*h1 + h2)",
            "core",
            bracket(e, f),
            -1 * (j * h1 + h2),
        ),
    ]
    if j == -1:
        h = gens.h
        checks += [
            _check("[e, f] == h", "sl2", bracket(e, f), h),
            _check("[h, e] == 2*e", "sl2", bracket(h, e), 2 * e),
            _check("[h, f] == -2*f", "sl2", bracket(h, f), -2 * f),
        ]
    else:
        real = _REAL_ROOT_GL2
        checks += [
            _check("[e(-1), f] == 0", "cross", bracket(real.e, f), _ZERO),
            _check("[e, f(-1)] == 0", "cross", bracket(e, real.f), _ZERO),
            _check("[f(-1), e] == 0", "cross", bracket(real.f, e), _ZERO),
            _check("[f, e(-1)] == 0", "cross", bracket(f, real.e), _ZERO),
        ]
    return RelationReport(j, checks)


def primality_of_representatives(j, u):
    """Check that the tensor representative of e(j,u) is primary of weight 1.

    L(n)(x (x) y) = L(n)x (x) y + x (x) L(n)y: the first summand vanishes
    by the primality flag of u, the second as iota(1, j) is primary (for a
    bare iota vector `is_primary` decides by its depth bound, 0, and applies
    no Virasoro mode), and the weights sum to (j + 1) + (-j) = 1, as
    iota(1, j) has weight <(1,j),(1,j)>/2 = -j for every j.
    """
    _check_root_index(j)
    if not u.primary:
        return False
    if u.weight != j + 1:
        return False
    return is_primary(FockState.iota(section(1, j)))
