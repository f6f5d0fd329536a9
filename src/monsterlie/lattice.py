"""Fock-space model of the rank-2 even unimodular Lorentzian lattice
conformal vertex algebra.

The lattice is Z + Z with pairing <(m1,n1),(m2,n2)> = -m1*n2 - n1*m2
(Gram matrix [[0,-1],[-1,0]]).  States are exact rational combinations of
monomials

    u1(-n1) ... u1/u2(-nk) . iota(a),

where u1 = (1,0) and u2 = (0,1) are the coordinate Heisenberg generators
and iota(a) is the group-algebra image of an element a of the sign double
cover of the lattice.  Every creation mode lambda(-n) is expanded in the
coordinate basis and monomials are kept sorted, so structural equality of
the term dictionaries coincides with equality of states; that exactness
is what the bracket verifications downstream rely on.

The double cover multiplies by (lam, s) * (mu, t) = (lam + mu, s t
eps(lam, mu)) with the bilinear 2-cocycle eps(lam, mu) = (-1)**(lam.m *
mu.n).  Its commutator eps(lam,mu) eps(mu,lam) = (-1)**<lam,mu> is the
one the central extension prescribes; any other bilinear choice differs
only by a rescaling of the iota map, and results downstream are checked
to be invariant under the flip.

Coefficients and coordinates are exact rationals in the coefficient form
of `qseries._coeff`: a plain `int` where integral, a `Fraction` otherwise.
The mode actions run on plain term dictionaries {(mono, abar): coeff}
(`_create`, `_heisenberg`, `_schur_numerators`, `_virasoro_term`), which
accumulate through the one helper `_add`; each public function wraps its
result in one `FockState`, whose constructor checks exactness and drops
zero coefficients through `_exact`.  `gl2.MElement` keeps its terms through
the same `_add` and `_exact`.  A key's abar, an
integer pair, is used as it is: `pairing` and `cocycle_sign` take
coordinate pairs as well as vectors.

The actions are linear, so `virasoro_apply`, `schur_apply` and
`vertex_iota_coeff` clear denominators once per call: `_numerators` scales
the input by d, the lcm of its coefficient denominators, the kernels run
on those integer numerators, and `_over` divides the result by d (times
r! for a Schur term) in one step.  Schur terms are carried as
q_k = k! p_k, whose recurrence q_k = sum_n (k-1)!/(k-n)! lam(-n) q_{k-n}
has integer coefficients, so a lattice point lam never sees a fraction.

Virasoro modes act through the commutation rules

    [L(n), lam(-k)] = k lam(n-k),       L(n) iota(a) = 0        (n >= 1),
    L(0) iota(a) = <abar,abar>/2 iota(a),  L(-1) iota(a) = abar(-1) iota(a),

extended to all n <= -2 on iota vectors by the normal-ordered quadratic
expression in dual-basis modes; the central charge is 2, the rank of the
lattice.  Expanding the conformal vector's modes directly is kept out of
this module and used only as a test oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, perm

from .qseries import _coeff


class UnsupportedStateError(ValueError):
    """A vertex-operator coefficient was requested on a state shape the
    expansion does not cover."""


class LatticeVector:
    """Element of the rank-2 lattice, rational coordinates allowed.

    Rational coordinates occur for Heisenberg modes (the ambient Cartan
    is the lattice tensored with the rationals); double-cover elements
    require integral coordinates.
    """

    __slots__ = ("m", "n")

    def __init__(self, m, n):
        object.__setattr__(self, "m", _coeff(m))
        object.__setattr__(self, "n", _coeff(n))

    def __setattr__(self, name, value):
        raise AttributeError("LatticeVector is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LatticeVector)
            and self.m == other.m
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.m, self.n))

    def __iter__(self):
        return iter((self.m, self.n))

    def __add__(self, other):
        return LatticeVector(self.m + other.m, self.n + other.n)

    def __neg__(self):
        return LatticeVector(-self.m, -self.n)

    def is_integral(self):
        return self.m.denominator == 1 and self.n.denominator == 1

    def int_pair(self):
        if not self.is_integral():
            raise ValueError(f"{self!r} is not a lattice point")
        return (int(self.m), int(self.n))

    def is_zero(self):
        return self.m == 0 and self.n == 0

    def __repr__(self):
        return f"({self.m},{self.n})"


def pairing(u, v):
    """<u,v> = -u.m*v.n - u.n*v.m (symmetric, even, unimodular); u, v may be pairs."""
    (um, un), (vm, vn) = u, v
    return -(um * vn) - (un * vm)


def cocycle_sign(lam, mu):
    """The chosen bilinear 2-cocycle (-1)**(lam.m * mu.n) on lattice points."""
    (m, _), (_, n) = lam, mu
    if m.denominator != 1 or n.denominator != 1:
        raise ValueError("cocycle is defined on lattice points only")
    return -1 if (m.numerator % 2) and (n.numerator % 2) else 1


class HatLatticeElement:
    """Element (vector, sign) of the sign double cover of the lattice."""

    __slots__ = ("vector", "sign")

    def __init__(self, vector, sign=1):
        if not isinstance(vector, LatticeVector):
            vector = LatticeVector(*vector)
        if not vector.is_integral():
            raise ValueError("double-cover elements sit over lattice points")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("HatLatticeElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, HatLatticeElement)
            and self.vector == other.vector
            and self.sign == other.sign
        )

    def __hash__(self):
        return hash((self.vector, self.sign))

    def __repr__(self):
        s = "" if self.sign == 1 else "-"
        return f"{s}hat{self.vector!r}"


HAT_IDENTITY = HatLatticeElement(LatticeVector(0, 0), 1)


def hat_multiply(a, b):
    """Group law of the double cover: signs compose through the cocycle."""
    return HatLatticeElement(
        a.vector + b.vector, a.sign * b.sign * cocycle_sign(a.vector, b.vector)
    )


def hat_inverse(a):
    """Inverse in the double cover: a * hat_inverse(a) is the identity."""
    return HatLatticeElement(-a.vector, a.sign * cocycle_sign(a.vector, -a.vector))


def section(m, n, sign=1):
    """The fixed lift of the lattice point (m, n) used for iota vectors."""
    return HatLatticeElement(LatticeVector(m, n), sign)


# -- Fock states --------------------------------------------------------

# A term key is (mono, abar) with mono a sorted tuple of (axis, n) pairs
# (axis 0 for u1 = (1,0), axis 1 for u2 = (0,1); n >= 1 the mode depth)
# and abar the integer coordinate pair under the covering element, whose
# sign is folded into the coefficient.

_AXIS_VECTORS = ((1, 0), (0, 1))
_AXIS_NAMES = ("u1", "u2")


class FockState:
    """Finite exact-rational combination of creation monomials on iota vectors.

    Creation modes commute, so each key's monomial is sorted and keys that
    then coincide merge; each key's point must be a lattice point and is
    stored as an `int` pair.  The kernels, whose keys are sorted int pairs
    already, skip that step with the private `_sorted=True`."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, *, _sorted=False):
        if terms and not _sorted:
            merged = {}
            for (mono, abar), c in _exact(terms).items():
                point = HatLatticeElement(abar).vector.int_pair()
                _add(merged, {(tuple(sorted(mono)), point): c})
            terms = merged
        object.__setattr__(self, "terms", _exact(terms))

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def iota(cls, a):
        """State iota(a) for a double-cover element; kappa acts as -1."""
        return cls({((), a.vector.int_pair()): a.sign}, _sorted=True)

    @classmethod
    def vacuum(cls):
        return cls.iota(HAT_IDENTITY)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FockState) and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        out = dict(self.terms)
        _add(out, other.terms)
        return FockState(out, _sorted=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockState({k: -c for k, c in self.terms.items()}, _sorted=True)

    def __rmul__(self, scalar):
        c = _coeff(scalar)
        if not c:
            return FockState.zero()
        return FockState({k: c * v for k, v in self.terms.items()}, _sorted=True)

    __mul__ = __rmul__

    def __repr__(self):
        if not self.terms:
            return "FockState(0)"
        parts = []
        for (mono, abar), c in sorted(self.terms.items()):
            ops = "".join(f"{_AXIS_NAMES[a]}(-{n})" for a, n in mono)
            parts.append(f"{c}*{ops}iota{abar}")
        return "FockState(" + " + ".join(parts) + ")"


def _exact(terms):
    """The terms with every coefficient in coefficient form and the zeros
    dropped: the one exactness gate of `FockState` and `gl2.MElement`."""
    if not terms:
        return {}
    return {key: c for key, coeff in terms.items() if (c := _coeff(coeff))}


def _add(out, terms, scale=1):
    """Add scale * terms into the term dict out: the one term accumulator."""
    for key, c in terms.items():
        out[key] = out.get(key, 0) + scale * c


def _numerators(terms):
    """(d, terms * d) with d the lcm of the coefficient denominators, so
    every scaled coefficient is an `int`: the input of the linear kernels."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {key: c.numerator * (d // c.denominator) for key, c in terms.items()}


def _over(terms, d):
    """The state terms / d: the one division of a kernel call."""
    return FockState({key: Fraction(c, d) for key, c in terms.items()}, _sorted=True)


def _create(axis, depth, terms):
    """Append the creation factor u_axis(-depth) to every term."""
    if depth <= 0:
        raise ValueError("creation depth must be positive")
    # one more factor keeps distinct monomials distinct: no keys collide
    return {
        (tuple(sorted(mono + ((axis, depth),))), abar): c
        for (mono, abar), c in terms.items()
    }


def heisenberg_apply(lam, n, state):
    """Apply the Heisenberg mode lam(n) to a state.

    n < 0 appends a creation factor (expanded over the coordinate basis),
    n > 0 contracts against matching creation factors through the bracket
    [lam(m), mu(k)] = <lam,mu> m delta(m+k), and lam(0) multiplies each
    term by <lam, abar>.
    """
    return FockState(_heisenberg(lam, n, state.terms), _sorted=True)


def _heisenberg(lam, n, terms):
    if n == 0:
        # the zero mode rescales each term in place: no keys collide
        return {
            (mono, abar): c * pairing(lam, abar)
            for (mono, abar), c in terms.items()
        }
    out = {}
    if n < 0:
        for axis, c in enumerate(lam):
            if c:
                _add(out, _create(axis, -n, terms), c)
        return out
    # annihilation: contract against each creation factor of depth n
    for (mono, abar), c in terms.items():
        for (axis, depth), count in Counter(mono).items():
            if depth != n:
                continue
            scale = pairing(lam, _AXIS_VECTORS[axis]) * n * count
            reduced = list(mono)
            reduced.remove((axis, depth))
            _add(out, {(tuple(reduced), abar): c}, scale)
    return out


def schur_apply(lam, r, state):
    """Apply the r-th Schur polynomial p_r(lam(-1), lam(-2), ...).

    The p_r are defined by exp(sum_n x_n y**n / n) = sum_r p_r y**r; the
    modes lam(-n) commute, so r! p_r is expanded once on the empty monomial
    (`_schur_numerators`) and multiplied onto each term of the state.
    """
    if r < 0:
        raise ValueError("Schur index must be nonnegative")
    d, terms = _numerators(state.terms)
    q_r = _schur_numerators(lam, r)[r]
    out = {}
    for (mono, abar), c in terms.items():
        _add(out, _times_monomials(q_r, mono, abar), c)
    return _over(out, d * factorial(r))


def _schur_numerators(lam, r):
    """The term dicts of q_k = k! p_k(lam(-1), lam(-2), ...) for k = 0 ... r,
    on the empty monomial (lattice point None).

    r p_r = sum_{n=1}^{r} x_n p_{r-n} becomes
    q_k = sum_{n=1}^{k} (k-1)!/(k-n)! x_n q_{k-n}: integral for a lattice
    point lam, exact rationals otherwise.
    """
    levels = [{((), None): 1}]
    for k in range(1, r + 1):
        acc = {}
        falling = 1  # (k-1)!/(k-n)!
        for n in range(1, k + 1):
            _add(acc, _heisenberg(lam, -n, levels[k - n]), falling)
            falling *= k - n
        levels.append(acc)
    return levels


def _times_monomials(q, mono, abar):
    """The creation factors mono and lattice point abar put onto every term
    of a `_schur_numerators` level."""
    return {(tuple(sorted(mono + extra)), abar): c for (extra, _), c in q.items()}


def vertex_iota_coeff(a, b_state, power):
    """Coefficient of x**power in Y(iota(a), x) applied to b_state.

    The operator is the normal-ordered product of a creation exponential,
    an annihilation exponential, left multiplication by a, and x**abar.
    On a creation monomial the annihilation exponential is a finite sum
    over contraction subsets; the creation exponential then contributes
    the Schur term p_r at x**(r + <abar,bbar> - contracted depth).
    """
    if not isinstance(a, HatLatticeElement):
        raise UnsupportedStateError("the operator argument must cover a lattice point")
    point = a.vector.int_pair()
    d, terms = _numerators(b_state.terms)
    targets = []  # (Schur order, remaining factors, lattice point, numerator)
    for (mono, abar), c in terms.items():
        m, n = abar
        # a times the sign-1 lift of abar, as in the group law `hat_multiply`
        sign = a.sign * cocycle_sign(point, abar)
        target = (point[0] + m, point[1] + n)
        base = pairing(point, abar)
        entries = sorted(Counter(mono).items())
        ranges = [range(count + 1) for _, count in entries]
        for chosen in product(*ranges):
            factor = c * sign
            depth = 0
            remaining = []
            for ((axis, mode), count), s in zip(entries, chosen):
                if s:
                    factor *= comb(count, s) * (-pairing(point, _AXIS_VECTORS[axis])) ** s
                    depth += mode * s
                remaining.extend([(axis, mode)] * (count - s))
            r = power - base + depth
            if factor and r >= 0:
                targets.append((r, tuple(remaining), target, factor))
    # p_r(a(-1), a(-2), ...) depends on a alone: expand r! p_r once, on the
    # empty monomial, and merge each order over the one denominator d top!
    top = max((r for r, *_ in targets), default=0)
    levels = _schur_numerators(point, top)
    out = {}
    for r, remaining, abar, factor in targets:
        weight = factor * perm(top, top - r)  # p_r = q_r top!/r! over top!
        _add(out, _times_monomials(levels[r], remaining, abar), weight)
    return _over(out, d * factorial(top))


# -- Virasoro action -----------------------------------------------------


def virasoro_apply(n, state):
    """Apply the Virasoro mode L(n); exact for every integer n.

    On creation factors the commutation rule [L(n), u(-k)] = k u(n-k) is
    peeled recursively; on iota vectors L(n) annihilates for n >= 1, is
    the grading operator for n = 0, and for n <= -1 contributes abar(n)
    plus (for n <= -2) the normal-ordered quadratic tail in the dual
    coordinate modes.
    """
    d, terms = _numerators(state.terms)
    out = {}
    for (mono, abar), c in terms.items():
        _add(out, _virasoro_term(n, mono, abar, c))
    return _over(out, d)


def _virasoro_term(n, mono, abar, coeff):
    if mono:
        (axis, k), rest = mono[0], mono[1:]
        out = {}
        _add(out, _heisenberg(_AXIS_VECTORS[axis], n - k, {(rest, abar): coeff}), k)
        _add(out, _create(axis, k, _virasoro_term(n, rest, abar, coeff)))
        return out
    if n >= 1:
        return {}
    if n == 0:
        # <abar,abar> = -2 m n is even
        return {((), abar): coeff * (pairing(abar, abar) // 2)}
    # dual-basis quadratic tail -1/2 sum_{n<k<0} (u1(k)u2(n-k) + u2(k)u1(n-k)),
    # the dual of u1 being -u2 and vice versa; each monomial occurs twice
    out = {(((0, -k), (1, k - n)), abar): -coeff for k in range(n + 1, 0)}
    _add(out, _heisenberg(abar, n, {((), abar): coeff}))
    return out


def conformal_vector():
    """The weight-2 conformal state; its modes are the L(n).

    Built from the quadratic dual-basis expression; equals
    -u1(-1)u2(-1)iota(1), and L(2) applied to it returns the vacuum times
    half the central charge (which is 2, the rank of the lattice).
    """
    return virasoro_apply(-2, FockState.vacuum())


def weight_of(state):
    """The grading of a homogeneous state: <abar,abar>/2 + sum of depths.

    Returns the rational weight, or None when the state is zero or mixes
    weights (inhomogeneous).
    """
    weights = set()
    for mono, abar in state.terms:
        weights.add(Fraction(pairing(abar, abar), 2) + sum(n for _, n in mono))
    if len(weights) != 1:
        return None
    return weights.pop()


def is_primary(state):
    """True when every positive Virasoro mode annihilates the state; exact.

    L(n) annihilates iota vectors for n >= 1 and lowers the creation depth
    of every term by exactly n, so all modes beyond the largest depth d of
    a term vanish and checking L(1) ... L(d) decides primality.
    """
    top = max((sum(n for _, n in mono) for mono, _ in state.terms), default=0)
    return all(virasoro_apply(n, state).is_zero() for n in range(1, top + 1))
