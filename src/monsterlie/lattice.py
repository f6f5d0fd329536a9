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
eps(lam, mu)) with the bilinear 2-cocycle eps((m1,n1), (m2,n2)) =
(-1)**(m1 * n2).  Its commutator eps(lam,mu) eps(mu,lam) =
(-1)**<lam,mu> is the one the central extension prescribes; any other
bilinear choice differs only by a rescaling of the iota map, and results
downstream are checked to be invariant under the flip.

A vector is a coordinate pair (m, n) and a lattice point a pair of
`int`s.  Coefficients and coordinates are exact rationals in the
coefficient form of `_coeff`: a plain `int` where integral, a
`Fraction` otherwise; `_vector` and `_point` gate the pairs that come from
outside, and inside the module the form and the cocycle are the bare
`_pairing` and `_cocycle` on pairs already in that form.  A state stores
its terms {(mono, abar): coeff} as integer numerators over one positive
denominator, in lowest terms (`_Terms`); its `terms` are the coefficient
form, built on each read.  Terms accumulate by one rule,
out[key] = out.get(key, 0) + c, in the kernels, the sums of `_Terms` and
the gl2 bracket.

The four mode actions `heisenberg_apply`, `virasoro_apply`, `schur_apply`
and `vertex_iota_coeff` are linear and share one kernel shape: the kernel
reads the input's numerators and denominator d, writes the rule out key
by key into one dict per call, and hands it to one `FockState` over d
(times top! for a Schur merge), whose constructor reduces it.  Both Schur
users merge through `_schur_terms`.
Schur terms are carried as q_k = k! p_k, built term by term from the
cycle-type formula k! p_k = sum_{mu |- k} (k!/z_mu) p_mu on each axis:
k!/z_mu counts permutations, so a lattice point lam never sees a
fraction.  `_Terms`, the immutable term dict of states and of
`gl2.MElement`, owns their outside-term gate, normal form, equality,
sums, differences and scalar multiples.

Virasoro modes act through the commutation rules

    [L(n), lam(-k)] = k lam(n-k),       L(n) iota(a) = 0        (n >= 1),
    L(0) iota(a) = <abar,abar>/2 iota(a),  L(-1) iota(a) = abar(-1) iota(a),

extended to all n <= -2 on iota vectors by the normal-ordered quadratic
expression in dual-basis modes; the central charge is 2, the rank of the
lattice.  Expanding the conformal vector's modes directly is kept out of
this module and used only as a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product
from math import comb, factorial, gcd, lcm, perm
from typing import NamedTuple

from .qseries import _int


def _coeff(value):
    """An exact rational in coefficient form: a plain `int` where integral,
    a `Fraction` otherwise; `TypeError` on anything else (`bool` included)."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _vector(pair):
    """A vector (m, n) of the rational span, both coordinates in the
    coefficient form of `_coeff`; `TypeError` on an inexact coordinate."""
    m, n = pair
    return _coeff(m), _coeff(n)


def _point(pair):
    """A lattice point: the vector `pair` as an `int` pair; `ValueError`
    off the lattice."""
    m, n = _vector(pair)
    if type(m) is not int or type(n) is not int:
        raise ValueError(f"double-cover elements sit over lattice points: ({m},{n})")
    return m, n


def pairing(u, v):
    """<(m1,n1),(m2,n2)> = -m1*n2 - n1*m2 (symmetric, even, unimodular) of
    two vectors; `TypeError` on an inexact coordinate."""
    return _pairing(_vector(u), _vector(v))


def cocycle_sign(lam, mu):
    """The chosen bilinear 2-cocycle (-1)**(m1 * n2) of the lattice points
    (m1, n1), (m2, n2); `ValueError` off the lattice."""
    return _cocycle(_point(lam), _point(mu))


def _pairing(u, v):
    """`pairing` of two vectors already in coefficient form."""
    (um, un), (vm, vn) = u, v
    return -(um * vn) - (un * vm)


def _cocycle(lam, mu):
    """`cocycle_sign` of two lattice points already `int` pairs."""
    return -1 if lam[0] & mu[1] & 1 else 1


class HatLatticeElement(NamedTuple("HatLatticeElement", [("vector", tuple), ("sign", int)])):
    """Element (vector, sign) of the sign double cover of the lattice, its
    vector an `int` pair (m, n)."""

    __slots__ = ()

    def __new__(cls, vector, sign=1):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, _point(vector), sign)

    def __repr__(self):
        s = "" if self.sign == 1 else "-"
        return f"{s}hat({self.vector[0]},{self.vector[1]})"


HAT_IDENTITY = HatLatticeElement((0, 0), 1)


def hat_multiply(a, b):
    """Group law of the double cover: signs compose through the cocycle."""
    (am, an), (bm, bn) = a.vector, b.vector
    sign = a.sign * b.sign * _cocycle(a.vector, b.vector)
    return HatLatticeElement((am + bm, an + bn), sign)


def hat_inverse(a):
    """Inverse in the double cover: a * hat_inverse(a) is the identity."""
    m, n = a.vector
    return HatLatticeElement((-m, -n), a.sign * _cocycle(a.vector, (-m, -n)))


def section(m, n, sign=1):
    """The fixed lift of the lattice point (m, n) used for iota vectors."""
    return HatLatticeElement((m, n), sign)


# -- exact term dicts -----------------------------------------------------


class _Terms:
    """One immutable exact term dict: `FockState` and `gl2.MElement`, each
    with the slots `numer` and `den` and a static `_key` gate.  The terms
    are numer[key] / den, every numerator a nonzero `int` and den a positive
    `int`, in lowest terms, so equal elements store equal `(den, numer)`.

    The constructor is the one normaliser.  Outside terms {key: coeff}
    pass `_key` and `_coeff`, and keys that then coincide merge; kernel
    output comes in as numerators over `den=d`.  Either way zero entries
    are dropped, a `Fraction` numerator has its denominator cleared into
    den, and the gcd of den and the numerators is divided out.  Sums and
    differences are integer dict operations over the lcm of the two
    denominators, arithmetic stays within one type, and `1 * x` is x
    itself."""

    __slots__ = ()

    def __init__(self, terms=None, *, den=None):
        if den is None:
            numer = {}
            if terms:
                for key, c in terms.items():
                    key = self._key(key)
                    numer[key] = numer.get(key, 0) + _coeff(c)
            terms, den = numer, 1
        if 0 in terms.values():  # a rebuild re-hashes every key, so only on need
            terms = {key: c for key, c in terms.items() if c}
        try:
            g = gcd(den, *terms.values())
        except TypeError:  # a rational numerator: clear its denominator into den
            d = lcm(*(c.denominator for c in terms.values()))
            terms = {key: c.numerator * (d // c.denominator) for key, c in terms.items()}
            den *= d
            g = gcd(den, *terms.values())
        if g != 1:
            terms = {key: c // g for key, c in terms.items()}
            den //= g
        object.__setattr__(self, "numer", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self):
        """{key: coeff} in the coefficient form of `_coeff`, built on each read."""
        den = self.den
        if den == 1:
            return dict(self.numer)
        return {k: c // den if c % den == 0 else Fraction(c, den) for k, c in self.numer.items()}

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.numer

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self.numer == other.numer

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        den = lcm(self.den, other.den)
        scale, other_scale = den // self.den, sign * (den // other.den)
        out = dict(self.numer) if scale == 1 else {k: scale * c for k, c in self.numer.items()}
        for key, c in other.numer.items():
            out[key] = out.get(key, 0) + other_scale * c
        return type(self)(out, den=den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rmul__(self, scalar):
        c = _coeff(scalar)
        if c == 1:
            return self
        p = c.numerator
        return type(self)({k: p * v for k, v in self.numer.items()}, den=self.den * c.denominator)

    __mul__ = __rmul__


# -- Fock states --------------------------------------------------------

# A term key is (mono, abar) with mono a sorted tuple of (axis, n) pairs
# (axis 0 for u1 = (1,0), axis 1 for u2 = (0,1); n >= 1 the mode depth)
# and abar the integer coordinate pair under the covering element, whose
# sign is folded into the coefficient.

_AXIS_VECTORS = ((1, 0), (0, 1))
_AXIS_NAMES = ("u1", "u2")


class FockState(_Terms):
    """Finite exact-rational combination of creation monomials on iota
    vectors, a `_Terms`; creation modes commute, so `_key` sorts each
    outside key's monomial."""

    __slots__ = ("numer", "den")

    @staticmethod
    def _key(key):
        """A term key from outside in kernel form: each creation factor an
        `int` pair (axis, depth) with axis 0 or 1 and depth >= 1, the
        factors sorted, the point an `int` pair; `ValueError` otherwise."""
        mono, abar = key
        for axis, depth in mono:
            if {type(axis), type(depth)} != {int} or axis not in (0, 1) or depth < 1:
                raise ValueError(f"creation factor {(axis, depth)} needs axis 0 or 1, depth >= 1")
        return tuple(sorted(mono)), _point(abar)

    @classmethod
    def iota(cls, a):
        """State iota(a) for a double-cover element; kappa acts as -1."""
        return cls({((), a.vector): a.sign}, den=1)

    @classmethod
    def vacuum(cls):
        return cls.iota(HAT_IDENTITY)

    def __neg__(self):
        return -1 * self

    def __repr__(self):
        if not self.numer:
            return "FockState(0)"
        parts = []
        for (mono, abar), c in sorted(self.terms.items()):
            ops = "".join(f"{_AXIS_NAMES[a]}(-{n})" for a, n in mono)
            parts.append(f"{c}*{ops}iota{abar}")
        return "FockState(" + " + ".join(parts) + ")"


def heisenberg_apply(lam, n, state):
    """Apply the Heisenberg mode lam(n) to a state.

    n < 0 appends a creation factor (expanded over the coordinate basis),
    n > 0 contracts against matching creation factors through the bracket
    [lam(m), mu(k)] = <lam,mu> m delta(m+k), and lam(0) multiplies each
    term by <lam, abar>.
    """
    lam = _vector(lam)
    _int(n, "n")
    out = {}
    for (mono, abar), c in state.numer.items():
        if n == 0:
            key = (mono, abar)
            out[key] = out.get(key, 0) + c * _pairing(lam, abar)
        elif n < 0:
            for axis, x in enumerate(lam):
                if x:
                    key = (tuple(sorted(mono + ((axis, -n),))), abar)
                    out[key] = out.get(key, 0) + x * c
        else:
            # contract against each creation factor of depth n; equal
            # factors sit together and drop to one key, once per copy
            for i, (axis, depth) in enumerate(mono):
                if depth == n:
                    key = (mono[:i] + mono[i + 1 :], abar)
                    scale = _pairing(lam, _AXIS_VECTORS[axis]) * n
                    out[key] = out.get(key, 0) + scale * c
    return FockState(out, den=state.den)


def schur_apply(lam, r, state):
    """Apply the r-th Schur polynomial p_r(lam(-1), lam(-2), ...).

    The p_r are defined by exp(sum_n x_n y**n / n) = sum_r p_r y**r; the
    modes lam(-n) commute, so r! p_r is expanded once on the empty monomial
    (`_schur_numerators`) and multiplied onto each term of the state.
    """
    if _int(r, "r") < 0:
        raise ValueError("Schur index must be nonnegative")
    targets = {(r, mono, abar): c for (mono, abar), c in state.numer.items()}
    return _schur_terms(_vector(lam), targets, state.den)


def _schur_terms(lam, targets, d):
    """The state sum of c p_r(lam(-1), lam(-2), ...) mono iota(abar) over
    the targets {(r, mono, abar): c}, divided by d: the one Schur merge.

    r! p_r is expanded once per order the targets carry and every order is
    merged over the one denominator d top!; its keys come sorted, so a bare
    iota target takes them as they are."""
    levels = _schur_numerators(lam, {r for r, _, _ in targets})
    top = len(levels) - 1
    out = {}
    for (r, mono, abar), c in targets.items():
        weight = c * perm(top, top - r)  # p_r = q_r top!/r! over top!
        for extra, q in levels[r].items():
            key = (tuple(sorted(mono + extra)) if mono else extra, abar)
            out[key] = out.get(key, 0) + weight * q
    return FockState(out, den=d * factorial(top))


def _schur_numerators(lam, orders):
    """[q_0, ..., q_top], q_r = r! p_r(lam(-1), lam(-2), ...) as a dict
    {monomial: coefficient} for r in orders and None for the other r.

    exp(sum_n lam(-n) y**n / n) factors over the two axes, so
    q_r = sum_i C(r, i) A_i B_{r-i} with A and B from `_cycle_types`;
    axis-0 factors sort first, so each key comes out sorted and once."""
    top = max(orders) if orders else 0
    first, second = _cycle_types(0, lam[0], top), _cycle_types(1, lam[1], top)
    levels = [None] * (top + 1)
    for r in orders:
        # i = r and i = 0 hold one axis alone, since A_0 = B_0 = 1
        level = levels[r] = dict(first[r])
        level.update(second[r])
        for i in range(1, r):
            if first[i] and second[r - i]:
                binom = comb(r, i)
                for a, ca in first[i]:
                    ca *= binom
                    for b, cb in second[r - i]:
                        level[a + b] = ca * cb
    return levels


def _cycle_types(axis, x, top):
    """[A_0, ..., A_top], A_i = [(u(-mu), x**len(mu) i!/z_mu) for mu |- i]
    = i! p_i(x u(-1), x u(-2), ...), u the generator of `axis`, by the
    cycle-type formula, z_mu = prod_n n**m_n m_n!.  The lists start from
    mu = 1**i (i!/z_mu = 1); m parts n >= 2 added to a partition of j then
    multiply its coefficient by x**m (j+nm)!/(j! n**m m!), an integer times
    x**m.  Parts grow, so each monomial comes out sorted."""
    if not x:
        return [[((), 1)]] + [[]] * top
    tables, mono, c = [], (), 1
    for _ in range(top + 1):
        tables.append([(mono, c)])
        mono += ((axis, 1),)
        c *= x
    for n in range(2, top + 1):
        part = ((axis, n),)
        for j in range(top - n, -1, -1):  # the partitions of j into parts below n
            steps, ratio, power = [], 1, 1
            for m in range(1, (top - j) // n + 1):
                ratio = ratio * perm(j + n * m, n) // (n * m)
                power *= x
                steps.append((tables[j + n * m], ratio * power))
            for mono, c in tables[j]:
                for target, step in steps:
                    mono += part
                    target.append((mono, c * step))
    return tables


def vertex_iota_coeff(a, b_state, power):
    """Coefficient of x**power in Y(iota(a), x) applied to b_state.

    The operator is the normal-ordered product of a creation exponential,
    an annihilation exponential, left multiplication by a, and x**abar.
    On a creation monomial the annihilation exponential is a finite sum
    over contraction subsets; the creation exponential then contributes
    the Schur term p_r at x**(r + <abar,bbar> - contracted depth).
    """
    if not isinstance(a, HatLatticeElement):
        raise TypeError("the operator argument must be a HatLatticeElement")
    _int(power, "power")
    point = a.vector
    targets = {}  # (Schur order, remaining factors, lattice point): numerator
    for (mono, abar), c in b_state.numer.items():
        m, n = abar
        # a times the sign-1 lift of abar, as in the group law `hat_multiply`
        sign = a.sign * _cocycle(point, abar)
        target = (point[0] + m, point[1] + n)
        base = _pairing(point, abar)
        entries = [(pair, len(list(run))) for pair, run in groupby(mono)]
        ranges = [range(count + 1) for _, count in entries]
        for chosen in product(*ranges):
            factor = c * sign
            depth = 0
            remaining = []
            for ((axis, mode), count), s in zip(entries, chosen):
                if s:
                    factor *= comb(count, s) * (-_pairing(point, _AXIS_VECTORS[axis])) ** s
                    depth += mode * s
                remaining.extend([(axis, mode)] * (count - s))
            r = power - base + depth
            if factor and r >= 0:
                key = (r, tuple(remaining), target)
                targets[key] = targets.get(key, 0) + factor
    if 0 in targets.values():
        targets = {key: c for key, c in targets.items() if c}
    return _schur_terms(point, targets, b_state.den)


# -- Virasoro action -----------------------------------------------------


def virasoro_apply(n, state):
    """Apply the Virasoro mode L(n); exact for every integer n.

    By [L(n), u(-k)] = k u(n-k), L(n) takes f_1 ... f_L iota(abar), with
    f_i = u_{a_i}(-k_i), to the sum over i of k_i times the other factors
    times u_{a_i}(n - k_i) applied to f_{i+1} ... f_L iota(abar), plus
    f_1 ... f_L L(n) iota(abar).  With p = n - k_i, factor i becomes
    u_{a_i}(-(k_i - n)) for p < 0, drops out with <u_{a_i}, abar> for
    p = 0, and for p > 0 contracts with each later factor u_{1-a_i}(-p)
    at -k_i p (<u1,u2> = -1, <u_a,u_a> = 0).  On iota vectors L(n)
    annihilates for n >= 1, is the grading operator for n = 0, and for
    n <= -1 contributes abar(n) plus (for n <= -2) the normal-ordered
    quadratic tail in the dual coordinate modes.
    """
    _int(n, "n")
    out = {}
    for (mono, abar), c in state.numer.items():
        for i, (axis, k) in enumerate(mono):
            p = n - k
            rest = mono[:i] + mono[i + 1 :]
            if p < 0:
                key = (tuple(sorted(rest + ((axis, -p),))), abar)
                out[key] = out.get(key, 0) + k * c
            elif p == 0:
                key = (rest, abar)
                out[key] = out.get(key, 0) + k * c * _pairing(_AXIS_VECTORS[axis], abar)
            else:
                # each opposite-axis pair with k_i + k_j = n contracts once, at
                # -k_i k_j, so taking the later factor of the pair loses nothing
                partner = (1 - axis, p)
                for j in range(i + 1, len(mono)):
                    if mono[j] == partner:
                        key = (rest[: j - 1] + rest[j:], abar)
                        out[key] = out.get(key, 0) - k * p * c
        if n == 0:
            # <abar,abar> = -2 m n is even
            key = (mono, abar)
            out[key] = out.get(key, 0) + c * (_pairing(abar, abar) // 2)
        elif n < 0:
            # abar(n), then the dual-basis quadratic tail
            # -1/2 sum_{n<k<0} (u1(k)u2(n-k) + u2(k)u1(n-k)), the dual of u1
            # being -u2 and vice versa; each monomial occurs twice
            for axis, x in enumerate(abar):
                if x:
                    key = (tuple(sorted(mono + ((axis, -n),))), abar)
                    out[key] = out.get(key, 0) + x * c
            for k in range(n + 1, 0):
                key = (tuple(sorted(mono + ((0, -k), (1, k - n)))), abar)
                out[key] = out.get(key, 0) - c
    return FockState(out, den=state.den)


def conformal_vector():
    """The weight-2 conformal state; its modes are the L(n).

    Built from the quadratic dual-basis expression; equals
    -u1(-1)u2(-1)iota(1), and L(2) applied to it returns the vacuum times
    half the central charge (which is 2, the rank of the lattice).
    """
    return virasoro_apply(-2, FockState.vacuum())


def weight_of(state):
    """The grading of a homogeneous state: <abar,abar>/2 + sum of depths.

    Returns the weight, an `int` because <abar,abar> = -2 m n is even, or
    None when the state is zero or mixes weights (inhomogeneous).
    """
    weights = set()
    for mono, abar in state.numer:
        weights.add(_pairing(abar, abar) // 2 + sum(n for _, n in mono))
    if len(weights) != 1:
        return None
    return weights.pop()


def is_primary(state):
    """True when every positive Virasoro mode annihilates the state; exact.

    L(n) annihilates iota vectors for n >= 1 and lowers the creation depth
    of every term by exactly n, so all modes beyond the largest depth d of
    a term vanish and checking L(1) ... L(d) decides primality.
    """
    top = max((sum(n for _, n in mono) for mono, _ in state.numer), default=0)
    return all(virasoro_apply(n, state).is_zero() for n in range(1, top + 1))
