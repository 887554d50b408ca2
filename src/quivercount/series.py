"""Truncated multivariate formal power series over exact rationals.

The generating functions behind the closed-form counts can all be built
from a handful of ring operations, a logarithm, and substitution, so this
module implements exactly that: coefficients live in a sparse map from
exponent tuples to ints or Fractions, truncated at a fixed total degree.
It serves as an oracle fully independent of the summation formulas in
:mod:`quivercount.counting`.

Square roots never appear: identities whose closed form involves one are
verified in squared or functional-equation form so everything stays in
exact polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from quivercount.counting import euler_phi


class TruncatedSeries:
    """Series in fixed variables, truncated at a total degree bound.

    Values are immutable by convention: every operation returns a new
    series.  Operands must agree in both variable tuple and truncation
    degree; absent exponent tuples mean coefficient zero.
    """

    __slots__ = ("variables", "degree", "coeffs")

    def __init__(self, variables, degree, coeffs=None):
        self.variables = tuple(variables)
        self.degree = int(degree)
        data = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c and sum(exps) <= self.degree:
                    data[tuple(exps)] = c
        self.coeffs = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, degree):
        return cls(variables, degree)

    @classmethod
    def constant(cls, variables, degree, value):
        return cls(variables, degree, {(0,) * len(tuple(variables)): value})

    @classmethod
    def monomial(cls, variables, degree, coeff=1, **exps):
        variables = tuple(variables)
        tup = [0] * len(variables)
        for var, e in exps.items():
            tup[variables.index(var)] = e
        return cls(variables, degree, {tuple(tup): coeff})

    # -- queries -----------------------------------------------------------

    def coefficient(self, **exps):
        """Coefficient of the monomial with the named exponents (others 0)."""
        tup = [0] * len(self.variables)
        for var, e in exps.items():
            tup[self.variables.index(var)] = e
        return self.coeffs.get(tuple(tup), 0)

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.variables), 0)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"TruncatedSeries({self.variables!r}, degree={self.degree}, "
            f"terms={len(self.coeffs)})"
        )

    def _compat(self, other):
        if self.variables != other.variables or self.degree != other.degree:
            raise ValueError("series differ in variables or truncation degree")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.degree, other)
        self._compat(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return TruncatedSeries(self.variables, self.degree, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.variables, self.degree, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.variables, self.degree, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.variables,
                self.degree,
                {e: c * other for e, c in self.coeffs.items()},
            )
        self._compat(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        deg = self.degree
        bitems = sorted(
            ((sum(e), e, c) for e, c in b.items()), key=lambda t: t[0]
        )
        out: dict[tuple[int, ...], object] = {}
        for ea, ca in a.items():
            da = sum(ea)
            for db, eb, cb in bitems:
                if da + db > deg:
                    break
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return TruncatedSeries(self.variables, self.degree, out)

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------------

    def substitute(self, var: str, g: "TruncatedSeries") -> "TruncatedSeries":
        """Exact composition: replace ``var`` by the series ``g``.

        ``g`` must have zero constant term, otherwise arbitrarily high order
        terms of the (truncated, hence incomplete) source would feed into
        low order output coefficients.
        """
        self._compat(g)
        if g.constant_term():
            raise ValueError("substituted series must have zero constant term")
        idx = self.variables.index(var)
        groups: dict[int, dict] = {}
        for exps, c in self.coeffs.items():
            e = exps[idx]
            rest = exps[:idx] + (0,) + exps[idx + 1 :]
            groups.setdefault(e, {})[rest] = c
        result = TruncatedSeries.zero(self.variables, self.degree)
        gk = TruncatedSeries.constant(self.variables, self.degree, 1)
        for e in range(max(groups) + 1 if groups else 0):
            if e in groups:
                part = TruncatedSeries(self.variables, self.degree, groups[e])
                result = result + part * gk
            gk = gk * g
        return result

    def raise_exponents(self, k: int) -> "TruncatedSeries":
        """Replace every variable v by v**k simultaneously."""
        if k < 1:
            raise ValueError("need k >= 1")
        out = {}
        for exps, c in self.coeffs.items():
            if sum(exps) * k <= self.degree:
                out[tuple(e * k for e in exps)] = c
        return TruncatedSeries(self.variables, self.degree, out)

    def derivative(self, var: str) -> "TruncatedSeries":
        """Formal partial derivative."""
        idx = self.variables.index(var)
        out = {}
        for exps, c in self.coeffs.items():
            e = exps[idx]
            if e:
                key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[key] = out.get(key, 0) + e * c
        return TruncatedSeries(self.variables, self.degree, out)

    def specialize_one(self, var: str) -> "TruncatedSeries":
        """Set ``var`` to 1 by collapsing its exponent.

        Truncation caveat: the result's coefficient at a monomial of total
        degree d is complete only if every dropped source term of higher
        ``var`` degree would have exceeded the bound, so callers should only
        read coefficients well inside the truncation.
        """
        idx = self.variables.index(var)
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.coeffs.items():
            key = exps[:idx] + (0,) + exps[idx + 1 :]
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(self.variables, self.degree, out)

    def embed(self, variables, rename=None, degree=None) -> "TruncatedSeries":
        """Transfer into another ring, optionally renaming variables."""
        variables = tuple(variables)
        degree = self.degree if degree is None else degree
        pos = {v: i for i, v in enumerate(variables)}
        idxmap = []
        for v in self.variables:
            name = rename.get(v, v) if rename else v
            idxmap.append(pos[name])
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.coeffs.items():
            tup = [0] * len(variables)
            for i, e in enumerate(exps):
                tup[idxmap[i]] += e
            key = tuple(tup)
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(variables, degree, out)

    def mark_total_degree(self, variables, marker: str) -> "TruncatedSeries":
        """Embed into a ring with ``marker`` tracking each term's total degree.

        Realizes substitutions like p -> t*p, q -> t*q in one step.
        """
        variables = tuple(variables)
        pos = {v: i for i, v in enumerate(variables)}
        midx = pos[marker]
        idxmap = [pos[v] for v in self.variables]
        out = {}
        for exps, c in self.coeffs.items():
            d = sum(exps)
            tup = [0] * len(variables)
            for i, e in enumerate(exps):
                tup[idxmap[i]] += e
            tup[midx] += d
            if sum(tup) <= self.degree:
                out[tuple(tup)] = c
        return TruncatedSeries(variables, self.degree, out)


def log_one_over_one_minus(b: TruncatedSeries) -> TruncatedSeries:
    """log(1/(1 - b)) = sum of b**m / m, for b with zero constant term."""
    if b.constant_term():
        raise ValueError("series must have zero constant term")
    acc = TruncatedSeries.zero(b.variables, b.degree)
    power = TruncatedSeries.constant(b.variables, b.degree, 1)
    for m in range(1, b.degree + 1):
        power = power * b
        if not power.coeffs:
            break
        acc = acc + power * Fraction(1, m)
    return acc


def solve_a_point(degree: int, variables=("z", "t")) -> TruncatedSeries:
    """Generating function of rooted type A quivers.

    The first variable marks vertices minus one, the second marks oriented
    3-cycles.  A rooted quiver is the bare root, or the root joined by an
    arrow (either way) to a rooted quiver, or the root on an oriented
    3-cycle with a rooted quiver at each of the other two vertices; that
    recursion reads A = 1 + 2 z A + z^2 t A^2, iterated here to the
    truncation fixpoint.  Given one variable, the 3-cycle marker is set to
    one: A = 1 + 2 z A + z^2 A^2, whose coefficients are the Catalan
    numbers shifted by one.
    """
    zvar, *marker = variables
    one = TruncatedSeries.constant(variables, degree, 1)
    z = TruncatedSeries.monomial(variables, degree, **{zvar: 1})
    z2t = TruncatedSeries.monomial(
        variables, degree, **{zvar: 2}, **dict.fromkeys(marker, 1)
    )
    a = one
    while True:
        nxt = one + 2 * (z * a) + z2t * (a * a)
        if nxt == a:
            return a
        a = nxt


def b_series(degree: int, variables=("p", "q", "x", "y")) -> TruncatedSeries:
    """Alphabet of base-arrow blocks.

    A block is a base arrow oriented one way (weight p, 3-cycles marked by
    x) or the other (weight q, marked by y), optionally carrying an
    oriented 3-cycle that roots a type A quiver:
    B = p + p^2 x A(p, x) + q + q^2 y A(q, y).
    """
    p, q, x, y = variables
    a = solve_a_point(degree, ("z", "t"))
    ap = a.embed(variables, {"z": p, "t": x}, degree)
    aq = a.embed(variables, {"z": q, "t": y}, degree)
    P = TruncatedSeries.monomial(variables, degree, **{p: 1})
    Q = TruncatedSeries.monomial(variables, degree, **{q: 1})
    P2x = TruncatedSeries.monomial(variables, degree, **{p: 2, x: 1})
    Q2y = TruncatedSeries.monomial(variables, degree, **{q: 2, y: 1})
    return P + P2x * ap + Q + Q2y * aq


def b_series_at_unit(degree: int, variables=("p", "q", "x", "y")) -> TruncatedSeries:
    """The block alphabet with both 3-cycle markers set to one.

    Built from the one-variable solve rather than by specializing
    :func:`b_series`, so it is exact at every stored degree.
    """
    p, q = variables[0], variables[1]
    a1 = solve_a_point(degree, ("z",))
    ap = a1.embed(variables, {"z": p}, degree)
    aq = a1.embed(variables, {"z": q}, degree)
    P = TruncatedSeries.monomial(variables, degree, **{p: 1})
    Q = TruncatedSeries.monomial(variables, degree, **{q: 1})
    P2 = TruncatedSeries.monomial(variables, degree, **{p: 2})
    Q2 = TruncatedSeries.monomial(variables, degree, **{q: 2})
    return P + P2 * ap + Q + Q2 * aq


def atilde_series(degree: int, variables=("p", "q", "x", "y")) -> TruncatedSeries:
    """Generating function of realizations: cycles of base-arrow blocks.

    The unlabelled cycle construction weights each divisor k by phi(k)/k
    and evaluates the log at exponent-scaled arguments.  Since the alphabet
    has no constant term, divisors beyond the truncation degree contribute
    nothing and the sum is finite.
    """
    b = b_series(degree, variables)
    total = TruncatedSeries.zero(variables, degree)
    for k in range(1, degree + 1):
        bk = b.raise_exponents(k)
        if not bk.coeffs:
            break
        total = total + log_one_over_one_minus(bk) * Fraction(euler_phi(k), k)
    return total
