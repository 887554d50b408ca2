"""Truncated multivariate formal power series over exact rationals.

The generating functions behind the closed-form counts can all be built
from a handful of ring operations, a logarithm, and substitution, so this
module implements exactly that: coefficients live in a sparse map from
exponent tuples to ints or Fractions, truncated at a fixed total degree.
It serves as an oracle fully independent of the summation formulas in
:mod:`quivercount.counting`.

Products run on a private graded form.  A series truncated at degree D is
split into its homogeneous parts by total degree, and each part maps
packed exponent codes to coefficients: the exponent tuple (e_1, ..., e_m)
becomes the integer sum of e_i * (D + 1)**(i - 1).  Multiplying two
monomials is then one integer addition.  No carry can occur, because two
codes are only ever added when their total degrees sum to at most D, so
every exponent of the sum is at most D, below the base.  The codes never
leave this module; ``coeffs`` is keyed by exponent tuples.

The graded form lets each series be built one degree at a time from
parts already known:

- the rooted type A series solves A = 1 + 2zA + z^2 t A^2 degree by
  degree, since the part of A^2 it needs has lower degree;
- with theta the total-degree Euler operator (it multiplies the degree-n
  part by n), L = log(1/(1 - B)) satisfies theta L = theta B + B theta L,
  so (theta L)_n = n B_n + sum over 0 < j < n of B_(n-j) (theta L)_j, and
  L_n = (theta L)_n / n: one online product instead of a sum of powers;
- the cycle construction sum over k of phi(k)/k log(1/(1 - B(v^k))) needs
  that logarithm only once, since log(1/(1 - B(v^k))) = L(v^k) exactly
  under total-degree truncation.  Its coefficient at exponent e is
  (1/|e|) sum over k dividing e of phi(k) (theta L)_(e/k), summed in
  integers and checked to divide exactly.

Square roots never appear: identities whose closed form involves one are
verified in squared or functional-equation form so everything stays in
exact polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from quivercount.counting import euler_phi


# -- graded kernel: homogeneous parts over packed exponent codes -------------


def _pack(s: "TruncatedSeries") -> list[dict]:
    """Split ``s`` into its homogeneous parts, indexed by total degree."""
    base = s.degree + 1
    parts = [{} for _ in range(base)]
    for exps, c in s.coeffs.items():
        code = 0
        for e in reversed(exps):
            code = code * base + e
        parts[sum(exps)][code] = c
    return parts


def _code(variables, degree, **exps) -> int:
    """Packed code of one monomial."""
    return sum(e * (degree + 1) ** variables.index(v) for v, e in exps.items())


def _unpack(parts: list[dict], variables, degree) -> "TruncatedSeries":
    """The series whose homogeneous parts are ``parts``, zeros dropped."""
    base, nvars = degree + 1, len(variables)
    out = {}
    for part in parts:
        for code, c in part.items():
            if c:
                exps = []
                for _ in range(nvars):
                    code, e = divmod(code, base)
                    exps.append(e)
                out[tuple(exps)] = c
    return TruncatedSeries(variables, degree, out)


def _product_part(a: list[dict], b: list[dict], n: int) -> dict:
    """Degree-``n`` part of the product of graded series ``a`` and ``b``.

    Only the parts each list holds so far are read, so a series being
    built degree by degree can be a factor of its own next part.
    """
    out: dict[int, object] = {}
    get = out.get
    for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
        pa, pb = a[i], b[n - i]
        if not pa or not pb:
            continue
        if len(pa) > len(pb):
            pa, pb = pb, pa
        items = pb.items()
        for ca, va in pa.items():
            for cb, vb in items:
                k = ca + cb
                out[k] = get(k, 0) + va * vb
    return out


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
        a, b = _pack(self), _pack(other)
        parts = [_product_part(a, b, n) for n in range(self.degree + 1)]
        return _unpack(parts, self.variables, self.degree)

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
        for e in range(max(groups, default=-1) + 1):
            if e:
                gk = gk * g
            if e in groups:
                part = TruncatedSeries(self.variables, self.degree, groups[e])
                result = result + part * gk
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

    def embed(self, variables, rename=None) -> "TruncatedSeries":
        """Transfer into another ring, optionally renaming variables."""
        variables = tuple(variables)
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
        return TruncatedSeries(variables, self.degree, out)


def log_one_over_one_minus(b: TruncatedSeries) -> TruncatedSeries:
    """log(1/(1 - b)), for b with zero constant term.

    Built from theta L = theta b + b theta L one degree at a time, where
    theta multiplies each degree-n part by n.
    """
    if b.constant_term():
        raise ValueError("series must have zero constant term")
    bp = _pack(b)
    theta = [{}]
    for n in range(1, b.degree + 1):
        part = _product_part(bp, theta, n)
        for code, c in bp[n].items():
            part[code] = part.get(code, 0) + n * c
        theta.append(part)
    for n, part in enumerate(theta):
        for code, c in part.items():
            part[code] = Fraction(c, n)
    return _unpack(theta, b.variables, b.degree)


def solve_a_point(degree: int, variables=("z", "t")) -> TruncatedSeries:
    """Generating function of rooted type A quivers.

    The first variable marks vertices minus one, the second marks oriented
    3-cycles.  A rooted quiver is the bare root, or the root joined by an
    arrow (either way) to a rooted quiver, or the root on an oriented
    3-cycle with a rooted quiver at each of the other two vertices; that
    recursion reads A = 1 + 2 z A + z^2 t A^2, solved here one total
    degree at a time.  Given one variable, the 3-cycle marker is set to
    one: A = 1 + 2 z A + z^2 A^2, whose coefficients are the Catalan
    numbers shifted by one.
    """
    variables = tuple(variables)
    zvar, *marker = variables
    z = _code(variables, degree, **{zvar: 1})
    z2t = _code(variables, degree, **{zvar: 2}, **dict.fromkeys(marker, 1))
    lag = 2 + len(marker)  # total degree of z^2 t
    parts = [{0: 1}]
    for n in range(1, degree + 1):
        part = {code + z: 2 * c for code, c in parts[n - 1].items()}
        if n >= lag:
            for code, c in _product_part(parts, parts, n - lag).items():
                code += z2t
                part[code] = part.get(code, 0) + c
        parts.append(part)
    return _unpack(parts, variables, degree)


def b_series(degree: int, variables=("p", "q", "x", "y")) -> TruncatedSeries:
    """Alphabet of base-arrow blocks.

    A block is a base arrow oriented one way (weight p, 3-cycles marked by
    x) or the other (weight q, marked by y), optionally carrying an
    oriented 3-cycle that roots a type A quiver:
    B = p + p^2 x A(p, x) + q + q^2 y A(q, y).
    """
    p, q, x, y = variables
    a = solve_a_point(degree, ("z", "t"))
    ap = a.embed(variables, {"z": p, "t": x})
    aq = a.embed(variables, {"z": q, "t": y})
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
    ap = a1.embed(variables, {"z": p})
    aq = a1.embed(variables, {"z": q})
    P = TruncatedSeries.monomial(variables, degree, **{p: 1})
    Q = TruncatedSeries.monomial(variables, degree, **{q: 1})
    P2 = TruncatedSeries.monomial(variables, degree, **{p: 2})
    Q2 = TruncatedSeries.monomial(variables, degree, **{q: 2})
    return P + P2 * ap + Q + Q2 * aq


def atilde_series(degree: int, variables=("p", "q", "x", "y")) -> TruncatedSeries:
    """Generating function of realizations: cycles of base-arrow blocks.

    The unlabelled cycle construction weights each divisor k by phi(k)/k
    and evaluates the log at exponent-scaled arguments.  That log is L(v^k)
    for the one logarithm L of the alphabet, so the exponent e collects
    phi(k) (theta L)_(e/k) over the k dividing e, and the sum over |e| must
    be an integer: a remainder raises ArithmeticError.
    """
    log = log_one_over_one_minus(b_series(degree, variables))
    phi = [0] + [euler_phi(k) for k in range(1, degree + 1)]
    sums: dict[tuple[int, ...], int] = {}
    for exps, c in log.coeffs.items():
        n = sum(exps)
        # c is (theta L)_e / n in lowest terms, and (theta L)_e is an
        # integer because the alphabet's coefficients are, so this is exact
        theta = c.numerator * (n // c.denominator)
        for k in range(1, degree // n + 1):
            key = tuple(k * e for e in exps)
            sums[key] = sums.get(key, 0) + phi[k] * theta
    del log  # freed before the result is copied, to lower the peak memory
    for exps, total in sums.items():
        sums[exps], rem = divmod(total, sum(exps))
        if rem:
            raise ArithmeticError(
                f"coefficient at {exps} is {total}/{sum(exps)}, not an integer"
            )
    return TruncatedSeries(variables, degree, sums)
