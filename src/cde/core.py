"""Exact scalar and polynomial arithmetic used by every other module.

Rationals are `fractions.Fraction` throughout; no floating point appears
anywhere in the library.  Univariate integer polynomials get a small dense
representation of their own, which is all the FK and rank-generating-function
computations need (degrees stay below ~30 at desk scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from operator import index

from .errors import DomainError, MalformedInputError, ReconciliationError

__all__ = [
    "stirling2",
    "stirling2_row",
    "pochhammer",
    "chu_vandermonde_check",
    "IntPolynomial",
    "poly_divides",
    "interpolate_integer_polynomial",
]


def stirling2(L: int, j: int) -> int:
    """Number of set partitions of {1..L} into j blocks; out-of-range pairs
    return 0.

    >>> stirling2(4, 3)
    6
    """
    L, j = _integers((L, j), "Stirling number index")
    if L < 0 or not 0 <= j <= L:
        return 0
    return stirling2_row(L)[j]


def stirling2_row(L: int) -> list[int]:
    """[S(L, 0), ..., S(L, L)], built row by row from S(m+1, j) =
    j S(m, j) + S(m, j-1).

    >>> stirling2_row(4)
    [0, 1, 7, 6, 1]
    """
    if L < 0:
        raise DomainError("stirling2_row needs L >= 0")
    row = [1]
    for m in range(L):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)] + [1]
    return row


def pochhammer(z: Fraction | int, j: int) -> Fraction:
    """Rising factorial z(z+1)...(z+j-1); the empty product is 1."""
    (j,) = _integers((j,), "rising factorial length")
    if j < 0:
        raise DomainError("pochhammer needs j >= 0")
    out = Fraction(1)
    z = Fraction(z)
    for k in range(j):
        out *= z + k
    return out


def chu_vandermonde_check(m: int, B: Fraction | int, C: Fraction | int) -> bool:
    """Evaluate the terminating 2F1(-m, B; C; 1) sum and compare it with
    (C-B)_m / (C)_m.  Exact in rationals; returns True iff the two sides agree.

    Raises DomainError when some C+k (0 <= k < m) vanishes, which would put a
    zero into a Pochhammer denominator.
    """
    (m,) = _integers((m,), "Chu-Vandermonde order")
    if m < 0:
        raise DomainError("chu_vandermonde_check needs m >= 0")
    B, C = Fraction(B), Fraction(C)
    for k in range(m):
        if C + k == 0:
            raise DomainError(f"C + {k} = 0 makes the sum undefined")
    total = Fraction(0)
    for k in range(m + 1):
        total += (
            pochhammer(Fraction(-m), k)
            * pochhammer(B, k)
            / (pochhammer(C, k) * factorial(k))
        )
    return total == pochhammer(C - B, m) / pochhammer(C, m)


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as ints, through operator.index: an int or a bool passes,
    and a float or a Fraction, which int() would truncate, raises
    MalformedInputError naming the first such value.  So does input that
    cannot be iterated over, such as None, naming its type."""
    try:
        values = tuple(values)
    except TypeError:
        kind = type(values).__name__
        raise MalformedInputError(f"{what} values must come as a sequence, not {kind}") from None
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(v, "__index__"))
        raise MalformedInputError(f"{what} {bad!r} is not an integer") from None


def _hook_quotient(n: int, hooks) -> int:
    """n! divided by the product of the hook lengths `hooks`: the count of
    standard tableaux of a shape of n cells, or of linear extensions of a
    forest of n elements.  A product that does not divide n! raises
    ReconciliationError."""
    den = prod(hooks)
    count, rest = divmod(factorial(n), den)
    if rest:
        raise ReconciliationError(f"hook product {den} does not divide {n}!")
    return count


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of x^k; no trailing zeros are stored and
    the zero polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(_integers(self.coeffs, "polynomial coefficient")))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def x_plus(c: int) -> "IntPolynomial":
        """The linear polynomial x + c."""
        return IntPolynomial((c, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(sign + body)
        return "".join(parts)


def poly_divides(p: IntPolynomial, q: IntPolynomial):
    """Divide q by p over the rationals.

    Returns None when the division leaves a remainder.  When it is exact the
    quotient may still have rational coefficients, so the result is a pair
    (numerator polynomial, positive common denominator).

    Raises DomainError when p = 0.
    """
    if p.is_zero():
        raise DomainError("division by the zero polynomial")
    if q.is_zero():
        return IntPolynomial.zero(), 1
    if q.degree < p.degree:
        return None
    rem = [Fraction(c) for c in q.coeffs]
    quot = [Fraction(0)] * (q.degree - p.degree + 1)
    lead = Fraction(p.leading_coefficient())
    for k in range(q.degree - p.degree, -1, -1):
        c = rem[k + p.degree] / lead
        quot[k] = c
        if c:
            for i, pc in enumerate(p.coeffs):
                rem[k + i] -= c * pc
    if any(rem):
        return None
    den = lcm(*(c.denominator for c in quot))
    return IntPolynomial(tuple(int(c * den) for c in quot)), den


def interpolate_integer_polynomial(points) -> IntPolynomial:
    """The polynomial of degree < len(points) through the given (x, y)
    pairs, which must have distinct integer x and integer coefficients.

    Newton divided differences in integers: for an integer polynomial every
    divided difference over integer nodes is an integer, and when they all
    are, the Newton form expands to integer coefficients.  So a division
    leaves a remainder exactly when some coefficient is not an integer, and
    that raises DomainError, as does a repeated x.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DomainError(f"interpolation nodes repeat: {xs}")
    # after round k, diff[i] is the divided difference over xs[i-k..i]
    diff = [y for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            q, r = divmod(diff[i] - diff[i - 1], xs[i] - xs[i - k])
            if r:
                raise DomainError(f"interpolation through {list(points)} has a non-integer coefficient")
            diff[i] = q
    # Horner on the Newton form d0 + (x - x0)(d1 + (x - x1)(d2 + ...))
    coeffs: list[int] = []
    for x, d in zip(reversed(xs), reversed(diff)):
        shifted = [0] + coeffs
        for t, c in enumerate(coeffs):
            shifted[t] -= x * c
        shifted[0] += d
        coeffs = shifted
    return IntPolynomial(tuple(coeffs))
