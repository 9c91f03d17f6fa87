"""Polynomial and rational transfer-function algebra for z- and s-domain loops.

Coefficients are real and stored ascending: ``coeffs[k]`` multiplies ``x**k``.
A rational transfer function carries a domain tag, the sampling time ``ts``
in seconds for discrete time (z-domain) or ``None`` for continuous time
(s-domain); the two domains never mix in one operation.

No pole/zero cancellation is ever performed automatically: near-cancellations
are kept visible. Equality of transfer functions is decided by
cross-multiplication, which is insensitive to common factors and scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

__all__ = [
    "DomainMismatchError",
    "PoleEvaluationError",
    "DegenerateLoopError",
    "RootFindingError",
    "Polynomial",
    "RationalTF",
    "RootSet",
    "poly_roots",
    "schur_stable",
    "tf_eval",
]

# Relative tolerance for coefficient comparison after monic scaling.
COEFF_RTOL = 1e-10
# schur_stable decides exactly when a step's |a_0/a_n| is within this, plus
# its rounding-error bound, of 1.
SCHUR_EXACT_BAND = 1e-12
_EPS = 2.0 ** -53  # unit roundoff of a float


class DomainMismatchError(ValueError):
    """Discrete and continuous transfer functions were combined."""


class PoleEvaluationError(ArithmeticError):
    """A transfer function was evaluated at (or too close to) one of its poles."""

    def __init__(self, point: complex):
        self.point = point
        super().__init__(f"evaluation at pole {point}")


class DegenerateLoopError(ValueError):
    """Unity feedback closure 1 + L == 0 has no meaning as a transfer function."""


class RootFindingError(ArithmeticError):
    """Root extraction is undefined or failed to converge."""


class Polynomial:
    """Dense real-coefficient polynomial, ascending powers, trailing zeros trimmed.

    The coefficients are kept as a tuple of Python floats and all arithmetic
    runs on it; ``coeffs`` is the same sequence as a read-only numpy array,
    built on first use. The zero polynomial is canonically ``[0.0]`` and
    reports degree -1. Instances are immutable; all operations return new
    objects.
    """

    __slots__ = ("_c", "_array")

    def __init__(self, coeffs):
        c = None
        if isinstance(coeffs, (list, tuple)):
            try:
                c = [float(x) for x in coeffs]
            except TypeError:  # nested sequences: numpy finds the shape below
                pass
        if c is None:
            a = np.asarray(coeffs, dtype=float)
            if a.ndim > 1:
                raise ValueError(f"polynomial coefficients must be 1-D, got shape {a.shape}")
            c = a.ravel().tolist()
        self._set(c)

    def _set(self, c: list) -> None:
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        self._c = tuple(c[:n]) if n else (0.0,)
        self._array = None

    @classmethod
    def _of(cls, c: list) -> "Polynomial":
        """From a list of Python floats, without conversion."""
        p = object.__new__(cls)
        p._set(c)
        return p

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of([0.0])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._of([1.0])

    @classmethod
    def from_roots(cls, roots, leading: float = 1.0) -> "Polynomial":
        """Monic-times-``leading`` polynomial with the given roots.

        Complex roots must come in conjugate pairs (within tolerance); the
        imaginary residue of the expanded product is checked and discarded.
        """
        c = np.array([1.0 + 0.0j])
        for r in roots:
            c = np.convolve(c, np.array([-complex(r), 1.0 + 0.0j]))
        c = c * leading
        scale = max(1.0, float(np.max(np.abs(c))))
        if float(np.max(np.abs(c.imag))) > 1e-8 * scale:
            raise ValueError("root set is not closed under conjugation")
        return cls(c.real)

    # -- basic queries -----------------------------------------------------
    @property
    def coeffs(self) -> np.ndarray:
        """Ascending coefficients as a read-only float array."""
        a = self._array
        if a is None:
            a = np.array(self._c)
            a.flags.writeable = False
            self._array = a
        return a

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return len(self._c) == 1 and self._c[0] == 0.0

    @property
    def leading(self) -> float:
        return self._c[-1]

    @property
    def is_finite(self) -> bool:
        return all(map(math.isfinite, self._c))

    def __call__(self, x):
        """Horner evaluation; accepts scalars or numpy arrays, real or complex."""
        acc = 0.0
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def rounding_bound(self, r: float) -> float:
        """Bound on the rounding error of ``self(x)`` for complex x with |x| <= r.

        Horner's rule in real arithmetic errs by at most gamma_2n * p~(|x|),
        p~ the polynomial with the absolute values of the coefficients
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
        section 5.1). A complex product errs by up to sqrt(2)*gamma_2, so
        each step here counts four roundings: gamma_4n.
        """
        acc = 0.0
        for c in reversed(self._c):
            acc = acc * r + abs(c)
        k = 4 * (len(self._c) - 1) * _EPS
        return k / (1.0 - k) * acc

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of([a + b for a, b in zip_longest(self._c, other._c, fillvalue=0.0)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of([a - b for a, b in zip_longest(self._c, other._c, fillvalue=0.0)])

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-a for a in self._c])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            s = float(other)
            return Polynomial._of([a * s for a in self._c])
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        # Each output sums its products in ascending index of the longer
        # factor, the order np.convolve uses.
        a, b = self._c, other._c
        if len(b) > len(a):
            a, b = b, a
        out = [0.0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                out[k] += x * y
        return Polynomial._of(out)

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial._of([a * k for k, a in enumerate(self._c) if k])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self._c[-1]
        return Polynomial._of([a / lead for a in self._c])

    def shifted(self, a: float) -> "Polynomial":
        """Taylor coefficients about ``a``: returns q with p(x) = sum q[k] (x-a)^k."""
        work = list(reversed(self._c))  # descending
        taylor = []
        while work:
            b = [work[0]]
            for c in work[1:]:
                b.append(c + a * b[-1])
            taylor.append(b[-1])
            work = b[:-1]
        return Polynomial(taylor)

    def almost_equal(self, other: "Polynomial", rtol: float = COEFF_RTOL) -> bool:
        """Coefficient-wise comparison after monic normalization."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.degree != other.degree:
            return False
        a = self.monic()._c
        b = other.monic()._c
        tol = rtol * max(1.0, *map(abs, a), *map(abs, b))
        return all(abs(x - y) <= tol for x, y in zip(a, b))

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)})"


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial, multiplicity by repetition."""

    roots: tuple
    residual: float


class RationalTF:
    """Ratio of two real polynomials with a domain tag.

    ``ts`` is the sampling time in seconds for a discrete-time (z-domain)
    transfer function, or ``None`` for continuous time (s-domain). Stored
    numerator/denominator are kept as built; monic scaling is applied only
    for comparisons.
    """

    __slots__ = ("num", "den", "ts")

    def __init__(self, num, den, ts: float | None):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("transfer function denominator is zero")
        if ts is not None and not 0.0 < ts < math.inf:
            raise ValueError("sampling time must be finite and positive (or None for continuous)")
        self.num = num
        self.den = den
        self.ts = ts

    # -- constructors -----------------------------------------------------
    @classmethod
    def constant(cls, value: float, ts: float | None) -> "RationalTF":
        return cls([float(value)], [1.0], ts)

    @classmethod
    def one(cls, ts: float | None) -> "RationalTF":
        return cls.constant(1.0, ts)

    # -- queries ------------------------------------------------------------
    @property
    def is_discrete(self) -> bool:
        return self.ts is not None

    @property
    def is_continuous(self) -> bool:
        return self.ts is None

    def limit_at_infinity(self) -> float:
        """lim of the TF as the transform variable grows without bound."""
        if self.num.is_zero:
            return 0.0
        rel = self.den.degree - self.num.degree
        if rel > 0:
            return 0.0
        if rel < 0:
            raise ValueError("improper transfer function has no finite limit")
        return self.num.leading / self.den.leading

    def monic_normalized(self) -> "RationalTF":
        lead = self.den.leading
        num = Polynomial._of([a / lead for a in self.num._c])
        return RationalTF(num, self.den.monic(), self.ts)

    # -- algebra ------------------------------------------------------------
    def _check_domain(self, other: "RationalTF"):
        if self.ts is None and other.ts is None:
            return
        if self.ts is None or other.ts is None or self.ts != other.ts:
            raise DomainMismatchError(
                f"cannot combine domains ts={self.ts} and ts={other.ts}"
            )

    def _coerce(self, other) -> "RationalTF":
        if isinstance(other, RationalTF):
            self._check_domain(other)
            return other
        return RationalTF.constant(float(other), self.ts)

    def __mul__(self, other) -> "RationalTF":
        o = self._coerce(other)
        return RationalTF(self.num * o.num, self.den * o.den, self.ts)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalTF":
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero transfer function")
        return RationalTF(self.num * o.den, self.den * o.num, self.ts)

    def __rtruediv__(self, other) -> "RationalTF":
        o = self._coerce(other)
        return o / self

    def __add__(self, other) -> "RationalTF":
        o = self._coerce(other)
        return RationalTF(self.num * o.den + o.num * self.den, self.den * o.den, self.ts)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalTF":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalTF":
        return self._coerce(other) - self

    def __neg__(self) -> "RationalTF":
        return RationalTF(-self.num, self.den, self.ts)

    def feedback_unity(self) -> "RationalTF":
        """Closed loop self / (1 + self); raises if 1 + self vanishes identically."""
        closed_den = self.den + self.num
        if closed_den.is_zero:
            raise DegenerateLoopError("1 + L is identically zero")
        return RationalTF(self.num, closed_den, self.ts)

    def almost_equal(self, other: "RationalTF", rtol: float = COEFF_RTOL) -> bool:
        """Equality as rational functions via cross-multiplication.

        Robust to overall scaling and to uncancelled common factors.
        """
        if not isinstance(other, RationalTF) or (self.ts != other.ts):
            return False
        a = self.monic_normalized()
        b = other.monic_normalized()
        lhs = a.num * b.den
        rhs = b.num * a.den
        diff = lhs - rhs
        if diff.is_zero:
            return True
        scale = max(
            1e-300,
            float(np.max(np.abs(lhs.coeffs))),
            float(np.max(np.abs(rhs.coeffs))),
        )
        return float(np.max(np.abs(diff.coeffs))) <= rtol * scale

    def __repr__(self) -> str:
        tag = "s" if self.ts is None else f"z, ts={self.ts}"
        return f"RationalTF({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()}, {tag})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def poly_roots(p: Polynomial) -> RootSet:
    """All complex roots via companion-matrix eigenvalues plus Newton polish.

    The companion matrix is the one ``np.roots`` builds, and zero low-order
    coefficients become exact roots at 0 as there. Complex roots come in exact
    conjugate pairs: the eigenvalues of a real companion matrix do, and the
    polish treats both members of a pair alike. Newton polishes a root only
    while its residual |p(x)| exceeds the rounding error of evaluating p
    there (``Polynomial.rounding_bound``), for at most three steps, each
    within half the distance to the nearest other eigenvalue. Raises
    ``RootFindingError`` for degree < 1, for a non-finite coefficient and when
    the eigenvalues cannot be computed (say, the companion row overflows).
    """
    if p.degree < 1:
        raise RootFindingError("roots are defined only for degree >= 1")
    if not p.is_finite:
        raise RootFindingError(f"non-finite coefficient in {p!r}")
    c = p._c
    zeros = 0
    while c[zeros] == 0.0:
        zeros += 1
    nonzero = c[zeros:]
    n = len(nonzero) - 1
    roots = []
    if n:
        lead = nonzero[-1]
        companion = np.eye(n, k=-1)
        companion[0] = [-a / lead for a in reversed(nonzero[:-1])]
        try:
            roots = np.linalg.eigvals(companion).tolist()
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(f"companion eigenvalues failed: {exc}") from exc
    found = [complex(x) for x in roots] + [0j] * zeros
    dp = p.derivative()
    polished = []
    residual = 0.0
    for i, x0 in enumerate(found[:n]):
        x, fx = x0, p(x0)
        if abs(fx) > p.rounding_bound(abs(x)):
            # A step may not leave x0 for a neighbour's basin: near a multiple
            # root, Newton can lower |p| by jumping to another root.
            reach = 0.5 * min((abs(y - x0) for j, y in enumerate(found) if j != i),
                              default=math.inf)
            for _ in range(3):
                dfx = dp(x)
                if dfx == 0.0:
                    break
                x2 = x - fx / dfx
                fx2 = p(x2)
                if abs(fx2) >= abs(fx) or not abs(x2 - x0) < reach:
                    break
                x, fx = x2, fx2
                if abs(fx) <= p.rounding_bound(abs(x)):
                    break
        polished.append(x)
        residual = max(residual, abs(fx))
    polished += found[n:]
    polished.sort(key=lambda v: (v.real, v.imag))
    return RootSet(tuple(polished), residual)


def schur_stable(poly: Polynomial, radius: float = 1.0) -> bool:
    """True iff every root of ``poly`` lies strictly inside ``|z| < radius``.

    The Schur-Cohn recursion (Jury 1964): with ``a`` the coefficients of
    p(radius * z), p is stable iff ``|a_0| < |a_n|`` and
    ``(a_n p - a_0 p~) / z`` is stable, p~ the reversed polynomial. It runs
    on floats with a running bound on their rounding error, and is repeated
    on exact integers proportional to the stored coefficients when some
    step's ``|a_0 / a_n|`` is within ``SCHUR_EXACT_BAND`` plus twice that
    bound of 1. So a verdict at the circle is the one for the polynomial as
    stored: a root on the circle, a double one included, is not stable. A
    constant is stable; the zero polynomial is not, nor is any polynomial
    with a non-finite coefficient.
    """
    c = poly._c
    if poly.is_zero or not poly.is_finite or not 0.0 < radius < math.inf:
        return False
    if radius == 1.0:
        a, err = list(c), 0.0  # err bounds the rounding error of every a_k
    else:
        a = [x * radius ** k for k, x in enumerate(c)]
        err = len(a) * _EPS * max(map(abs, a))
    while len(a) > 1:
        an = abs(a[-1])
        if an == 0.0:  # the leading coefficient underflowed
            return _schur_exact(c, radius)
        rho = a[0] / a[-1]
        r = abs(rho)
        rho_err = (1.0 + r) * err / an + _EPS * r
        # within the band of 1, or inf or NaN after an overflow: decide exactly
        if not abs(r - 1.0) > SCHUR_EXACT_BAND + 2.0 * rho_err:
            return _schur_exact(c, radius)
        if r > 1.0:
            return False
        err = (1.0 + r) * err + (rho_err + 3.0 * _EPS) * max(map(abs, a))
        a = [a[k + 1] - rho * a[-2 - k] for k in range(len(a) - 1)]
    return True


def _schur_exact(c: tuple, radius: float) -> bool:
    """The Schur-Cohn recursion on integers proportional to ``c[k] * radius**k``."""
    rn, rd = radius.as_integer_ratio()
    scaled = [(n * rn ** k, d * rd ** k)
              for k, (n, d) in enumerate(x.as_integer_ratio() for x in c)]
    den = math.lcm(*(d for _, d in scaled))
    a = [n * (den // d) for n, d in scaled]
    while len(a) > 1:
        a0, an = a[0], a[-1]
        if abs(a0) >= abs(an):
            return False
        a = [an * a[k + 1] - a0 * a[-2 - k] for k in range(len(a) - 1)]
        g = math.gcd(*a)
        a = [x // g for x in a]
    return True


def tf_eval(tf: RationalTF, *, omega: float | None = None, at: complex | None = None) -> complex:
    """Evaluate a transfer function at a frequency or at a raw complex point.

    With ``omega`` (rad/s) the evaluation point is ``exp(1j*omega*ts)`` for a
    discrete TF and ``1j*omega`` for a continuous one. Raises
    ``PoleEvaluationError`` when the denominator vanishes at the point.
    """
    if (omega is None) == (at is None):
        raise ValueError("pass exactly one of omega= or at=")
    if omega is not None:
        if tf.is_discrete:
            point = complex(np.exp(1j * omega * tf.ts))
        else:
            point = 1j * omega
    else:
        point = complex(at)
    den_val = tf.den(point)
    if abs(den_val) <= 1e-300:
        raise PoleEvaluationError(point)
    return complex(tf.num(point) / den_val)
