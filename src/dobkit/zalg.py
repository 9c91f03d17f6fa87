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
    "tf_eval",
]

# Relative tolerance for coefficient comparison after monic scaling.
COEFF_RTOL = 1e-10


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

    The zero polynomial is canonically ``[0.0]`` and reports degree -1.
    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("coeffs", "_descending")

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if c.ndim != 1 or c.size == 0:
            c = np.array([0.0])
        n = c.size
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        c = c[:n]
        c.flags.writeable = False
        self.coeffs = c
        self._descending = c[::-1].tolist()  # Python floats for Horner

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0.0])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1.0])

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
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self) -> float:
        return float(self.coeffs[-1])

    def __call__(self, x):
        """Horner evaluation; accepts scalars or numpy arrays, real or complex."""
        acc = 0.0
        for c in self._descending:
            acc = acc * x + c
        return acc

    # -- algebra -----------------------------------------------------------
    def _padded_pair(self, other: "Polynomial"):
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return a, b

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._padded_pair(other)
        return Polynomial(a + b)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._padded_pair(other)
        return Polynomial(a - b)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        return Polynomial(self.coeffs / self.leading)

    def shifted(self, a: float) -> "Polynomial":
        """Taylor coefficients about ``a``: returns q with p(x) = sum q[k] (x-a)^k."""
        work = list(self.coeffs[::-1])  # descending
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
        a = self.monic().coeffs
        b = other.monic().coeffs
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) <= rtol * scale

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


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
        return RationalTF(self.num.coeffs / lead, self.den.coeffs / lead, self.ts)

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

    Complex roots come in exact conjugate pairs: the eigenvalues of a real
    companion matrix do, and the polish treats both members of a pair alike.
    """
    if p.degree < 1:
        raise RootFindingError("roots are defined only for degree >= 1")
    r = np.roots(p.coeffs[::-1]).astype(complex)
    dp = p.derivative()
    for i in range(r.size):
        x = r[i]
        fx = p(x)
        for _ in range(3):
            dfx = dp(x)
            if dfx == 0.0:
                break
            x2 = x - fx / dfx
            fx2 = p(x2)
            if abs(fx2) >= abs(fx):
                break
            x, fx = x2, fx2
        r[i] = x
    order = np.lexsort((r.imag, r.real))
    r = r[order]
    residual = float(np.max(np.abs(p(r))))
    return RootSet(tuple(complex(v) for v in r), residual)


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
