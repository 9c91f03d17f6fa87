"""Polynomial and rational transfer-function algebra for z- and s-domain loops.

Coefficients are real and stored ascending: ``coeffs[k]`` multiplies ``x**k``.
A rational transfer function carries a domain tag, the sampling time ``ts``
in seconds for discrete time (z-domain) or ``None`` for continuous time
(s-domain); the two domains never mix in one operation.

No pole/zero cancellation is ever performed automatically: near-cancellations
are kept visible.
"""
from __future__ import annotations

import math
from itertools import zip_longest
from operator import attrgetter
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainMismatchError",
    "RootFindingError",
    "Polynomial",
    "RationalTF",
    "RootSet",
    "poly_roots",
    "poly_roots_batch",
    "schur_stable",
]

# schur_stable decides exactly when a step's |a_0/a_n| is within this, plus
# its rounding-error bound, of 1.
SCHUR_EXACT_BAND = 1e-12
_EPS = 2.0 ** -53  # unit roundoff of a float
_ETA = math.ulp(0.0)  # the smallest subnormal float
_REAL_IMAG = attrgetter("real", "imag")  # the order of a RootSet's roots


class DomainMismatchError(ValueError):
    """Discrete and continuous transfer functions were combined."""


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
        if n < len(c):
            c = c[:n]
        self._c = tuple(c) if n else (0.0,)
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
        each step here counts four roundings: gamma_4n. Products that
        underflow add ``_underflow_bound(r)`` on top (Higham, section 2.1),
        which keeps the bound above 0 where p~(|x|) underflows.
        """
        acc = 0.0
        for c in reversed(self._c):
            acc = acc * r + abs(c)
        return self._gamma() * acc + self._underflow_bound(r)

    def _underflow_bound(self, r: float) -> float:
        """Bound on the absolute error that underflowing products add to ``self(x)``.

        A real product that underflows errs by up to half the smallest
        subnormal eta, so the complex product of each of the n Horner steps
        by up to sqrt(2)*eta; each later step multiplies that error by |x| <= r.
        2*eta*sum(r**k, k < n) covers the n of them with their roundings.
        """
        s = 0.0
        for _ in range(len(self._c) - 1):
            s = s * r + 1.0
        return 2.0 * _ETA * s

    def _gamma(self) -> float:
        """gamma_4n for degree n, the factor of p~ in ``rounding_bound``."""
        k = 4 * (len(self._c) - 1) * _EPS
        return k / (1.0 - k)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of([a + b for a, b in zip_longest(self._c, other._c, fillvalue=0.0)])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            s = float(other)
            return Polynomial._of([a * s for a in self._c])
        a, b = self._c, other._c
        if len(b) > len(a):
            a, b = b, a
        # only a constant can be zero, and b is one if a is
        if len(b) == 1 and (b[0] == 0.0 or len(a) == 1 and a[0] == 0.0):
            return Polynomial.zero()
        # Each output sums its products in ascending index of the longer
        # factor, the order np.convolve uses, from 0.0.
        out = [0.0] * (len(a) + len(b) - 1)
        js = range(len(b))
        for i, x in enumerate(a):
            for j in js:
                out[i + j] += x * b[j]
        return Polynomial._of(out)

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial._of([a * k for k, a in enumerate(self._c) if k])

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

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)})"


class RootSet(NamedTuple):
    """All complex roots of a polynomial, multiplicity by repetition."""

    roots: tuple
    residual: float


class RationalTF:
    """Ratio of two real polynomials with a domain tag.

    ``ts`` is the sampling time in seconds for a discrete-time (z-domain)
    transfer function, or ``None`` for continuous time (s-domain). The
    numerator and denominator are kept as built.
    """

    __slots__ = ("num", "den", "ts")

    def __init__(self, num, den, ts: float | None):
        self._set(num if isinstance(num, Polynomial) else Polynomial(num),
                  den if isinstance(den, Polynomial) else Polynomial(den), ts)
        if ts is not None and not 0.0 < ts < math.inf:
            raise ValueError("sampling time must be finite and positive (or None for continuous)")

    def _set(self, num: Polynomial, den: Polynomial, ts: float | None) -> None:
        if den.is_zero:
            raise ZeroDivisionError("transfer function denominator is zero")
        self.num = num
        self.den = den
        self.ts = ts

    # -- constructors -----------------------------------------------------
    @classmethod
    def _of(cls, num: Polynomial, den: Polynomial, ts: float | None) -> "RationalTF":
        """From polynomials and a sampling time already checked; den is checked here."""
        tf = object.__new__(cls)
        tf._set(num, den, ts)
        return tf

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

    # -- algebra ------------------------------------------------------------
    def __mul__(self, other: "RationalTF") -> "RationalTF":
        """Series connection; both factors must share the domain."""
        if self.ts != other.ts:
            raise DomainMismatchError(
                f"cannot combine domains ts={self.ts} and ts={other.ts}"
            )
        return RationalTF._of(self.num * other.num, self.den * other.den, self.ts)

    def __repr__(self) -> str:
        tag = "s" if self.ts is None else f"z, ts={self.ts}"
        return f"RationalTF({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()}, {tag})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def poly_roots(p: Polynomial) -> RootSet:
    """All complex roots via companion-matrix eigenvalues plus Newton polish.

    The batch of one of ``poly_roots_batch``, which documents the method.
    """
    return poly_roots_batch((p,))[0]


def poly_roots_batch(polys) -> list:
    """The ``RootSet`` of each polynomial, with one eigensolve per matrix size.

    Each polynomial gets the companion matrix ``np.roots`` builds, zero
    low-order coefficients becoming exact roots at 0 as there. The companion
    matrices of one size are stacked and go through a single
    ``np.linalg.eigvals`` call, which gives each matrix the eigenvalues it
    gets alone, so a polynomial's roots do not depend on the rest of the
    batch. Complex roots come in exact conjugate pairs: the eigenvalues of a
    real companion matrix do, and the polish treats both members of a pair
    alike. Newton polishes a root only while its residual |p(x)| exceeds the
    rounding error of evaluating p there (``Polynomial.rounding_bound``), for
    at most three steps, each within half the distance to the nearest other
    eigenvalue. Raises ``RootFindingError``, before any eigensolve, for a
    degree < 1 or a non-finite coefficient anywhere in the batch, and when
    the eigenvalues cannot be computed (say, a companion row overflows).
    """
    polys = tuple(polys)
    zeros, by_size = [], {}
    for i, p in enumerate(polys):
        c = p._c
        if len(c) < 2:  # trimmed, so of degree < 1
            raise RootFindingError("roots are defined only for degree >= 1")
        if not p.is_finite:
            raise RootFindingError(f"non-finite coefficient in {p!r}")
        k = 0
        while c[k] == 0.0:
            k += 1
        zeros.append(k)
        if len(c) - k > 1:
            lead = c[-1]
            members, rows = by_size.setdefault(len(c) - k - 1, ([], []))
            members.append(i)
            rows.append([-a / lead for a in reversed(c[k:-1])])
    eigs = [()] * len(polys)
    for n, (members, rows) in by_size.items():
        m = len(members)
        # each matrix flat: the companion row, then ones on the subdiagonal
        # at flat indices n, 2n+1, ...
        stack = np.zeros((m, n * n))
        stack[:, :n] = rows
        stack[:, n::n + 1] = 1.0
        try:
            if m == 1:  # as a 2-D matrix, where eigvals costs about 1 us less
                eigs[members[0]] = np.linalg.eigvals(stack.reshape(n, n)).tolist()
            else:
                values = np.linalg.eigvals(stack.reshape(m, n, n)).tolist()
                for i, w in zip(members, values):
                    eigs[i] = w
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(f"companion eigenvalues failed: {exc}") from exc
    return [_polish(p, w, k) for p, w, k in zip(polys, eigs, zeros)]


def _polish(p: Polynomial, eigenvalues: list, zeros: int) -> RootSet:
    """Newton-polish the companion eigenvalues of ``p``; add its ``zeros`` roots at 0.

    Each eigenvalue's residual p(x) and the rounding bound of evaluating it
    come from one Horner pass over the pairs (c, |c|) of p's coefficients,
    with the float operations of ``p(x)`` and ``p.rounding_bound(|x|)`` in
    their order; the bound's underflow term, which moves it only near the
    underflow threshold, is formed only for a residual above the rest. A root
    takes Newton steps only while the residual exceeds the bound; the
    derivative is formed once one does. eigvals lists the second member of a
    conjugate pair right after the first. With real coefficients, the Horner
    pass at the second mirrors the one at the first exactly in floats, with
    the same |p(x)| and bound; so when the first keeps its eigenvalue, the
    second keeps its own without a pass.
    """
    pairs = [(a, abs(a)) for a in reversed(p._c)]
    gamma = p._gamma()
    n = len(eigenvalues)
    found = [complex(x) for x in eigenvalues] + [0j] * zeros
    dp = None
    polished = []
    residual = 0.0
    for i, x0 in enumerate(found[:n]):
        if i and x0.imag < 0.0 and x0 == found[i - 1].conjugate() == polished[-1].conjugate():
            # the second member of a pair whose first kept its eigenvalue
            polished.append(x0)
            continue
        r = abs(x0)
        fx = bound = 0.0
        for a, b in pairs:
            fx = fx * x0 + a
            bound = bound * r + b
        x = x0
        bound *= gamma
        if abs(fx) > bound and abs(fx) > bound + p._underflow_bound(r):
            # A step may not leave x0 for a neighbour's basin: near a multiple
            # root, Newton can lower |p| by jumping to another root.
            reach = 0.5 * min((abs(y - x0) for j, y in enumerate(found) if j != i),
                              default=math.inf)
            if dp is None:
                dp = p.derivative()
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
    polished.sort(key=_REAL_IMAG)
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
