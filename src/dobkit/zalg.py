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
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs that np.linalg wraps

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

# A pole within this distance of the unit circle counts as on it, so not inside.
UNIT_CIRCLE_TOL = 1e-9
_REAL_IMAG = attrgetter("real", "imag")  # the order of a polynomial's roots
_TS_MESSAGE = "sampling time must be finite and positive (or None for continuous)"


class DomainMismatchError(ValueError):
    """Discrete and continuous transfer functions were combined."""


class RootFindingError(ArithmeticError):
    """Root extraction is undefined or failed to converge."""


class Polynomial:
    """Dense real-coefficient polynomial, ascending powers, trailing zeros trimmed.

    The coefficients are kept as a tuple of Python floats and all arithmetic
    runs on it; ``coeffs`` copies them into a new read-only numpy array on
    each read. The zero polynomial is canonically ``[0.0]`` and
    reports degree -1. Instances are immutable; all operations return new
    objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        a = np.asarray(coeffs, dtype=float)
        if a.ndim > 1:
            raise ValueError(f"polynomial coefficients must be 1-D, got shape {a.shape}")
        c = a.ravel().tolist()
        # numpy converts None to nan, so only a nan can have been one
        if any(map(math.isnan, c)) and any(x is None for x in np.asarray(coeffs, object).flat):
            raise TypeError(f"polynomial coefficients must be numbers, not None: {coeffs!r}")
        self._set(c)

    def _set(self, c: list) -> None:
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        if n < len(c):
            c = c[:n]
        self._c = tuple(c) if n else (0.0,)

    @classmethod
    def _of(cls, c: list) -> "Polynomial":
        """From a list of Python floats, without conversion."""
        p = object.__new__(cls)
        if c and c[-1] != 0.0:  # nothing to trim
            p._c = tuple(c)
        else:
            p._set(c)
        return p

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of([0.0])

    # -- basic queries -----------------------------------------------------
    @property
    def coeffs(self) -> np.ndarray:
        """Ascending coefficients as a new read-only float array."""
        a = np.array(self._c)
        a.flags.writeable = False
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
        """Horner evaluation from c_n*x + c_(n-1); scalars or numpy arrays, real or complex.

        A constant returns 0.0*x + c_0, shaped like x.
        """
        c = self._c
        descending = reversed(c)
        acc = next(descending)
        for a in descending:
            acc = acc * x + a
        return acc if len(c) > 1 else 0.0 * x + acc

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._c, other._c
        if len(a) == len(b):
            return Polynomial._of([x + y for x, y in zip(a, b)])
        return Polynomial._of([x + y for x, y in zip_longest(a, b, fillvalue=0.0)])

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
        return Polynomial._of(taylor)

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
            raise ValueError(_TS_MESSAGE)

    def _set(self, num: Polynomial, den: Polynomial, ts: float | None) -> None:
        if den._c == (0.0,):  # den.is_zero
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
        return f"RationalTF({list(self.num._c)}, {list(self.den._c)}, {tag})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def poly_roots(p: Polynomial) -> RootSet:
    """The roots of ``p`` that ``poly_roots_batch`` finds, and their residual.

    The residual is the largest |p(x)| over the roots, each from one Horner
    pass of ``Polynomial.__call__``; it is NaN when any |p(x)| is NaN.
    """
    roots = poly_roots_batch((p,))[0]
    errors = [abs(p(x)) for x in roots]
    return RootSet(roots, math.nan if any(map(math.isnan, errors)) else max(errors))


def poly_roots_batch(polys) -> list:
    """The roots of each polynomial: the eigenvalues of its companion matrix.

    Each polynomial gets the companion matrix ``np.roots`` builds, zero
    low-order coefficients becoming exact roots at 0 as there. The companion
    matrices of one size are stacked and go through a single call of LAPACK's
    eigenvalue gufunc, ``numpy.linalg._umath_linalg.eigvals`` with signature
    ``d->D``, which gives each matrix the eigenvalues it gets alone, so a
    polynomial's roots do not depend on the rest of the batch. The gufunc is
    the one ``np.linalg.eigvals`` wraps, called directly because the
    wrapper's checks (a stack of square, finite float matrices) cost more
    than the eigensolve of a small matrix and are made here as the matrices
    are built. As in the wrapper, a stack whose eigenvalues are all real
    gives them as floats, so each root is ``complex(x)`` of the eigenvalue
    x that ``np.linalg.eigvals`` returns for the same stack, bit for bit.
    A 1x1 companion matrix's eigenvalue is its entry, -c_0/c_1 with
    the zeros at 0 split off, and it is taken without an eigensolve: eigvals
    returns the entry bit for bit where LAPACK does not rescale the matrix
    (|entry| from about 6.7e-139 to 1.5e138) and rounds its rescaling
    outside. The eigenvalues are the roots, as eigvals gives them: they are
    backward stable (Edelman and Murakami, Math. Comp. 64, 1995), so no
    Newton polish follows. Complex roots come in exact conjugate pairs, as a
    real eigensolver gives the eigenvalues of a real matrix. Each
    polynomial's roots, those at 0 included, are a tuple of Python
    ``complex`` sorted by real then imaginary part, multiplicity by
    repetition. Raises ``RootFindingError``, before any eigensolve, for a
    degree < 1, a non-finite coefficient or a companion row that overflows
    anywhere in the batch, and when the eigensolve does not converge.
    """
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
            row = [-a / lead for a in reversed(c[k:-1])]
            if not all(map(math.isfinite, row)):
                raise RootFindingError(f"companion row of {p!r} is not finite: {row!r}")
            members, rows = by_size.setdefault(len(row), ([], []))
            members.append(i)
            rows.append(row)
    eigs = [()] * len(zeros)
    for n, (members, rows) in by_size.items():
        if n == 1:  # a 1x1 matrix's eigenvalue is its entry: no eigensolve
            for i, row in zip(members, rows):
                eigs[i] = row
            continue
        m = len(members)
        # each matrix flat: the companion row, then ones on the subdiagonal
        # at flat indices n, 2n+1, ...
        stack = np.zeros((m, n * n))
        stack[:, :n] = rows
        stack[:, n::n + 1] = 1.0
        try:
            w = _eigvals(stack.reshape(m, n, n))
        except FloatingPointError as exc:  # LAPACK did not converge
            raise RootFindingError(f"companion eigenvalues failed: {exc}") from exc
        # as in np.linalg.eigvals, a stack with no complex eigenvalue gives floats
        for i, values in zip(members, (w if np.count_nonzero(w.imag) else w.real).tolist()):
            eigs[i] = values
    return [tuple(sorted([*map(complex, w)] + [0j] * k, key=_REAL_IMAG))
            for w, k in zip(eigs, zeros)]


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _eigvals(stack: np.ndarray) -> np.ndarray:
    """The eigenvalues of each real matrix of a stack, from LAPACK's gufunc.

    ``FloatingPointError`` when an eigensolve does not converge, which the
    gufunc signals as an invalid operation.
    """
    return _umath_linalg.eigvals(stack, signature="d->D")


def schur_stable(poly: Polynomial, radius: float = 1.0) -> bool:
    """True iff every root of ``poly`` lies strictly inside ``|z| < radius``.

    The Schur-Cohn recursion (Jury 1964): with ``a`` the coefficients of
    p(radius * z), p is stable iff ``|a_0| < |a_n|`` and
    ``(a_n p - a_0 p~) / z`` is stable, p~ the reversed polynomial. It runs
    on integers proportional to the stored ``c_k * radius**k``, each step
    divided by the gcd of its coefficients, so the verdict is exact for the
    polynomial as stored: a root on the circle, a double one included, is
    not stable. A constant is stable; the zero polynomial is not, nor is any
    polynomial with a non-finite coefficient.
    """
    if poly.is_zero or not poly.is_finite or not 0.0 < radius < math.inf:
        return False
    c = poly._c
    if radius == 1.0:  # every factor radius**k is 1
        a = _over_common_denominator([x.as_integer_ratio() for x in c])
    else:
        a = _exact_products((x,) + (radius,) * k for k, x in enumerate(c))
    while len(a) > 1:
        a0, an = a[0], a[-1]
        if abs(a0) >= abs(an):
            return False
        a = [an * a[k + 1] - a0 * a[-2 - k] for k in range(len(a) - 1)]
        g = math.gcd(*a)  # >= 1: the new leading coefficient is an**2 - a0**2 > 0
        a = [x // g for x in a]
    return True


def _sign_of_sum(*products: tuple) -> int:
    """The exact sign (-1, 0 or 1) of a sum of products of floats."""
    total = sum(_exact_products(products))
    return (total > 0) - (total < 0)


def _exact_products(products) -> list:
    """Integers proportional, by one positive factor, to the product of each tuple of floats.

    A float is n/d with d a power of two (``float.as_integer_ratio``), so a
    product is too, and all of them go over the largest denominator.
    """
    ratios = []
    for factors in products:
        n = d = 1
        for x in factors:
            xn, xd = x.as_integer_ratio()
            n, d = n * xn, d * xd
        ratios.append((n, d))
    return _over_common_denominator(ratios)


def _over_common_denominator(ratios: list) -> list:
    """The numerators of the ratios (n, d), each d a power of two, over the largest d."""
    big = max(d for _, d in ratios)
    return [n * (big // d) for n, d in ratios]
