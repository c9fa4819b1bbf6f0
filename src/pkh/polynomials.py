"""Laurent polynomials in q and bigraded polynomials in t, q.

Coefficients are exact integers.  These are the output currency of the
homology computations (Poincare polynomials, graded Euler characteristics)
and of the closed-form oracles.
"""

from __future__ import annotations


class _Polynomial:
    """Integer polynomial as a dict from exponent key to nonzero coefficient.

    The arithmetic its subclasses share; each names its variables in
    `_powers`, which maps a key to (variable, exponent) pairs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls({})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return type(self)(out)

    def items(self):
        return sorted(self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.items():
            parts.append(_term(c, self._powers(k), first=not parts))
        return "".join(parts)

    __repr__ = __str__


class LaurentPoly(_Polynomial):
    """Integer Laurent polynomial in the single variable q."""

    __slots__ = ()

    @staticmethod
    def _powers(e: int) -> list[tuple[str, int]]:
        return [("q", e)]

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_plus_qinv(cls) -> "LaurentPoly":
        return cls({1: 1, -1: 1})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute q -> q^k."""
        return LaurentPoly({e * k: c for e, c in self.coeffs.items()})

    def divide_int(self, m: int) -> "LaurentPoly":
        """Divide every coefficient by m, which must divide exactly."""
        out = {}
        for e, c in self.coeffs.items():
            if c % m:
                raise ValueError(f"coefficient {c} not divisible by {m}")
            out[e] = c // m
        return LaurentPoly(out)


class BiPolynomial(_Polynomial):
    """Integer polynomial in t and q, both with Laurent exponents."""

    __slots__ = ()

    @staticmethod
    def _powers(k: tuple[int, int]) -> list[tuple[str, int]]:
        return [("t", k[0]), ("q", k[1])]

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> "BiPolynomial":
        return cls({(i, j): coeff})

    def at_t_minus_one(self) -> LaurentPoly:
        out: dict[int, int] = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, 0) + c * (-1) ** (i % 2)
        return LaurentPoly(out)


def _term(coeff: int, vars_exps: list[tuple[str, int]], first: bool) -> str:
    factors = [f"{v}^{e}" if e != 1 else v for v, e in vars_exps if e != 0]
    mag = abs(coeff)
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    body = "*".join(factors)
    if first:
        return body if coeff > 0 else "-" + body
    return (" + " if coeff > 0 else " - ") + body
