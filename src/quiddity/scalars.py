"""Exact scalars of the form (root of unity) * q^e.

The reflection walk only ever needs values in the abelian group
(Q/Z) x Z: a root of unity stored as a reduced rational exponent mod 1,
times an integer power of a single abstract parameter q of infinite
multiplicative order.  All arithmetic is exact and equality is decidable,
which keeps the walk and the classification free of numerics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Optional


@dataclass(frozen=True, slots=True)
class Scalar:
    """zeta-part times q^qexp, with the zeta-part e^(2*pi*i*torsion)."""

    torsion: Fraction = Fraction(0)
    qexp: int = 0

    def __post_init__(self):
        t = Fraction(self.torsion) % 1
        object.__setattr__(self, "torsion", t)
        if not isinstance(self.qexp, int):
            raise TypeError("qexp must be an integer")

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Scalar":
        return cls(Fraction(0), 0)

    @classmethod
    def minus_one(cls) -> "Scalar":
        return cls(Fraction(1, 2), 0)

    @classmethod
    def root_of_unity(cls, n: int, k: int = 1) -> "Scalar":
        """e^(2*pi*i*k/n)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(Fraction(k, n), 0)

    @classmethod
    def q_power(cls, e: int, *, negate: bool = False) -> "Scalar":
        """q^e, or -q^e when ``negate``."""
        return cls(Fraction(1, 2) if negate else Fraction(0), e)

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.torsion + other.torsion, self.qexp + other.qexp)

    def __pow__(self, k: int) -> "Scalar":
        return Scalar(self.torsion * k, self.qexp * k)

    def inverse(self) -> "Scalar":
        return Scalar(-self.torsion, -self.qexp)

    def is_one(self) -> bool:
        return self.torsion == 0 and self.qexp == 0

    @property
    def is_root_of_unity(self) -> bool:
        return self.qexp == 0

    def order(self) -> Optional[int]:
        """Multiplicative order; absent (None) when a q-power is present,
        since q has infinite order by the model."""
        if self.qexp != 0:
            return None
        return self.torsion.denominator

    # -- presentation ------------------------------------------------------

    def sort_key(self) -> tuple[int, int, int]:
        return (self.torsion.numerator, self.torsion.denominator, self.qexp)

    def to_json(self) -> dict:
        return {
            "zeta": [self.torsion.numerator, self.torsion.denominator],
            "qexp": self.qexp,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scalar":
        k, n = data["zeta"]
        return cls(Fraction(k, n), data["qexp"])

    def render(self, zeta_order: int | None = None) -> str:
        """Fixed-root notation: zeta powers for torsion, q powers for the
        generic part, with -1 folded into a leading sign."""
        t, e = self.torsion, self.qexp
        if e == 0:
            if t == 0:
                return "1"
            if t == Fraction(1, 2):
                return "-1"
            n = zeta_order if zeta_order is not None else t.denominator
            k = t * n
            if k.denominator != 1:
                n = t.denominator
                k = Fraction(t.numerator)
            return f"z{n}^{int(k)}" if int(k) != 1 else f"z{n}"
        qpart = "q" if e == 1 else f"q^{e}"
        if t == 0:
            return qpart
        if t == Fraction(1, 2):
            return f"-{qpart}"
        return f"z{t.denominator}^{t.numerator}*{qpart}"

    def __str__(self) -> str:
        return self.render()


_SCALAR_RE = re.compile(r"^(-)?(?:1|q(?:\^(-?\d+))?)$")


def parse_scalar(text: str) -> Scalar:
    """Parse 'q^e', '-q^e', 'q', '-q', '1', '-1' literals."""
    m = _SCALAR_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse scalar literal {text!r}")
    neg = m.group(1) == "-"
    if "q" not in text:
        return Scalar.minus_one() if neg else Scalar.one()
    e = int(m.group(2)) if m.group(2) is not None else 1
    return Scalar.q_power(e, negate=neg)


Branch = Literal["geometric", "power"]


@dataclass(frozen=True, slots=True)
class MValue:
    """The minimal m >= 0 with 1 + qi + ... + qi^m = 0 or qi^m * q = 1,
    together with which condition fired at that m (ties report the
    geometric branch)."""

    m: int
    branch: Branch


def _solve_congruence(a: int, b: int, m: int) -> Optional[int]:
    """Minimal x >= 0 with a*x == b (mod m), m >= 1; None if unsolvable."""
    a %= m
    b %= m
    if a == 0:
        return 0 if b == 0 else None
    g = gcd(a, m)
    if b % g != 0:
        return None
    mg = m // g
    if mg == 1:
        return 0
    return (b // g) * pow(a // g, -1, mg) % mg


def _m_rule(n: int, ai: int, bi: int, a: int, b: int) -> Optional[tuple[int, Branch]]:
    """The m rule over exponents: (m, branch) for qi = z^ai * q^bi against
    q = z^a * q^b, where z = e^(2*pi*i/n); None when neither condition is
    solvable.

    The geometric sum 1 + qi + ... + qi^m vanishes iff qi is a root of
    unity of some order d > 1 and d divides m + 1, so that branch
    contributes d - 1.  The power branch solves qi^m * q = 1 exactly:
    the q-exponents must cancel and the torsion exponents agree mod n.
    Ties report the geometric branch.
    """
    if bi:
        # q-exponents must cancel: m * bi + b = 0; qi has infinite order
        if b % bi:
            return None
        m = -b // bi
        return (m, "power") if m >= 0 and (ai * m + a) % n == 0 else None
    d = n // gcd(ai, n)
    m = _solve_congruence(ai, -a, n) if b == 0 else None
    if m is not None and (d == 1 or m < d - 1):
        return m, "power"
    return (d - 1, "geometric") if d > 1 else None


def m_value(qi: Scalar, q: Scalar) -> Optional[MValue]:
    """Minimum over the two defining conditions; None when neither is
    solvable (the broken indicator).  Both scalars are written over their
    common torsion level and handed to the integer rule ``_m_rule``.
    """
    ti, t = qi.torsion, q.torsion
    n = lcm(ti.denominator, t.denominator)
    res = _m_rule(
        n,
        ti.numerator * (n // ti.denominator),
        qi.qexp,
        t.numerator * (n // t.denominator),
        q.qexp,
    )
    return None if res is None else MValue(*res)
