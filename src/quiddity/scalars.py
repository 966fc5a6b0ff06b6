"""Exact scalars of the form (root of unity) * q^e.

The reflection walk only ever needs values in the abelian group
(Q/Z) x Z: a root of unity zeta_n^k stored as a reduced pair of integers
(k, n), times an integer power of a single abstract parameter q of
infinite multiplicative order.  All arithmetic is exact and equality is
decidable, which keeps the walk and the classification free of numerics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from typing import Literal, Optional


@dataclass(frozen=True, slots=True)
class Scalar:
    """zeta_n^k times q^qexp, with zeta_n = e^(2*pi*i/n).

    Stored reduced: 0 <= k < n and gcd(k, n) == 1, so n is the order of
    the root-of-unity part.
    """

    k: int = 0
    n: int = 1
    qexp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not isinstance(self.qexp, int):
            raise TypeError("qexp must be an integer")
        g = gcd(self.k, self.n)
        object.__setattr__(self, "k", self.k % self.n // g)
        object.__setattr__(self, "n", self.n // g)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Scalar":
        return cls()

    @classmethod
    def minus_one(cls) -> "Scalar":
        return cls(1, 2)

    @classmethod
    def root_of_unity(cls, n: int, k: int = 1) -> "Scalar":
        """e^(2*pi*i*k/n)."""
        return cls(k, n)

    @classmethod
    def q_power(cls, e: int, *, negate: bool = False) -> "Scalar":
        """q^e, or -q^e when ``negate``."""
        return cls(1 if negate else 0, 2, e)

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.k * other.n + other.k * self.n,
            self.n * other.n,
            self.qexp + other.qexp,
        )

    def __pow__(self, e: int) -> "Scalar":
        return Scalar(self.k * e, self.n, self.qexp * e)

    def inverse(self) -> "Scalar":
        return Scalar(-self.k, self.n, -self.qexp)

    def is_one(self) -> bool:
        return self.k == 0 and self.qexp == 0

    @property
    def is_root_of_unity(self) -> bool:
        return self.qexp == 0

    def order(self) -> Optional[int]:
        """Multiplicative order; absent (None) when a q-power is present,
        since q has infinite order by the model."""
        return None if self.qexp else self.n

    # -- presentation ------------------------------------------------------

    def sort_key(self) -> tuple[int, int, int]:
        return (self.k, self.n, self.qexp)

    def to_json(self) -> dict:
        return {"zeta": [self.k, self.n], "qexp": self.qexp}

    @classmethod
    def from_json(cls, data: dict) -> "Scalar":
        k, n = data["zeta"]
        return cls(k, n, data["qexp"])

    def render(self, zeta_order: int | None = None) -> str:
        """Fixed-root notation: zeta powers for torsion, q powers for the
        generic part, with -1 folded into a leading sign."""
        k, n, e = self.k, self.n, self.qexp
        if e == 0:
            if n == 1:
                return "1"
            if n == 2:
                return "-1"
            if zeta_order is not None and zeta_order % n == 0:
                k, n = k * (zeta_order // n), zeta_order
            return f"z{n}^{k}" if k != 1 else f"z{n}"
        qpart = "q" if e == 1 else f"q^{e}"
        if n == 1:
            return qpart
        if n == 2:
            return f"-{qpart}"
        return f"z{n}^{k}*{qpart}"

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
    mg = m // g  # >= 2, as 0 < a < m
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
    solvable (the broken indicator).  Both scalars are written over the
    lcm of their orders and handed to the integer rule ``_m_rule``.
    """
    n = lcm(qi.n, q.n)
    res = _m_rule(n, qi.k * (n // qi.n), qi.qexp, q.k * (n // q.n), q.qexp)
    return None if res is None else MValue(*res)
