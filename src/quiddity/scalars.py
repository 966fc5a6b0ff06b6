"""Exact scalars of the form (root of unity) * q^e.

The reflection walk only ever needs values in the abelian group
(Q/Z) x Z: a root of unity zeta_n^k stored as a reduced pair of integers
(k, n), times an integer power of a single abstract parameter q of
infinite multiplicative order.  Equality is exact and decidable, which
keeps the walk and the classification free of numerics.  The walk itself
runs on the integer exponents (``quiddity.charseq``), so a ``Scalar`` is
a value at the API boundary and has no group arithmetic of its own.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import Literal, Optional

from .cycles import _Frozen


class Scalar(_Frozen):
    """zeta_n^k times q^qexp, with zeta_n = e^(2*pi*i/n).

    Stored reduced: 0 <= k < n and gcd(k, n) == 1, so n is the order of
    the root-of-unity part.
    """

    __slots__ = ("k", "n", "qexp")

    def __init__(self, k: int = 0, n: int = 1, qexp: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if type(qexp) is not int and (isinstance(qexp, bool) or not isinstance(qexp, int)):
            raise TypeError("qexp must be an integer")
        g = gcd(k, n)
        set_k, set_n, set_qexp = self._setters
        set_k(self, k % n // g)
        set_n(self, n // g)
        set_qexp(self, qexp)

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


class MValue(_Frozen):
    """The minimal m >= 0 with 1 + qi + ... + qi^m = 0 or qi^m * q = 1,
    together with which condition fired at that m (ties report the
    geometric branch): the fields ``m`` and ``branch``."""

    __slots__ = ("m", "branch")

    def __init__(self, m: int, branch: Branch):
        set_m, set_branch = self._setters
        set_m(self, m)
        set_branch(self, branch)


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
    g = gcd(ai, n)
    d = n // g  # the order of qi
    if b == 0 and a % g == 0:
        # ai*m = -a (mod n) has one solution mod d, and pow(x, -1, 1) is 0
        m = (-a // g) * pow(ai // g, -1, d) % d
        if d == 1 or m < d - 1:
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
