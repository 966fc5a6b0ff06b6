"""The one-step reflections on ``Scalar`` triples, written from the
definition with ``m_value`` and the group arithmetic of (Q/Z) x Z below:
the oracle that the integer-exponent reflections of ``quiddity.charseq``
(``_reflect``) and the walks and diagrams built on them are checked
against.  Also the triples of the one-parameter rows 12-14 as functions
of q, the oracle for the walk states of ``quiddity.affine.GENERIC_ROWS``.

``Scalar`` itself has no arithmetic: the library walks on integer
exponents, so the products, powers and orders live here, with the tests
that use them."""

from typing import Optional

from quiddity import Scalar, Triple, m_value


def mul(*factors: Scalar) -> Scalar:
    """The product: root-of-unity exponents add over a common order,
    q-exponents add."""
    out = Scalar.one()
    for s in factors:
        out = Scalar(out.k * s.n + s.k * out.n, out.n * s.n, out.qexp + s.qexp)
    return out


def power(s: Scalar, e: int) -> Scalar:
    """s to the integer power e (e < 0 inverts)."""
    return Scalar(s.k * e, s.n, s.qexp * e)


def order(s: Scalar) -> Optional[int]:
    """Multiplicative order; None when a q-power is present, since q has
    infinite order by the model."""
    return None if s.qexp else s.n


#: The triple of each one-parameter row, by row number, for a scalar q.
GENERIC_MAKERS = {
    12: lambda q: Triple(q, power(q, -2), q),
    13: lambda q: Triple(q, power(q, -2), mul(Scalar.minus_one(), q)),
    14: lambda q: Triple(q, power(q, -4), power(q, 4)),
}


def sigma1(t: Triple) -> Optional[tuple[Triple, int]]:
    """Left reflection; None when the m-value is undefined (broken).

    Returns the image triple and the recorded value c = m1.  When the
    power condition fires at the minimum, the image equals the input (an
    end of the sequence).
    """
    mv = m_value(t.q1, t.q)
    if mv is None:
        return None
    m = mv.m
    return (
        Triple(
            t.q1,
            mul(power(t.q1, -2 * m), power(t.q, -1)),
            mul(power(t.q1, m * m), power(t.q, m), t.q2),
        ),
        m,
    )


def sigma2(t: Triple) -> Optional[tuple[Triple, int]]:
    """Right reflection, mirror of ``sigma1``."""
    mv = m_value(t.q2, t.q)
    if mv is None:
        return None
    m = mv.m
    return (
        Triple(
            mul(t.q1, power(t.q, m), power(t.q2, m * m)),
            mul(power(t.q2, -2 * m), power(t.q, -1)),
            t.q2,
        ),
        m,
    )
