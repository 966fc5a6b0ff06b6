"""The one-step reflections on ``Scalar`` triples, written from the
definition with ``m_value`` and ``Scalar`` arithmetic: the oracle that the
integer-exponent reflections of ``quiddity.charseq`` (``_reflect``) and
the walks and diagrams built on them are checked against.  Also the
triples of the one-parameter rows 12-14 as functions of q, the oracle for
the walk states of ``quiddity.affine.GENERIC_ROWS``."""

from typing import Optional

from quiddity import Scalar, Triple, m_value

#: The triple of each one-parameter row, by row number, for a scalar q.
GENERIC_MAKERS = {
    12: lambda q: Triple(q, q ** -2, q),
    13: lambda q: Triple(q, q ** -2, Scalar.minus_one() * q),
    14: lambda q: Triple(q, q ** -4, q ** 4),
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
            (t.q1 ** (-2 * m)) * t.q.inverse(),
            (t.q1 ** (m * m)) * (t.q ** m) * t.q2,
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
            t.q1 * (t.q ** m) * (t.q2 ** (m * m)),
            (t.q2 ** (-2 * m)) * t.q.inverse(),
            t.q2,
        ),
        m,
    )
