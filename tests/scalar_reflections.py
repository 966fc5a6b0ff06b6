"""The one-step reflections on ``Scalar`` triples, written from the
definition with ``m_value`` and ``Scalar`` arithmetic: the oracle that the
integer-exponent reflections of ``quiddity.charseq`` (``_reflect``) and
the walks and diagrams built on them are checked against."""

from typing import Optional

from quiddity import Triple, m_value


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
