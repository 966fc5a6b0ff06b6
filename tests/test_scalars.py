"""Exact scalars, the minimal m-value, and the group arithmetic of the
reflection oracle (``scalar_reflections``) against a ``Fraction`` reference."""

import cmath
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiddity
from quiddity import MValue, Scalar, m_value, parse_scalar
from quiddity.scalars import _m_rule

from scalar_reflections import mul, order, power

scalars = st.builds(
    Scalar,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=-6, max_value=6),
)


def zeta(n, k=1):
    return Scalar.root_of_unity(n, k)


# ---------------------------------------------------------------------------
# group structure


def test_mul_pow_examples():
    assert mul(zeta(9, 6), zeta(9, 8)) == zeta(9, 5)
    minus_q = Scalar.q_power(1, negate=True)
    assert power(minus_q, 2) == Scalar.q_power(2)
    assert mul() == Scalar.one() == Scalar(0, 7)
    assert Scalar.q_power(0, negate=True) != Scalar.one()


def test_torsion_normalized():
    assert (Scalar(14, 9).k, Scalar(14, 9).n) == (5, 9)
    assert (Scalar(-1, 3).k, Scalar(-1, 3).n) == (2, 3)
    assert zeta(6, 2) == zeta(3, 1)


@pytest.mark.parametrize("n", [0, -3])
def test_level_below_one_is_rejected(n):
    with pytest.raises(ValueError):
        Scalar.from_json({"zeta": [1, n], "qexp": 0})
    with pytest.raises(ValueError):
        Scalar(1, n)


@pytest.mark.parametrize("qexp", [True, False, 1.0, "1", None])
def test_qexp_must_be_an_integer_and_not_a_bool(qexp):
    with pytest.raises(TypeError, match="qexp must be an integer"):
        Scalar(0, 1, qexp)
    with pytest.raises(TypeError, match="qexp must be an integer"):
        Scalar.from_json({"zeta": [0, 1], "qexp": qexp})


def test_int_subclass_qexp_is_kept():
    class Exponent(int):
        pass

    assert Scalar(3, 6, Exponent(2)) == Scalar(1, 2, 2)


def test_root_of_unity_of_order_zero_is_rejected():
    with pytest.raises(ValueError):
        Scalar.root_of_unity(0, 1)


class FractionScalar:
    """Reference: the root of unity as a reduced ``Fraction`` mod 1."""

    def __init__(self, torsion, qexp):
        self.torsion, self.qexp = Fraction(torsion) % 1, qexp

    def __mul__(self, other):
        return FractionScalar(self.torsion + other.torsion, self.qexp + other.qexp)

    def __pow__(self, e):
        return FractionScalar(self.torsion * e, self.qexp * e)

    def inverse(self):
        return FractionScalar(-self.torsion, -self.qexp)

    def is_one(self):
        return self.torsion == 0 and self.qexp == 0

    def order(self):
        return None if self.qexp else self.torsion.denominator

    def sort_key(self):
        return (self.torsion.numerator, self.torsion.denominator, self.qexp)

    def to_json(self):
        return {"zeta": [self.torsion.numerator, self.torsion.denominator], "qexp": self.qexp}

    def render(self, zeta_order=None):
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


def reference_m_value(qi, q):
    """``m_value`` over the lcm of the torsion denominators."""
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


def assert_same_scalar(s, ref):
    assert (s.sort_key(), s.to_json(), order(s), s == Scalar.one()) == (
        ref.sort_key(),
        ref.to_json(),
        ref.order(),
        ref.is_one(),
    )
    assert Scalar.from_json(s.to_json()) == s
    for zeta_order in (None, s.n * 6, s.n * 6 + 1):
        assert s.render(zeta_order) == ref.render(zeta_order), (s, zeta_order)


def test_integer_scalar_matches_fraction_reference():
    rng = random.Random(2024)

    def draw():
        k, n = rng.randint(-60, 60), rng.randint(1, 36)
        e = rng.randint(-5, 5) if rng.random() < 0.5 else 0
        return Scalar(k, n, e), FractionScalar(Fraction(k, n), e)

    for _ in range(3000):
        (a, ra), (b, rb) = draw(), draw()
        e = rng.randint(-9, 9)
        assert_same_scalar(a, ra)
        assert_same_scalar(mul(a, b), ra * rb)
        assert_same_scalar(power(a, e), ra ** e)
        assert_same_scalar(power(a, -1), ra.inverse())
        assert m_value(a, b) == reference_m_value(ra, rb)


@given(scalars, scalars, scalars)
@settings(max_examples=300, deadline=None)
def test_group_laws(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c)) == mul(a, b, c)
    assert mul(a, power(a, -1)) == Scalar.one()
    assert power(mul(a, b), -1) == mul(power(a, -1), power(b, -1))


@given(scalars, st.integers(min_value=-8, max_value=8))
@settings(max_examples=300, deadline=None)
def test_pow_is_iterated_mul(a, k):
    expect = Scalar.one()
    step = a if k >= 0 else power(a, -1)
    for _ in range(abs(k)):
        expect = mul(expect, step)
    assert power(a, k) == expect


def test_order_examples():
    assert order(zeta(9, 6)) == 3
    assert order(Scalar.q_power(1)) is None
    assert order(Scalar.minus_one()) == 2
    assert order(Scalar.one()) == 1


# ---------------------------------------------------------------------------
# m-value


def test_m_value_geometric_branch_example():
    mv = m_value(zeta(9, 6), zeta(9, 8))
    assert mv == MValue(2, "geometric")


def test_m_value_power_branch_example():
    mv = m_value(zeta(9, 1), zeta(9, 4))
    assert mv == MValue(5, "power")


def test_m_value_generic_example():
    mv = m_value(Scalar.q_power(1), Scalar.q_power(-2))
    assert mv == MValue(2, "power")


def test_m_value_absent():
    # qi = 1 and q != 1: neither branch is solvable
    assert m_value(Scalar.one(), zeta(5)) is None
    assert m_value(Scalar.one(), Scalar.q_power(1)) is None
    # generic qi, torsion-only q with no power solution
    assert m_value(Scalar.q_power(1), zeta(3)) is None
    # a root of unity of order > 1 always has the geometric branch, even
    # against a generic middle entry
    assert m_value(zeta(3), Scalar.q_power(1)) == MValue(2, "geometric")


def test_m_value_zero():
    # q = 1 is hit at m = 0 by the power branch
    assert m_value(zeta(7, 3), Scalar.one()) == MValue(0, "power")


def complex_value(s: Scalar) -> complex:
    assert s.qexp == 0
    return cmath.exp(2j * cmath.pi * s.k / s.n)


def test_geometric_branch_against_complex_sums():
    # oracle: explicitly sum the series numerically; the minimal vanishing
    # partial sum must sit at order - 1
    for n in range(1, 37):
        for k in range(n):
            qi = zeta(n, k)
            z = complex_value(qi)
            total = 0j
            first_zero = None
            for m in range(73):
                total += z ** m
                if abs(total) < 1e-9:
                    first_zero = m
                    break
            d = order(qi)
            if d > 1:
                assert first_zero == d - 1, (n, k)
            else:
                assert first_zero is None


def brute_m_value(qi: Scalar, q: Scalar, bound: int):
    """The first m <= bound where a condition holds, geometric on a tie."""
    for m in range(bound + 1):
        d = order(qi)
        if d is not None and d > 1 and (m + 1) % d == 0:
            return MValue(m, "geometric")
        if mul(power(qi, m), q) == Scalar.one():
            return MValue(m, "power")
    return None


def test_m_value_minimality_exhaustive_small():
    for ni in range(1, 11):
        for n in range(1, 11):
            lcm = ni * n // gcd(ni, n)
            for ki in range(ni):
                for k in range(n):
                    qi, q = zeta(ni, ki), zeta(n, k)
                    assert m_value(qi, q) == brute_m_value(qi, q, 2 * lcm), (ni, ki, n, k)


def test_m_value_minimality_random_large():
    rng = random.Random(99)
    for _ in range(2000):
        ni, n = rng.randint(1, 36), rng.randint(1, 36)
        qi = zeta(ni, rng.randrange(ni))
        q = zeta(n, rng.randrange(n))
        lcm = ni * n // gcd(ni, n)
        assert m_value(qi, q) == brute_m_value(qi, q, 2 * lcm)


def test_m_value_generic_cases():
    q = Scalar.q_power
    # exponent must divide and give a non-negative m
    assert m_value(q(2), q(-6)) == MValue(3, "power")
    assert m_value(q(2), q(-3)) is None
    assert m_value(q(2), q(2)) is None
    assert m_value(q(-1), q(4)) == MValue(4, "power")
    # torsion must also cancel
    minus = Scalar.minus_one()
    assert m_value(mul(minus, q(1)), q(-2)) == MValue(2, "power")
    assert m_value(mul(minus, q(1)), q(-1)) is None


# ---------------------------------------------------------------------------
# rendering and parsing


def test_render():
    assert Scalar.one().render() == "1"
    assert Scalar.minus_one().render() == "-1"
    assert zeta(9, 6).render(9) == "z9^6"
    assert zeta(9, 6).render() == "z3^2"  # reduced when no order given
    assert Scalar.q_power(1).render() == "q"
    assert Scalar.q_power(-4).render() == "q^-4"
    assert Scalar.q_power(2, negate=True).render() == "-q^2"


def test_str_is_the_rendering_without_an_order():
    for s in [Scalar.one(), zeta(9, 6), Scalar.q_power(-4), Scalar.q_power(2, negate=True)]:
        assert str(s) == s.render()
    assert str(zeta(9, 6)) == "z3^2"


def test_parse_scalar():
    assert parse_scalar("q") == Scalar.q_power(1)
    assert parse_scalar("-q") == Scalar.q_power(1, negate=True)
    assert parse_scalar("q^-4") == Scalar.q_power(-4)
    assert parse_scalar("-q^2") == Scalar.q_power(2, negate=True)
    assert parse_scalar("1") == Scalar.one()
    assert parse_scalar("-1") == Scalar.minus_one()
    with pytest.raises(ValueError):
        parse_scalar("zeta^3")


def test_json_round_trip():
    for s in [zeta(9, 6), Scalar.q_power(-3), Scalar.q_power(2, negate=True)]:
        assert Scalar.from_json(s.to_json()) == s
    assert zeta(9, 6).to_json() == {"zeta": [2, 3], "qexp": 0}


def in_a_fresh_interpreter(code):
    # the stdout of ``code`` run where the package under test is importable
    root = str(Path(quiddity.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {root!r}); {code}"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.strip()


def loaded_by_the_library(module):
    code = f"import quiddity, quiddity.cli; print({module!r} in sys.modules)"
    return in_a_fresh_interpreter(code) == "True"


def test_library_does_not_load_fractions():
    assert not loaded_by_the_library("fractions")


def test_library_does_not_load_dataclasses():
    # the records are slotted classes: importing dataclasses (and the
    # inspect, ast and dis it loads) would cost every process its start-up
    assert not loaded_by_the_library("dataclasses")


def test_library_loads_only_the_standard_library():
    # no dependencies: every module the import adds is the package's or
    # the standard library's
    added = in_a_fresh_interpreter(
        "before = set(sys.modules); import quiddity, quiddity.cli; "
        "print(*sorted(set(sys.modules) - before))"
    ).split()
    assert "quiddity.cli" in added
    allowed = sys.stdlib_module_names | {"quiddity"}
    assert [name for name in added if name.split(".")[0] not in allowed] == []
