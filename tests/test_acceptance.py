"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria cover the frozen example vectors, the
refinement step, both cover theorems, enumeration counts against an
independent oracle, the walk examples, the reflection property suites,
and the full classification sweep.
"""

import math
import time

from quiddity import (
    BUILTIN_PAIRS,
    CoverPair,
    DihedralCycle,
    Scalar,
    Triple,
    canonicalize,
    check_generic_rows,
    classify_mu,
    cor15_check,
    decompose_affine,
    delta,
    enumerate_cycles,
    m_value,
    rho,
    solve_triples,
    theorem_step,
    verify_cor15_on_classified,
    verify_cover,
    verify_thm_subseqs,
    walk,
)
from quiddity.affine import canonical_period_key
from quiddity.charseq import SHAPE_CYCLE

from brute_triples import root_of_unity_triples as _root_of_unity_triples
from scalar_reflections import mul, order, power, sigma1, sigma2


class Criterion:
    """Context manager: times the body and prints one PASS/FAIL line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[{status}] criterion {self.number:2d} ({elapsed:7.2f}s / "
            f"budget {self.budget:5.0f}s): {self.label}"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_rewriting_vectors():
    with Criterion(1, "rewriting example vectors", 1.0):
        assert rho((3, 1, 2, 2, 1)) == (1, 4, 1, 3, 1, 3, 1)
        assert rho((3, 1, 2, 3, 1, 2)) == (1, 4, 1, 3, 1, 4, 1, 3, 1)
        target = DihedralCycle((4, 1, 3, 1, 4, 1, 3, 1))
        assert delta((3, 1, 2, 3, 1, 2)) == target
        assert delta((4, 1, 2, 2, 2, 1)) == target


def test_criterion_2_refinement_step():
    with Criterion(2, "refinement step on the trivial cover", 1.0):
        stepped = theorem_step(CoverPair.of([(0, 0), (1, 1, 1)], [(1,)]))
        assert stepped.E == frozenset(
            DihedralCycle(c)
            for c in [
                (0, 0),
                (1, 1, 1),
                (1, 2, 1, 2),
                (1, 2, 2, 1, 3),
                (1, 3, 1, 3, 1, 3),
            ]
        )
        assert stepped.F == frozenset({(1, 2), (2, 1), (1, 3, 1)})


def test_criterion_3_quadruple_cover_to_14():
    with Criterion(3, "27-quadruple cover and ends cover, length <= 14", 60.0):
        report = verify_cover(BUILTIN_PAIRS["cor12"], 14)
        assert report.ok, report.violations[:5]
        assert report.checked >= 10_000
        ends = verify_cover(BUILTIN_PAIRS["ends"], 14)
        assert ends.ok, ends.violations[:5]


def test_criterion_4_interior_subsequences_to_12():
    with Criterion(4, "interior subsequence theorem, length <= 12", 60.0):
        report = verify_thm_subseqs(12)
        assert report.ok, report.violations[:5]
        assert all(count > 0 for count in report.pattern_hits.values())
        assert all(count > 0 for count in report.exceptional_hits.values())


def _raw_insertions(t):
    n = len(t)
    out = [t[:i] + (t[i] + 1, 1, t[i + 1] + 1) + t[i + 2 :] for i in range(n - 1)]
    out.append((t[0] + 1,) + t[1 : n - 1] + (t[n - 1] + 1, 1))
    return out


def _dihedral_orbit(t):
    n = len(t)
    reps = set()
    for base in (t, t[::-1]):
        d = base + base
        for i in range(n):
            reps.add(d[i : i + n])
    return frozenset(reps)


def test_criterion_5_enumeration_counts_vs_oracle():
    with Criterion(5, "enumeration counts vs no-dedup oracle, n = 3..12", 30.0):
        expected = [1, 1, 1, 3, 4, 12, 27, 82, 228, 733]
        assert [len(enumerate_cycles(n)) for n in range(3, 13)] == expected
        level = {(0, 0)}
        oracle_counts = []
        for n in range(3, 13):
            nxt = set()
            for t in level:
                nxt.update(_raw_insertions(t))
            level = nxt
            # raw tuples biject with labelled triangulations (Catalan many)
            assert len(level) == math.comb(2 * (n - 2), n - 2) // (n - 1)
            oracle_counts.append(len({_dihedral_orbit(t) for t in level}))
        assert oracle_counts == expected


def test_criterion_6_mu9_walk_example():
    with Criterion(6, "mu_9 walk: sigma image and period (2,2,5)", 1.0):
        start = Triple.from_exponents(9, 6, 8, 6)
        image, c = sigma1(start)
        assert image == Triple.from_exponents(9, 6, 4, 1)
        assert c == 2
        report = walk(start)
        assert report.shape == SHAPE_CYCLE
        assert report.period == (2, 2, 5)


def test_criterion_7_involution_and_case_consistency_to_24():
    with Criterion(7, "involution + case consistency, all triples n <= 24", 60.0):
        checked = 0
        for key in _root_of_unity_triples(24):
            t = Triple.from_exponents(*key)
            checked += 1
            for sigma, outer in ((sigma1, t.q1), (sigma2, t.q2)):
                res = sigma(t)
                mv = m_value(outer, t.q)
                if res is None:
                    assert mv is None
                    continue
                image, c = res
                assert c == mv.m >= 0
                back = sigma(image)
                assert back is not None
                assert back[0] == t and back[1] == c
                d = order(outer)
                if d is not None and d > 1 and (c + 1) % d == 0:
                    if sigma is sigma1:
                        case = Triple(
                            t.q1,
                            mul(power(t.q1, 2), power(t.q, -1)),
                            mul(t.q1, power(t.q, c), t.q2),
                        )
                    else:
                        case = Triple(
                            mul(t.q1, power(t.q, c), t.q2),
                            mul(power(t.q2, 2), power(t.q, -1)),
                            t.q2,
                        )
                    assert image == case
                if mul(power(outer, c), t.q) == Scalar.one():
                    assert image == t
        assert checked == 82_584


def test_criterion_8_classification_at_24():
    with Criterion(8, "classification sweep reproduces the table at n <= 24", 300.0):
        report = classify_mu(24)
        assert report.ok, (report.missing, report.unmatched)
        by_row = {
            1: (2,), 2: (2,), 3: (2,), 4: (2,), 5: (2,),
            6: (1, 4), 7: (1, 4), 8: (1, 4),
            9: (2, 3, 1, 3), 10: (4, 1, 3, 3, 1), 11: (6, 1, 3, 1),
        }
        found_rows = {o.row_matched for o in report.orbits}
        assert set(by_row) <= found_rows
        for o in report.orbits:
            assert o.row_matched is not None
            if o.row_matched in by_row:
                assert canonical_period_key(o.period) == canonical_period_key(
                    by_row[o.row_matched]
                )
        assert {12, 13, 14} <= found_rows
        # the table's row-11 orbit content, each diagram up to label swap
        listed = {
            Triple.from_exponents(18, 1, 12, 9),
            Triple.from_exponents(18, 9, 6, 4),
        }
        row11 = [o for o in report.orbits if o.row_matched == 11]
        assert any(
            all(t in set(o.diagrams) or t.swap() in set(o.diagrams) for t in listed)
            for o in row11
        )


def test_criterion_9_generic_rows_and_exclusions():
    with Criterion(9, "one-parameter rows symbolically + exclusions to 48", 60.0):
        report = check_generic_rows(max_order=48)
        assert report.ok, report.violations[:10]
        assert report.rows[12]["period"] == [2]
        assert report.rows[13]["period"] == [2]
        assert report.rows[14]["period"] == [1, 4]
        r14 = {(s.order, s.exponent): s.status for s in report.specializations if s.row == 14}
        assert all(
            status != "match"
            for (order, _), status in r14.items()
            if order in (1, 2, 3, 4)
        )
        assert all(
            status == "match"
            for (order, _), status in r14.items()
            if order not in (1, 2, 3, 4)
        )


def test_criterion_10_cor15_and_non_affine_certificate():
    with Criterion(10, "fifteen-pattern necessity + (2,2,5) certificate", 10.0):
        report = verify_cor15_on_classified(24)
        assert report.ok, report.failures
        assert not cor15_check((2, 2, 5))
        assert decompose_affine((2, 2, 5)) is None
