"""Affine gluing, the fifteen-pattern condition and the classification."""

import json
from itertools import product
from math import gcd

import pytest

from quiddity import (
    KNOWN_ROWS,
    CoverPair,
    Scalar,
    Triple,
    check_generic_rows,
    classify_mu,
    cor15_check,
    decompose_affine,
    is_quiddity,
    minimal_period,
    solve_triples,
    verify_cor15_on_classified,
    verify_cover,
    verify_thm_subseqs,
    walk,
)
from quiddity import affine, charseq, cli, kernels
from quiddity.affine import (
    ClassificationReport,
    ClassifiedOrbit,
    TableRow,
    _instance_orbits,
    _specialized,
    canonical_period_key,
)
from quiddity.charseq import SHAPE_BROKEN, SHAPE_CYCLE, _exponents, _walk
from quiddity.cycles import eta_product

import backtrack_affine
from brute_triples import root_of_unity_triples as _root_of_unity_triples
from scalar_reflections import GENERIC_MAKERS, mul, power, sigma1, sigma2


def mu(n, e1, e, e2):
    return Triple.from_exponents(n, e1, e, e2)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_period_two():
    dec = decompose_affine((2,))
    assert dec is not None
    assert dec.blocks == ((0, 0),)
    assert dec.junctions[0][1:] == (0, 0)  # 2 = 0 + 2 + 0


def test_decompose_period_one_four():
    dec = decompose_affine((1, 4))
    assert dec is not None
    assert dec.blocks == ((1, 1, 1),)
    pos, x, y = dec.junctions[0]
    assert x == 1 and y == 1  # 4 = 1 + 2 + 1


def test_decompose_non_affine():
    assert decompose_affine((2, 2, 5)) is None
    assert decompose_affine((0,)) is None
    assert decompose_affine((1,)) is None


def test_decompose_table_periods():
    for period in [(2,), (1, 4), (2, 3, 1, 3), (4, 1, 3, 3, 1), (6, 1, 3, 1)]:
        dec = decompose_affine(period)
        assert dec is not None, period
        assert dec.reassemble() == dec.word()
        for block in dec.blocks:
            assert len(block) >= 2 and is_quiddity(block)
        # junction count is forced by the triangle-count sum
        word = dec.word()
        assert len(dec.junctions) == 3 * len(word) - sum(word)


def test_decompose_soundness_reassembly():
    dec = decompose_affine((6, 1, 3, 1))
    assert dec is not None
    assert dec.blocks == ((2, 1, 3, 1, 2),)
    assert dec.reassemble() == (6, 1, 3, 1)


def test_decompose_takes_a_list():
    # the cache is keyed by the period as a tuple, not by the argument
    for period in ((6, 1, 3, 1), (1, 4), (2, 2, 5)):
        assert decompose_affine(list(period)) == decompose_affine(period)
    assert decompose_affine([6, 1, 3, 1]).period == (6, 1, 3, 1)


def _sweep_periods(n_max):
    windows = {w for sweep in charseq._swept(n_max) for w in sweep.windows}
    return sorted({kernels.canonical_form(minimal_period(w)) for w in windows})


def test_decompose_matches_the_backtracking_search():
    periods = _sweep_periods(24)
    assert len(periods) == 670
    words = [w for length in range(1, 5) for w in product(range(8), repeat=length)]
    assert len(words) == 4680
    for period in periods + words:
        dec, ref = decompose_affine(period), backtrack_affine.decompose_affine(period)
        assert (dec is None) == (ref is None), period
        if dec is not None:
            assert dec.to_json() == ref.to_json(), period


#: Every period of the sweep up to level 24 that passes the fifteen-pattern
#: condition without being affine.
COR15_NOT_AFFINE = [
    (1, 3), (1, 3, 1, 4), (1, 3, 1, 5), (1, 3, 3, 3), (1, 3, 9, 4), (1, 2, 2, 1, 3),
    (1, 3, 3, 1, 10), (1, 2, 2, 2, 1, 4), (1, 3, 2, 3, 1, 16), (1, 3, 7, 3, 1, 5),
    (1, 3, 12, 3, 1, 6), (1, 4, 1, 4, 5, 4), (2, 2, 2, 2, 2, 8), (1, 2, 3, 1, 3, 2, 1, 5),
]


def _trace(period):
    m = eta_product(period)
    return m.a + m.d


def test_decompose_rejects_cor15_periods_exactly():
    assert sorted(
        p for p in _sweep_periods(24) if cor15_check(p) and decompose_affine(p) is None
    ) == sorted(COR15_NOT_AFFINE)
    for p in COR15_NOT_AFFINE:
        # independent certificates: an affine period has a parabolic
        # monodromy and between 1 and len(p) junctions per period
        certified = abs(_trace(p)) != 2 or not 2 * len(p) <= sum(p) < 3 * len(p)
        assert certified or p in [(1, 2, 2, 2, 1, 4), (1, 2, 3, 1, 3, 2, 1, 5)], p
    assert backtrack_affine.decompose_affine((1, 2, 3, 1, 3, 2, 1, 5), 12) is None


def test_affine_periods_have_parabolic_monodromy():
    affine_periods = [
        p
        for length in range(1, 6)
        for p in product(range(7), repeat=length)
        if decompose_affine(p) is not None
    ]
    assert len(affine_periods) > 100
    orbit_periods = sorted({o.period for o in classify_mu(48).orbits})
    assert len(orbit_periods) == 5
    for p in affine_periods + orbit_periods:
        # a transvection: trace 2, not the identity, and M - I has the
        # content 3 len(p) - sum(p) that ``_decompose`` bounds first
        m = eta_product(p)
        assert m.a + m.d == 2 and (m.a, m.b, m.c, m.d) != (1, 0, 0, 1), p
        assert gcd(m.a - 1, m.b, m.c, m.d - 1) == 3 * len(p) - sum(p), p


def test_decompose_long_periods_without_recursion():
    dec = decompose_affine((1, 4) * 500)
    assert dec is not None and dec.reassemble() == dec.word()
    assert decompose_affine((2, 3) * 40 + (2, 2)) is None


# ---------------------------------------------------------------------------
# fifteen patterns


def test_cor15_examples():
    assert cor15_check((2,))  # via (2,2,2,2) in the four-fold tiling
    assert cor15_check((6, 1, 3, 1))
    assert not cor15_check((2, 2, 5))


def test_cor15_on_table_periods():
    for row in KNOWN_ROWS:
        assert cor15_check(row.period), row


def test_affine_implies_cor15_small_periods():
    # necessity direction on a brute box of candidate periods
    for length in range(1, 5):
        for period in product(range(7), repeat=length):
            if decompose_affine(period) is not None:
                assert cor15_check(period), period


# ---------------------------------------------------------------------------
# classification


def test_classify_mu3_row1():
    report = classify_mu(3)
    assert report.ok
    rows = {o.row_matched for o in report.orbits}
    assert rows == {1}
    diag = {t for o in report.orbits for t in o.diagrams}
    assert mu(3, 1, 1, 1) in diag and mu(3, 2, 2, 2) in diag


def test_classify_mu6_row4_orbit():
    report = classify_mu(6)
    assert report.ok
    row4 = [o for o in report.orbits if o.row_matched == 4]
    assert row4
    listed = {mu(6, 4, 1, 2), mu(6, 2, 3, 2), mu(6, 2, 1, 4)}
    assert any(listed <= set(o.diagrams) for o in row4)


def test_classify_mu12_rows():
    report = classify_mu(12)
    assert report.ok
    rows = {o.row_matched for o in report.orbits}
    assert {1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14} <= rows
    # row 10's five listed diagrams live in one orbit, each up to label swap
    listed = {
        mu(12, 1, 8, 6),
        mu(12, 6, 4, 3),
        mu(12, 3, 2, 9),
        mu(12, 9, 4, 6),
        mu(12, 6, 8, 7),
    }
    row10 = [o for o in report.orbits if o.row_matched == 10]
    assert any(
        all(t in set(o.diagrams) or t.swap() in set(o.diagrams) for t in listed)
        for o in row10
    )


def test_classify_periods_match_rows():
    report = classify_mu(12)
    by_row = {
        1: (2,), 2: (2,), 3: (2,), 4: (2,), 5: (2,), 6: (1, 4), 7: (1, 4),
        9: (2, 3, 1, 3), 10: (4, 1, 3, 3, 1), 12: (2,), 13: (2,), 14: (1, 4),
    }
    for o in report.orbits:
        if o.row_matched in by_row:
            assert canonical_period_key(o.period) == canonical_period_key(
                by_row[o.row_matched]
            )


def test_classify_orbit_closure():
    report = classify_mu(6)
    for o in report.orbits:
        members = set(o.diagrams)
        for t in members:
            for sigma in (sigma1, sigma2):
                res = sigma(t)
                assert res is not None and res[0] in members


def test_classify_report_edits_do_not_leak():
    # every call returns its own report; editing one changes no later call
    report = classify_mu(6)
    expected = json.dumps(report.to_json())
    report.orbits.clear()
    report.missing.append("edited")
    assert json.dumps(classify_mu(6).to_json()) == expected
    assert verify_cor15_on_classified(6).periods


def test_report_json_does_not_alias_the_report():
    # editing a JSON document leaves the report it came from unchanged
    report = classify_mu(6)
    before = json.dumps(report.to_json())
    doc = report.to_json()
    doc["missing"].append("x")
    for o in doc["orbits"] + doc["unmatched"]:
        o["diagrams"].clear()
        o["period"].append(9)
    assert report.ok
    assert json.dumps(report.to_json()) == before

    generic = check_generic_rows(max_order=4)
    before = json.dumps(generic.to_json())
    doc = generic.to_json()
    doc["rows"][12]["period"].append(9)
    doc["rows"][13]["shape"] = "edited"
    doc["rows"].pop(14)
    doc["violations"].append("edited")
    doc["specializations"].clear()
    assert generic.ok and generic.rows[12]["period"] == [2]
    assert json.dumps(generic.to_json()) == before

    # every other result class, editing each list and dict in its document
    for report in (
        verify_cover(CoverPair.of([(0, 0), (1, 1, 1)], [(1, 3, 1, 3)]), 7),  # violations
        verify_thm_subseqs(7),
        walk(mu(9, 6, 8, 6)),  # periodic
        walk(mu(5, 0, 1, 1)),  # broken
        solve_triples((2, 2, 5), 12),
        decompose_affine((6, 1, 3, 1)),
        verify_cor15_on_classified(12),
    ):
        before = json.dumps(report.to_json())
        assert _edit_every_container(report.to_json()) > 2, report
        assert json.dumps(report.to_json()) == before, report


def _edit_every_container(doc):
    """Append to every list and add a key to every dict of a JSON
    document, innermost first; returns how many it edited."""
    edited = 0
    if isinstance(doc, list):
        edited = sum(_edit_every_container(x) for x in doc) + 1
        doc.append("edited")
    elif isinstance(doc, dict):
        edited = sum(_edit_every_container(x) for x in doc.values()) + 1
        doc["edited"] = True
    return edited


def reference_classify_mu(n_max, max_steps=100000):
    """``classify_mu`` as a walk from the least triple of every reflection
    orbit, conjugate orbits included."""
    decided, found = {}, []
    checked = broken = non_affine = 0
    for key in _root_of_unity_triples(n_max):
        if key in decided:
            continue
        checked += 1
        n = key[0]
        shape, window, _, _, states = _walk(n, key[1:] + (0, 0, 0), max_steps)
        index = None
        if shape == SHAPE_BROKEN:
            broken += 1
        elif shape != SHAPE_CYCLE:
            raise RuntimeError(f"unresolved walk from {key}")
        elif decompose_affine(period := minimal_period(window)) is None:
            non_affine += 1
        else:
            assert cor15_check(period)
            index = len(found)
            orbit = sorted((mu(n, *s[:3]) for s in states), key=Triple.sort_key)
            found.append((orbit, period, n))
        decided.update(((n, *s[:3]), index) for s in states)
    expected, missing = {}, []
    for label, match, keys in _instance_orbits(n_max):
        indices = [decided[k] for k in keys if decided[k] is not None]
        for i in indices:
            expected.setdefault(i, match)
        if not indices:
            missing.append(label)
    orbits, unmatched = [], []
    for i, (orbit, period, level) in enumerate(found):
        match = expected.get(i)
        if match is not None and canonical_period_key(period) != canonical_period_key(match[2]):
            match = None
        co = ClassifiedOrbit(
            row_matched=match[0] if match else None,
            diagrams=orbit,
            parameter=match[1] if match else f"mu_{level}",
            period=period,
            orbit_size=len(orbit),
            level=level,
        )
        orbits.append(co)
        if co.row_matched is None:
            unmatched.append(co)
    orbits.sort(key=lambda o: (o.row_matched or 10_000, o.level, [t.sort_key() for t in o.diagrams]))
    return ClassificationReport(n_max, orbits, missing, unmatched, checked, broken, non_affine)


def _assert_classify_matches_reference(n_max):
    report, reference = classify_mu(n_max), reference_classify_mu(n_max)
    assert report.to_json() == reference.to_json()
    assert report.missing == reference.missing
    assert [o.to_json() for o in report.unmatched] == [o.to_json() for o in reference.unmatched]
    return report


def test_classify_matches_walking_every_orbit():
    for n_max in range(2, 17):
        _assert_classify_matches_reference(n_max)


def test_classify_matches_walking_every_orbit_with_an_unmatched_orbit(monkeypatch):
    # without row 9 its orbits at mu_12 are unmatched, in the reference's order
    monkeypatch.setattr(affine, "KNOWN_ROWS", tuple(r for r in KNOWN_ROWS if r.row != 9))
    report = _assert_classify_matches_reference(12)
    assert len(report.unmatched) > 1 and report.missing == []


def test_classify_leaves_an_orbit_unmatched_when_its_row_prints_another_period(monkeypatch):
    rows = tuple(
        TableRow(r.row, r.n, r.diagrams, r.parameter, (3,)) if r.row == 1 else r for r in KNOWN_ROWS
    )
    monkeypatch.setattr(affine, "KNOWN_ROWS", rows)
    report = _assert_classify_matches_reference(6)
    assert report.missing == []
    assert [(o.level, o.period) for o in report.unmatched] == [(3, (2,)), (3, (2,))]


def _with_extra_row(monkeypatch, n, exponents, period):
    extra = TableRow(99, n, (exponents,), f"zeta in mu_{n}", period)
    monkeypatch.setattr(affine, "KNOWN_ROWS", KNOWN_ROWS + (extra,))


def test_classify_lists_non_affine_instance_as_missing(monkeypatch):
    # (9; 6, 8, 6) walks a cycle with the non-affine period (2,2,5)
    assert decompose_affine(walk(mu(9, 6, 8, 6)).period) is None
    _with_extra_row(monkeypatch, 9, (6, 8, 6), (2, 2, 5))
    report = classify_mu(9)
    assert not report.ok
    assert report.missing == [
        f"row 99 at zeta^{u}, mu_9" for u in (1, 2, 4, 5, 7, 8)
    ]
    assert not report.unmatched
    assert 99 not in {o.row_matched for o in report.orbits}


def test_classify_lists_broken_instance_as_missing(monkeypatch, capsys):
    # (5; 0, 1, 1) breaks: the instance is reported, not raised
    assert walk(mu(5, 0, 1, 1)).shape == "broken"
    _with_extra_row(monkeypatch, 5, (0, 1, 1), (2,))
    report = classify_mu(5)
    assert report.missing == [f"row 99 at zeta^{u}, mu_5" for u in (1, 2, 3, 4)]
    assert cli.main(["classify", "--nmax", "5"]) == 1
    assert "MISSING expected instances:" in capsys.readouterr().out


def test_classify_counts_each_swept_orbit_once():
    # every orbit of the sweep is broken, not affine or listed
    for n_max in range(2, 25):
        report = classify_mu(n_max)
        swept = sum(
            sweep.broken + sum(orbits for _, orbits, _, _ in sweep.periodic())
            for sweep in charseq._swept(n_max)
        )
        assert report.triples_checked == report.broken + report.non_affine + len(report.orbits)
        assert report.triples_checked == swept


def test_classify_rejects_tiny_bound():
    with pytest.raises(ValueError):
        classify_mu(1)


def _clear_records():
    """Forget the sweep records and the verdicts drawn from them."""
    affine._verdicts.clear()
    charseq._sweeps.clear()


def test_decomposition_caches_are_bounded_and_keep_a_sweep():
    _clear_records()
    decompose_affine.cache_clear()
    classify_mu(18)
    info = decompose_affine.cache_info()
    assert info.maxsize is not None
    assert 0 < info.misses == info.currsize < info.maxsize


def _cor15_periods(report):
    periods = {canonical_period_key(o.period) for o in report.orbits}
    return sorted(periods, key=lambda p: (len(p), p))


def test_classify_with_warm_levels_matches_a_cold_sweep():
    # cold runs of both calls, each one first, then every smaller bound
    # read from the levels a classification to 24 left behind
    cold = {}
    for k in range(2, 25):
        _clear_records()
        cold[k] = classify_mu(k)
        assert verify_cor15_on_classified(k).periods == _cor15_periods(cold[k])
        _clear_records()
        assert verify_cor15_on_classified(k).periods == _cor15_periods(cold[k])
        assert classify_mu(k).to_json() == cold[k].to_json()
    _clear_records()
    assert classify_mu(24).to_json() == cold[24].to_json()
    for k in range(2, 24):
        assert classify_mu(k).to_json() == cold[k].to_json()


def test_verify_cor15_after_classify_walks_nothing(monkeypatch):
    classify_mu(18)
    calls = []

    def counted(*args):
        calls.append(args)
        return _walk(*args)

    monkeypatch.setattr(charseq, "_walk", counted)
    report = verify_cor15_on_classified(18)
    assert calls == []
    assert report.ok and report.periods == _cor15_periods(classify_mu(18))
    _clear_records()
    verify_cor15_on_classified(6)
    assert calls  # a cleared memo walks again


# ---------------------------------------------------------------------------
# generic rows


def test_generic_rows_clean():
    report = check_generic_rows(max_order=24)
    assert report.ok
    assert report.rows[12]["period"] == [2]
    assert report.rows[13]["period"] == [2]
    assert report.rows[14]["period"] == [1, 4]
    assert all(d["shape"] == "chain" for d in report.rows.values())
    assert all(d["affine"] for d in report.rows.values())


def test_generic_row_states_are_the_makers_triples():
    for rowno, _param, level, state, _period, _excluded in affine.GENERIC_ROWS:
        t = GENERIC_MAKERS[rowno](Scalar.q_power(1))
        assert (t.level(), _exponents(t, t.level())) == (level, state), rowno


def test_specialized_matches_the_makers_at_every_root_of_unity():
    count = 0
    for rowno, _param, level, state, _period, _excluded in affine.GENERIC_ROWS:
        for k in range(1, 257):
            for u in charseq._units(k):
                t = GENERIC_MAKERS[rowno](Scalar.root_of_unity(k, u))
                n = t.level()
                assert _specialized(level, state, k, u) == (n, *_exponents(t, n)[:3]), (rowno, k, u)
                count += 1
    assert count == 59_844


def test_specialized_divides_out_a_common_factor():
    # q^2 at an even order k has order k/2, so these reduce to a lower level
    cases = [
        (lambda q: Triple(power(q, 2), power(q, -4), power(q, 2)), 1, (0, 0, 0, 2, -4, 2)),
        (
            lambda q: Triple(mul(Scalar.minus_one(), power(q, 2)), power(q, -4), power(q, 6)),
            2,
            (1, 0, 0, 2, -4, 6),
        ),
    ]
    for maker, level, state in cases:
        t = maker(Scalar.q_power(1))
        assert (t.level(), _exponents(t, t.level())) == (level, state)
        for k in range(1, 65):
            for u in charseq._units(k):
                t = maker(Scalar.root_of_unity(k, u))
                n = t.level()
                assert _specialized(level, state, k, u) == (n, *_exponents(t, n)[:3]), (k, u)
    assert _specialized(1, (0, 0, 0, 2, -4, 2), 4, 1) == (2, 1, 0, 1)


def reference_instance_orbits(n_max):
    """``_instance_orbits`` from ``Scalar``-built triples: each root-of-unity
    row's first diagram at every unit, each one-parameter row's triple at
    every admissible q = zeta_k^u, read at its exact level."""
    starts = [
        (
            Triple.from_exponents(row.n, *(x * u for x in row.diagrams[0])),
            (row.row, row.parameter, row.period),
            f"row {row.row} at zeta^{u}, mu_{row.n}",
        )
        for row in KNOWN_ROWS
        if row.n <= n_max
        for u in range(1, row.n)
        if gcd(u, row.n) == 1
    ]
    starts += [
        (
            GENERIC_MAKERS[rowno](Scalar.root_of_unity(k, u)),
            (rowno, f"q primitive {k}-th root (generic row {rowno})", period),
            f"row {rowno} specialized at mu_{k}, q=zeta^{u}",
        )
        for rowno, _param, _level, _state, period, excluded in affine.GENERIC_ROWS
        for k in range(3, n_max + 1)
        if k not in excluded
        for u in range(1, k)
        if gcd(u, k) == 1
    ]
    for start, match, label in starts:
        n = start.level()
        if n <= n_max:
            e1, e, e2 = _exponents(start, n)[:3]
            yield label, match, ((n, e1, e, e2), (n, e2, e, e1))


def test_instance_orbits_match_the_scalar_built_instances():
    for n_max in range(1, 49):
        assert list(_instance_orbits(n_max)) == list(reference_instance_orbits(n_max)), n_max


def reference_generic_specializations(max_order, max_steps=10000):
    """The specializations and violations of ``check_generic_rows`` from
    one walk per specialization q = zeta_k^u."""
    specializations, violations = [], []
    for rowno, _param, _level, _state, period, excluded in affine.GENERIC_ROWS:
        target = canonical_period_key(period)
        for k in range(1, max_order + 1):
            for u in range(1, max(k, 2)):
                if gcd(u, k) != 1:
                    continue
                start = GENERIC_MAKERS[rowno](Scalar.root_of_unity(k, u))
                srep = walk(start, max_steps=max_steps)
                if srep.shape == SHAPE_BROKEN:
                    status = "broken"
                elif canonical_period_key(srep.period) == target:
                    status = "match"
                else:
                    status = "degenerate"
                specializations.append({"row": rowno, "order": k, "exponent": u, "status": status})
                allowed = k not in excluded
                if allowed and status != "match":
                    violations.append(f"row {rowno}: mu_{k} (exp {u}) should match but got {status}")
                if not allowed and status == "match":
                    violations.append(f"row {rowno}: mu_{k} (exp {u}) is excluded but matches")
    return specializations, violations


def _assert_generic_rows_match_reference(max_order):
    doc = check_generic_rows(max_order).to_json()
    assert (doc["specializations"], doc["violations"]) == reference_generic_specializations(
        max_order
    )
    return doc


def test_generic_rows_match_walking_every_specialization():
    for max_order in range(1, 31):
        _assert_generic_rows_match_reference(max_order)


def test_generic_rows_match_walking_every_specialization_with_wrong_exclusions(monkeypatch):
    # row 14 with mu_4 allowed and mu_5 excluded: both give violations, one per exponent
    rows = tuple(
        r[:5] + ((1, 2, 3, 5),) if r[0] == 14 else r for r in affine.GENERIC_ROWS
    )
    monkeypatch.setattr(affine, "GENERIC_ROWS", rows)
    doc = _assert_generic_rows_match_reference(12)
    assert len(doc["violations"]) == 2 + 4


def _with_row12(monkeypatch, state, period):
    rows = tuple(
        (12, r[1], r[2], state, period, r[5]) if r[0] == 12 else r for r in affine.GENERIC_ROWS
    )
    monkeypatch.setattr(affine, "GENERIC_ROWS", rows)


def test_generic_rows_report_a_broken_generic_walk(monkeypatch):
    # (1, q, 1) breaks at once: its shape, its empty period and its
    # affine-ness are each a violation
    _with_row12(monkeypatch, (0, 0, 0, 0, 1, 0), (2,))
    report = check_generic_rows(6)
    assert report.rows[12]["shape"] == SHAPE_BROKEN and not report.ok
    assert {
        "row 12: generic walk gave shape broken",
        "row 12: generic period () != expected (2,)",
        "row 12: generic period not affine",
    } <= set(report.violations)


def test_generic_rows_report_a_wrong_printed_period(monkeypatch, capsys):
    _with_row12(monkeypatch, (0, 0, 0, 1, -2, 1), (3,))
    report = check_generic_rows(6)
    assert [v for v in report.violations if "generic" in v] == [
        "row 12: generic period (2,) != expected (3,)"
    ]
    assert cli.main(["generic"]) == 1


@pytest.mark.parametrize("max_order", [0, -5])
def test_generic_rows_reject_an_order_bound_below_one(monkeypatch, max_order):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(affine, "walk", no_walk)
    monkeypatch.setattr(affine, "_walk", no_walk)
    with pytest.raises(ValueError, match="max_order"):
        check_generic_rows(max_order)


def test_generic_row14_exclusions():
    report = check_generic_rows(max_order=12)
    r14 = [s for s in report.specializations if s.row == 14]
    for s in r14:
        if s.order in (1, 2, 3, 4):
            assert s.status != "match", s
        else:
            assert s.status == "match", s


def test_generic_rows_pm_one_degenerates():
    report = check_generic_rows(max_order=6)
    for s in report.specializations:
        if s.order in (1, 2):
            assert s.status != "match", s


def test_row14_mu4_walk_directly():
    q = Scalar.root_of_unity(4, 1)
    rep = walk(Triple(q, power(q, -4), power(q, 4)))
    assert canonical_period_key(rep.period) != canonical_period_key((1, 4))
    assert decompose_affine(rep.period) is None


def test_classify_decides_each_affine_period_once(monkeypatch):
    calls = {"cor15_check": [], "canonical_period_key": []}
    for name, seen in calls.items():
        original = getattr(affine, name)

        def counted(period, original=original, seen=seen):
            seen.append(tuple(period))
            return original(period)

        monkeypatch.setattr(affine, name, counted)
    report = classify_mu(18)
    monkeypatch.undo()
    periods = {canonical_period_key(o.period) for o in report.orbits}
    assert len(report.orbits) == 390 and len(periods) == 5
    checked = [canonical_period_key(p) for p in calls["cor15_check"]]
    assert sorted(checked) == sorted(periods)  # once per distinct affine period
    printed = calls["canonical_period_key"]
    assert len(printed) == len(set(printed)) <= len(KNOWN_ROWS) + len(affine.GENERIC_ROWS)
    assert set(printed) <= {row.period for row in KNOWN_ROWS} | {
        row[4] for row in affine.GENERIC_ROWS
    }


def test_verify_cor15_on_classified_small():
    report = verify_cor15_on_classified(8)
    assert report.ok
    assert (1, 4) in report.periods or (1, 4) in {
        canonical_period_key(p) for p in report.periods
    }


def test_verify_cor15_reports_a_failing_period(monkeypatch, capsys):
    # no period holds a pattern with an entry above every m-value up to 6
    monkeypatch.setattr(affine, "FIFTEEN_PATTERNS", ((99, 99, 99),))
    report = verify_cor15_on_classified(6)
    assert report.periods and report.failures == report.periods and not report.ok
    assert cli.main(["verify-cor15", "--nmax", "6", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [list(p) for p in report.periods]
    with pytest.raises(RuntimeError, match="fifteen-pattern condition"):
        classify_mu(6)
