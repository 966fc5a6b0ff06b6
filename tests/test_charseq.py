"""Reflection walk, characteristic sequences, reconstruction."""

import random
from collections import Counter
from itertools import product
from math import gcd

import pytest

from quiddity import (
    Scalar,
    Triple,
    classify_mu,
    minimal_period,
    solve_triples,
    walk,
)
from quiddity import affine, charseq, cli
from quiddity.charseq import (
    SHAPE_BROKEN,
    SHAPE_CHAIN,
    SHAPE_CYCLE,
    SHAPE_UNRESOLVED,
    SolveMatch,
    SolveReport,
    _first_steps,
    _galois_keys,
    _galois_nf,
    _galois_table,
    _m_table,
    _reflect,
    _units,
    _walk,
)

from quiddity.scalars import _m_rule

from brute_triples import level_triples
from brute_triples import root_of_unity_triples as _root_of_unity_triples
from brute_triples import window_matches as _window_matches
from scalar_reflections import GENERIC_MAKERS, mul, order, power, sigma1, sigma2

REPORT_FIELDS = (
    "shape", "period", "ends", "orbit", "window", "window_origin", "state_period", "steps",
)


def mu(n, e1, e, e2):
    return Triple.from_exponents(n, e1, e, e2)


# ---------------------------------------------------------------------------
# reflections


def test_sigma1_mu9_example():
    image, c = sigma1(mu(9, 6, 8, 6))
    assert image == mu(9, 6, 4, 1)
    assert c == 2


def test_sigma1_fixed_point_mu3():
    t = mu(3, 1, 1, 1)
    image, c = sigma1(t)
    assert image == t and c == 2


def test_sigma_broken():
    # q1 = 1 with q != 1 has no m-value
    assert sigma1(mu(5, 0, 1, 1)) is None


def test_involution_random_sample():
    rng = random.Random(4242)
    count = 0
    while count < 1000:
        n = rng.randint(2, 24)
        t = mu(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        r1 = sigma1(t)
        r2 = sigma2(t)
        if r1 is None or r2 is None:
            continue
        count += 1
        back1 = sigma1(r1[0])
        back2 = sigma2(r2[0])
        assert back1 is not None and back1[0] == t and back1[1] == r1[1]
        assert back2 is not None and back2[0] == t and back2[1] == r2[1]


def test_integer_reflections_are_involutions_on_generic_states():
    # the fact ``_walk`` stops by: a reflection maps its image back to the
    # state with the same m-value, q-exponents included
    rng = random.Random(2024)
    defined = 0
    for _ in range(40000):
        n = rng.randint(1, 12)
        s = tuple(rng.randrange(n) for _ in range(3)) + tuple(rng.randint(-4, 4) for _ in range(3))
        for left in (True, False):
            res = _reflect(n, s, left)
            if res is not None:
                defined += 1
                image, m = res
                assert _reflect(n, image, left) == (s, m), (n, s, left)
    assert defined > 10000


def test_case_formula_consistency_sample():
    # the closed formula must specialize to both displayed cases
    rng = random.Random(7)
    from quiddity import m_value

    checked = 0
    while checked < 800:
        n = rng.randint(2, 24)
        t = mu(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        mv = m_value(t.q1, t.q)
        if mv is None:
            continue
        checked += 1
        image, c = sigma1(t)
        assert c == mv.m
        d = order(t.q1)
        if d is not None and d > 1 and (mv.m + 1) % d == 0:
            geom = Triple(
                t.q1, mul(power(t.q1, 2), power(t.q, -1)), mul(t.q1, power(t.q, mv.m), t.q2)
            )
            assert image == geom
        if mul(power(t.q1, mv.m), t.q) == Scalar.one():
            assert image == t


# ---------------------------------------------------------------------------
# walk


def test_walk_mu9_cycle():
    report = walk(mu(9, 6, 8, 6))
    assert report.shape == SHAPE_CYCLE
    assert report.period == (2, 2, 5)
    assert report.window == [2, 5, 2, 2, 5, 2]
    assert report.state_period == 6
    assert report.ends == [1, 4]
    assert mu(9, 6, 4, 1) in report.orbit and mu(9, 1, 4, 6) in report.orbit


def test_walk_budget_counts_reflections():
    # the state period of (9; 6, 8, 6) is 6: six reflections bring the
    # walk back to its start, five leave it one short
    report = walk(mu(9, 6, 8, 6), max_steps=6)
    assert (report.shape, report.steps, report.period) == (SHAPE_CYCLE, 6, (2, 2, 5))
    short = walk(mu(9, 6, 8, 6), max_steps=5)
    assert (short.shape, short.steps, short.state_period) == (SHAPE_UNRESOLVED, 5, None)
    assert short.window == [2, 5, 2, 2, 5]
    assert short.orbit == [mu(9, 6, 8, 6), mu(9, 6, 4, 1), mu(9, 1, 4, 6)]
    with pytest.raises(ValueError):
        walk(mu(9, 6, 8, 6), max_steps=0)


def test_walk_generic_row_is_chain_with_two_ends():
    q = Scalar.q_power(1)
    report = walk(Triple(q, power(q, -2), q))
    assert report.shape == SHAPE_CHAIN
    assert report.period == (2,)
    assert len(report.ends) == 2
    assert len(report.orbit) == 1


def test_walk_mu3_diagonal():
    report = walk(mu(3, 1, 1, 1))
    assert report.shape == SHAPE_CYCLE
    assert report.period == (2,)


def test_walk_broken_collects_backward_window():
    report = walk(mu(5, 0, 1, 1))
    assert report.shape == SHAPE_BROKEN
    assert report.period == ()
    assert report.window_origin <= 0


def test_walk_values_non_negative_and_mirror_at_ends():
    for (n, exps) in [(9, (6, 8, 6)), (12, (1, 10, 9)), (5, (1, 4, 4))]:
        report = walk(mu(n, *exps))
        assert all(c >= 0 for c in report.window)
        length = report.state_period
        for e in report.ends:
            for j in range(length):
                assert (
                    report.window[(e + j) % length] == report.window[(e - j) % length]
                )


def test_walk_purely_periodic_sample():
    # the first repeated walk state is the initial one; the walk promises
    # that by returning a full-period window whose repetition reproduces
    # the forward run
    rng = random.Random(31337)
    found = 0
    while found < 200:
        n = rng.randint(2, 18)
        t = mu(n, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        report = walk(t)
        if report.shape != SHAPE_CYCLE:
            continue
        found += 1
        assert report.state_period == len(report.window)
        assert report.state_period % 2 == 0
        assert len(report.period) <= report.state_period
        assert all(
            report.window[i] == report.window[i % len(report.period)]
            for i in range(report.state_period)
        ) or report.state_period % len(report.period) == 0


def test_minimal_period_examples():
    assert minimal_period((2, 2, 5, 2, 2, 5)) == (2, 2, 5)
    assert minimal_period((2, 2, 2)) == (2,)
    assert minimal_period((1, 4, 1, 4)) == (1, 4)
    assert minimal_period((2, 5, 2, 2, 5, 2)) == (2, 2, 5)


def reference_minimal_period(window):
    """``minimal_period`` with the period tested index by index."""
    w = tuple(window)
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and all(w[i] == w[i % p] for i in range(n)):
            core = w[:p]
            doubled = core + core
            return min(doubled[i : i + p] for i in range(p))


def test_minimal_period_matches_index_by_index_reference():
    # windows built by repeating a core, half of them with one entry
    # changed, so that both true and near-miss periods occur
    rng = random.Random(20261018)
    for _ in range(40_000):
        core = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        window = core * rng.randint(1, 5)
        if rng.random() < 0.5:
            window[rng.randrange(len(window))] = rng.randint(0, 3)
        assert minimal_period(window) == reference_minimal_period(window), window


def test_minimal_period_rejects_empty():
    with pytest.raises(ValueError):
        minimal_period(())


def test_walk_report_json():
    data = walk(mu(9, 6, 8, 6)).to_json()
    assert set(data) >= {"shape", "period", "ends", "orbit", "window"}
    assert data["period"] == [2, 2, 5]


# ---------------------------------------------------------------------------
# reconstruction


def test_solve_triples_finds_mu9_example():
    report = solve_triples((2, 2, 5), 9)
    assert mu(9, 6, 8, 6) in set(report.triples)
    assert not report.ambiguous


def test_solve_triples_window_too_short():
    with pytest.raises(ValueError):
        solve_triples((2, 2), 6)


def test_solve_triples_ambiguous_middle_end():
    report = solve_triples((1, 3, 1), 12)
    assert report.ambiguous
    middles = {1 in m.end_offsets for m in report.matches}
    assert middles == {True, False}


def test_solve_triples_diagonal():
    report = solve_triples((2, 2, 2), 3)
    assert mu(3, 1, 1, 1) in set(report.triples)


def test_solve_triples_matches_verify():
    # every reported triple really exhibits the window in its sequence
    report = solve_triples((2, 2, 5), 9)
    for t in report.triples:
        w = walk(t)
        tiled = tuple(w.window) * 3
        assert any(
            tiled[o : o + 3] == (2, 2, 5) for o in range(w.state_period)
        )


def reference_solve_triples(window, modulus_bound, max_steps=10000):
    """``solve_triples`` as a walk from every triple, conjugates included."""
    target = tuple(window)
    matches = []
    for n, e1, e, e2 in _root_of_unity_triples(modulus_bound):
        t = mu(n, e1, e, e2)
        report = walk(t, max_steps)
        if report.shape != SHAPE_CYCLE:
            continue
        matches += [SolveMatch(t, off, ends) for off, ends in _window_matches(report, target)]
    matches.sort(key=lambda m: (m.triple.sort_key(), m.offset))
    return SolveReport(
        window=target,
        bound=modulus_bound,
        matches=matches,
        triples=list(dict.fromkeys(m.triple for m in matches)),
        ambiguous=len({m.end_offsets for m in matches}) > 1,
    )


@pytest.mark.parametrize("window", [(2, 2, 5), (1, 3, 1), (1, 4, 1, 4)])
def test_solve_triples_matches_walking_every_triple(window):
    report, reference = solve_triples(window, 12), reference_solve_triples(window, 12)
    assert report.matches
    assert report.to_json() == reference.to_json()
    assert report.triples == reference.triples


@pytest.mark.parametrize("window", [(2, 2, 5), (1, 3, 1), (1, 4, 1, 4), (5, 5, 3, 2)])
def test_solve_triples_cold_and_warm_match_walking_every_triple(window):
    reference = reference_solve_triples(window, 14).to_json()
    charseq._sweeps.clear()
    assert solve_triples(window, 14).to_json() == reference  # sweeps levels 1..14
    assert solve_triples(window, 14).to_json() == reference  # reads their records


def _sides(n, key):
    """Each state of the walk from ``key`` with the parities of the steps
    that meet it, by stepping the reflections one at a time."""
    s, left, sides = key + (0, 0, 0), True, {}
    while True:
        sides.setdefault(s[:3], set()).add(0 if left else 1)
        s = _reflect(n, s, left)[0]
        left = not left
        if (s, left) == (key + (0, 0, 0), True):
            return sides


def test_solve_triples_maps_hits_to_members_met_only_on_odd_steps():
    # the walk from the key (2, 1, 3) at mu_12 meets (2, 3, 10) on odd
    # steps only, so that member reads the key's window backwards
    assert _sides(12, (2, 1, 3))[2, 3, 10] == {1}
    assert mu(12, 2, 3, 10) in solve_triples((5, 5, 3, 2), 12).triples


def _count_walks(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _walk(*args)

    monkeypatch.setattr(charseq, "_walk", counted)
    return calls


def test_solve_triples_after_classify_walks_nothing(monkeypatch):
    classify_mu(18)
    calls = _count_walks(monkeypatch)
    report = solve_triples((2, 2, 5), 12)
    assert calls == [] and report.matches


def test_sweeps_walk_one_orbit_per_galois_class_of_orbits(monkeypatch):
    calls = _count_walks(monkeypatch)
    affine._verdicts.clear()
    charseq._sweeps.clear()
    classify_mu(18)
    assert len(calls) == 2815
    charseq._sweeps.clear()
    solve_triples((2, 2, 5), 24)
    assert len(calls) == 2815 + 6364


def test_m_table_holds_the_m_rule_without_q_exponents():
    for n in range(1, 65):
        table = _m_table(n)
        assert len(table) == n * n
        for ai, a in product(range(n), repeat=2):
            mv = _m_rule(n, ai, 0, a, 0)
            assert table[ai * n + a] == (-1 if mv is None else mv[0]), (n, ai, a)


def test_sweep_records_from_the_table_equal_those_of_the_rule(monkeypatch):
    rules = []

    def counted(*args):
        rules.append(args)
        return _m_rule(*args)

    monkeypatch.setattr(charseq, "_m_rule", counted)
    charseq._sweeps.clear()
    from_table = charseq._swept(48)
    assert rules == []  # every m-value of the sweep came from a table
    monkeypatch.setattr(charseq, "_m_table", lambda n: None)
    charseq._sweeps.clear()
    assert charseq._swept(48) == from_table
    assert rules  # the rule path was walked


def test_walk_reads_no_table_for_a_start_with_q_exponents():
    # row 12's generic state over mu_1; the level-1 table would break it
    state = (0, 0, 0, 1, -2, 1)
    assert _walk(1, state, 100, _m_table(1)) == _walk(1, state, 100)
    assert _walk(1, state, 100)[0] == SHAPE_CHAIN


def test_solve_triples_rejects_negative_or_non_integer_entries(monkeypatch):
    calls = _count_walks(monkeypatch)
    charseq._sweeps.clear()
    for window in [(-1, 2, 5), (2, 2.0, 5), (2, True, 5)]:
        with pytest.raises(ValueError):
            solve_triples(window, 3)
    assert calls == []  # refused before any walk


def test_sweep_bounds_above_256_raise_before_any_walk(monkeypatch, capsys):
    # the packed records hold levels up to 256; sweeping 1..256 first
    # would take hours
    def no_sweep(n):
        raise AssertionError(f"level {n} was swept")

    monkeypatch.setattr(charseq, "_sweep", no_sweep)
    for call in (
        lambda: classify_mu(257),
        lambda: affine.verify_cor15_on_classified(257),
        lambda: solve_triples((2, 2, 5), 257),
        lambda: solve_triples((300, 1, 1), 400),  # levels 301..400 can record 300
        lambda: solve_triples((300, 1, 1), 300),  # no entry fits, yet the bound is refused
    ):
        with pytest.raises(ValueError, match="256"):
            call()
    for argv in (
        ["classify", "--nmax", "257"],
        ["verify-cor15", "--nmax", "257"],
        ["solve", "--window", "2,2,5", "--bound", "257"],
        ["solve", "--window", "300,1,1", "--bound", "300"],
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "256" in err


def test_solve_triples_entry_above_255_matches_nothing():
    # an m-value at level n is below n: no level the records hold has one
    report = solve_triples((300, 1, 1), 6)
    assert report.matches == [] and report.window == (300, 1, 1)


def test_first_steps_replay_the_walk():
    for n in range(1, 11):
        for key, _, window, _ in charseq._swept(n)[-1].periodic():
            steps = _first_steps(n, key, window)
            assert list(steps) == [s[:3] for s in _walk(n, key + (0, 0, 0), 2 * n**3)[4]]
            sides = _sides(n, key)
            assert all(j % 2 in sides[s] for s, j in steps.items())


# ---------------------------------------------------------------------------
# the sweep over root-of-unity triples


def test_galois_keys_are_the_least_member_of_each_class():
    # keys of exact level, least in their class, distinct, and as many as
    # the classes: so exactly one per class
    for n in range(1, 31):
        keys = list(_galois_keys(n, _galois_table(n)))
        assert keys == sorted(set(keys))
        assert len(keys) == jordan3(n) // len(_units(n))
        for key in keys:
            assert gcd(n, *key) == 1
            assert key == min(tuple(u * e % n for e in key) for u in _units(n))


def test_galois_normal_form_is_the_least_conjugate():
    for n in range(1, 13):
        table = _galois_table(n)
        for s in level_triples(n):
            conjugates = [tuple(u * e % n for e in s) for u in _units(n)]
            assert {_galois_nf(n, table, c) for c in conjugates} == {min(conjugates)}


def jordan3(n):
    """Jordan's totient J_3(n) = n^3 * prod over primes p | n of (1 - p^-3)."""
    out, m, p = n**3, n, 2
    while m > 1:
        if m % p == 0:
            out = out // p**3 * (p**3 - 1)
            while m % p == 0:
                m //= p
        p += 1
    return out


def test_root_of_unity_triples_once_at_exact_level():
    triples = [mu(*exps) for exps in _root_of_unity_triples(14)]
    counts = Counter(t.level() for t in triples)
    assert counts == {n: jordan3(n) for n in range(1, 15)}
    assert len({t.sort_key() for t in triples}) == len(triples) == 10132


def test_units():
    assert _units(1) == (1,) and _units(2) == (1,)
    assert _units(12) == (1, 5, 7, 11)
    assert [len(_units(n)) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_conjugate_walk_is_the_walk_times_the_unit():
    # the lemma the sweep rests on, for every triple with n <= 12
    shapes = Counter()
    for n, e1, e, e2 in _root_of_unity_triples(12):
        shape, window, window_origin, ends, orbit = _walk(n, (e1, e, e2, 0, 0, 0), 10000)
        shapes[shape] += 1
        for u in _units(n)[1:]:
            image = _walk(n, (u * e1 % n, u * e % n, u * e2 % n, 0, 0, 0), 10000)
            assert image[:4] == (shape, window, window_origin, ends)
            assert image[4] == [
                (u * x1 % n, u * x % n, u * x2 % n, 0, 0, 0) for x1, x, x2, *_ in orbit
            ]
    assert set(shapes) == {SHAPE_BROKEN, SHAPE_CYCLE}


def test_root_of_unity_triples_follow_the_exponent_loops():
    # same triples in the same order as looping over (Z/n)^3 for
    # n = 2, 3, ... and skipping those already met at a smaller n
    seen, looped = set(), []
    for n in range(2, 9):
        for e1, e, e2 in product(range(n), repeat=3):
            t = mu(n, e1, e, e2)
            if t.sort_key() not in seen:
                seen.add(t.sort_key())
                looped.append(t)
    assert [mu(*exps) for exps in _root_of_unity_triples(8)] == looped


# ---------------------------------------------------------------------------
# parity of the integer walk with the walk composed of sigma1 and sigma2


def reference_walk(start, max_steps):
    """The reflection walk built from the one-step reflections on Scalars
    of ``scalar_reflections``: alternate sigma1 and sigma2, at most
    ``max_steps`` times, until the start state (triple, parity) recurs; a
    broken walk also runs backward from the start, at most ``max_steps``
    times."""
    seen, orbit, window, ends = {}, {}, [], []
    state, step, shape = (start, 1), 0, SHAPE_UNRESOLVED
    while True:
        t, parity = state
        orbit[t] = None
        if state in seen:
            assert seen[state] == 0
            shape = SHAPE_CYCLE  # or a chain, decided below
            break
        if step == max_steps:
            break
        seen[state] = step
        res = (sigma1 if parity == 1 else sigma2)(t)
        if res is None:
            shape = SHAPE_BROKEN
            break
        nxt, c = res
        window.append(c)
        if nxt == t:
            ends.append(step)
        state, step = (nxt, 3 - parity), step + 1
    fields = dict(period=(), ends=ends, window=window, window_origin=0, state_period=None)
    if shape == SHAPE_BROKEN:
        back, t, parity = [], start, 2
        for bstep in range(max_steps):
            res = (sigma1 if parity == 1 else sigma2)(t)
            if res is None:
                break
            prev, c = res
            back.append(c)
            if prev == t:
                ends.append(-bstep - 1)
            orbit[prev] = None
            t, parity = prev, 3 - parity
        fields.update(ends=sorted(ends), window=back[::-1] + window, window_origin=-len(back))
    elif shape == SHAPE_CYCLE:
        generic = any(s.qexp for t in orbit for s in (t.q1, t.q, t.q2))
        shape = SHAPE_CHAIN if generic and ends else SHAPE_CYCLE
        fields.update(period=minimal_period(window), state_period=len(window))
    return dict(fields, shape=shape, orbit=list(orbit), steps=step)


def parity_starts():
    """Every triple with n <= 12; the triples (i^k, q^a, q^b) for
    |a|, |b| <= 4, whose chains start with no q-exponent on the left; and
    the three one-parameter rows, both symbolic and specialized to every
    primitive k-th root, k <= 48."""
    yield from (mu(*exps) for exps in _root_of_unity_triples(12))
    for k, a, b in product(range(4), range(-4, 5), range(-4, 5)):
        yield Triple(Scalar.root_of_unity(4, k), Scalar.q_power(a), Scalar.q_power(b))
    for maker in GENERIC_MAKERS.values():
        yield maker(Scalar.q_power(1))
        for k in range(1, 49):
            for u in range(1, max(k, 2)):
                if gcd(u, k) == 1:
                    yield maker(Scalar.root_of_unity(k, u))


@pytest.mark.parametrize("max_steps", [10000, 3, 5, 6])
def test_walk_matches_reference_walk(max_steps):
    shapes = Counter()
    for start in parity_starts():
        report = walk(start, max_steps=max_steps)
        got = {f: getattr(report, f) for f in REPORT_FIELDS}
        assert got == reference_walk(start, max_steps), start
        shapes[report.shape] += 1
    assert {SHAPE_BROKEN, SHAPE_CHAIN, SHAPE_CYCLE} <= set(shapes)
    assert (SHAPE_UNRESOLVED in shapes) == (max_steps != 10000)
