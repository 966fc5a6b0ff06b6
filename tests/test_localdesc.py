"""Rewriting maps, preimage searches, the refinement step and the covers."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import (
    BUILTIN_PAIRS,
    CoverPair,
    DihedralCycle,
    TWELVE_PATTERNS,
    canonicalize,
    contains_cyclic,
    delta,
    delta_preimages,
    enumerate_cycles,
    eta,
    iota,
    is_quiddity,
    psi,
    psi_bar,
    psi_bar_inv,
    rho,
    rho_preimages,
    theorem_step,
    verify_cover,
    verify_thm_subseqs,
    xi,
)
from quiddity import kernels
from quiddity.localdesc import QUADRUPLE_PATTERNS, in_a_prime

from bfs_preimages import bfs_delta_preimages, bfs_rho_preimages, loop_delta, loop_rho


# ---------------------------------------------------------------------------
# psi / psi_bar / iota


def test_psi_examples():
    assert psi((0, 0)) == (2, 1, 2, 1)
    assert psi((1,)) == (3, 1)
    assert psi((1, 1, 1)) == (3, 1, 3, 1, 3, 1)


def test_psi_bar_examples():
    assert psi_bar((0, 0)) == DihedralCycle((1, 2, 1, 2))
    assert psi_bar((1, 1, 1)) == DihedralCycle((1, 3, 1, 3, 1, 3))


def test_psi_bar_requires_membership():
    with pytest.raises(ValueError):
        psi_bar((2, 2, 2))


def test_psi_bar_inv_examples():
    assert psi_bar_inv((1, 2, 1, 2)) == DihedralCycle((0, 0))
    assert psi_bar_inv((1, 3, 1, 3, 1, 3)) == DihedralCycle((1, 1, 1))
    assert psi_bar_inv((4, 1, 3, 1, 4, 1, 3, 1)) == DihedralCycle((1, 2, 1, 2))


def test_psi_bar_inv_rejects_a_class_outside_the_image():
    # a quiddity cycle whose 1s do not alternate with its other entries
    with pytest.raises(ValueError, match="not in the ear-doubled image"):
        psi_bar_inv((1, 2, 2, 1, 3))


def test_psi_bar_round_trip():
    for n in range(2, 9):
        for cyc in enumerate_cycles(n):
            assert psi_bar_inv(psi_bar(cyc)) == cyc


def test_psi_bar_bijection_onto_half_ones():
    # image of length-n classes = classes of length 2n with exactly n ones
    for n in range(2, 7):
        images = {psi_bar(c) for c in enumerate_cycles(n)}
        assert len(images) == len(enumerate_cycles(n))
        targets = {c for c in enumerate_cycles(2 * n) if in_a_prime(c)}
        assert images == targets


@pytest.mark.slow
def test_psi_bar_bijection_larger():
    for n in (7, 8):
        images = {psi_bar(c) for c in enumerate_cycles(n)}
        targets = {c for c in enumerate_cycles(2 * n) if in_a_prime(c)}
        assert images == targets


def test_iota_examples():
    assert iota((3, 1)) == (1, 3, 1)
    assert iota((2, 1, 2, 1)) == (1, 2, 1, 2, 1)
    assert iota((4, 1, 3, 1)) == (1, 4, 1, 3, 1)


def test_iota_rejects_malformed():
    with pytest.raises(ValueError):
        iota((3, 2))
    with pytest.raises(ValueError):
        iota((3, 1, 1, 1))
    with pytest.raises(ValueError):
        iota((3,))


def test_xi_rule():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert xi(a) @ xi(3) @ xi(b) == xi(a - 1) @ xi(b - 1)


# ---------------------------------------------------------------------------
# rho


def test_rho_examples():
    assert rho((3, 1, 2, 2, 1)) == (1, 4, 1, 3, 1, 3, 1)
    assert rho((3, 1, 2, 3, 1, 2)) == (1, 4, 1, 3, 1, 4, 1, 3, 1)
    assert rho((1,)) == (1,)


def test_rho_normal_form_shape():
    rng = random.Random(11)
    for _ in range(200):
        seq = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
        nf = rho(seq)
        assert nf[0] == 1 and nf[-1] == 1 or nf == (1,)
        assert all(not (nf[i] > 1 and nf[i + 1] > 1) for i in range(len(nf) - 1))
        assert rho(nf) == nf


def all_rho_normal_forms(seq):
    """Every normal form reachable by applying the rules in any order."""
    out = set()
    stack = [tuple(seq)]
    seen = set()
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        succs = []
        if s[0] > 1:
            succs.append((1, s[0] + 1) + s[1:])
        for i in range(len(s) - 1):
            if s[i] > 1 and s[i + 1] > 1:
                succs.append(s[:i] + (s[i] + 1, 1, s[i + 1] + 1) + s[i + 2 :])
        if s[-1] > 1:
            succs.append(s[:-1] + (s[-1] + 1, 1))
        if not succs:
            out.add(s)
        else:
            stack.extend(succs)
    return out


def test_rho_is_order_independent():
    rng = random.Random(23)
    seqs = [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8))) for _ in range(60)]
    seqs += list(product(range(1, 4), repeat=4))
    for seq in seqs:
        forms = all_rho_normal_forms(seq)
        assert forms == {rho(seq)}, seq


def test_rho_preimages_examples():
    assert rho_preimages((1, 3, 1)) == frozenset({(1, 3, 1), (2, 1), (1, 2)})
    assert rho_preimages((1,)) == frozenset({(1,)})
    assert (3, 1, 2, 2, 1) in rho_preimages((1, 4, 1, 3, 1, 3, 1))


def test_rho_preimages_rejects_non_normal_form():
    with pytest.raises(ValueError):
        rho_preimages((2, 1))


def test_rho_preimages_forward_verify_and_complete():
    # completeness against brute force over the bounded box: preimages can
    # be no longer than the target and no entry can exceed the target max
    for target in [(1, 3, 1), (1, 3, 1, 4, 1), (1, 4, 1, 3, 1, 3, 1)]:
        found = rho_preimages(target)
        for s in found:
            assert rho(s) == target
        mx = max(target)
        brute = set()
        for length in range(1, len(target) + 1):
            for s in product(range(mx + 1), repeat=length):
                if rho(s) == target:
                    brute.add(s)
        assert found == brute


def rho_normal_forms(max_length, top):
    """Every rho normal form of length <= max_length with entries
    0..top, built directly: both ends <= 1 and no two adjacent entries
    > 1, grown from the prefixes that start with an entry <= 1."""
    prefixes = [(0,), (1,)]
    forms = []
    for _ in range(max_length):
        forms += [w for w in prefixes if w[-1] <= 1]
        prefixes = [w + (x,) for w in prefixes for x in range(top + 1) if x <= 1 or w[-1] <= 1]
    return forms


def test_rho_and_delta_match_the_rewriting_loops():
    # the one split pass against the leftmost-first loops it replaced, on
    # every word of length <= 7 with entries 0..4
    words = [w for n in range(1, 8) for w in product(range(5), repeat=n)]
    assert len(words) == 97_655
    for w in words:
        assert rho(w) == loop_rho(w), w
        if len(w) >= 2 and canonicalize(w).canon not in {(0, 0), (1, 1, 1)}:
            assert delta(w).canon == loop_delta(w), w


def test_rho_preimages_match_the_breadth_first_search():
    # the collapse sets against the reverse rewriting they replaced, on
    # every rho normal form of length <= 8 with entries 0..5
    forms = rho_normal_forms(8, 5)
    assert len(forms) == len(set(forms)) == 29_070
    for f in forms:
        assert rho(f) == f
        assert rho_preimages(f) == bfs_rho_preimages(f), f


def test_rho_preimages_of_the_alternating_target_count_three_to_the_k_plus_one():
    # iota(psi((1,2)*k + (1,))) closed by the sentinel reads
    # (1,3,1,4,...,1,3,1,4): each 1 lies beside one of the k + 1 threes,
    # which keeps one or both of its two 1s, while a four stays >= 2
    # whatever goes beside it, so each three chooses one of 3 ways
    for k in range(9):
        assert len(rho_preimages(iota(psi((1, 2) * k + (1,))))) == 3 ** (k + 1), k


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_rho_preimages_contain_origin(seq):
    target = rho(tuple(seq))
    assert tuple(seq) in rho_preimages(target)


# ---------------------------------------------------------------------------
# delta


def test_delta_examples():
    target = DihedralCycle((4, 1, 3, 1, 4, 1, 3, 1))
    assert delta((3, 1, 2, 3, 1, 2)) == target
    assert delta((4, 1, 2, 2, 2, 1)) == target
    assert delta((1, 2, 1, 2)) == DihedralCycle((1, 2, 1, 2))


def test_delta_excluded_inputs():
    with pytest.raises(ValueError):
        delta((0, 0))
    with pytest.raises(ValueError):
        delta((1, 1, 1))


def test_delta_lands_in_half_ones_for_members():
    for n in range(4, 9):
        for cyc in enumerate_cycles(n):
            if cyc.canon == (1, 1, 1):
                continue
            img = delta(cyc)
            assert in_a_prime(img)


def all_delta_normal_forms(cyc):
    """Cyclic rule applied at every position in every order."""
    out = set()
    stack = [canonicalize(cyc).canon]
    seen = set()
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        n = len(s)
        succs = []
        for i in range(n):
            j = (i + 1) % n
            if s[i] > 1 and s[j] > 1:
                if j != 0:
                    cand = s[:i] + (s[i] + 1, 1, s[j] + 1) + s[j + 1 :]
                else:
                    cand = (s[0] + 1,) + s[1:-1] + (s[-1] + 1, 1)
                succs.append(canonicalize(cand).canon)
        if not succs:
            out.add(canonicalize(s))
        else:
            stack.extend(succs)
    return out


def test_delta_is_order_independent():
    cases = [(3, 1, 2, 3, 1, 2), (4, 1, 2, 2, 2, 1), (2, 2, 2), (3, 3), (2, 3, 4)]
    rng = random.Random(5)
    cases += [
        tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 6))) for _ in range(40)
    ]
    for seq in cases:
        if canonicalize(seq).canon in {(0, 0), (1, 1, 1)}:
            continue
        assert all_delta_normal_forms(seq) == {delta(seq)}, seq


def test_delta_preimages_examples():
    assert delta_preimages((1, 2, 1, 2)) == frozenset({DihedralCycle((1, 2, 1, 2))})
    assert delta_preimages((1, 3, 1, 3, 1, 3)) == frozenset(
        {DihedralCycle((1, 3, 1, 3, 1, 3)), DihedralCycle((1, 2, 2, 1, 3))}
    )
    pre = delta_preimages((4, 1, 3, 1, 4, 1, 3, 1))
    assert DihedralCycle((3, 1, 2, 3, 1, 2)) in pre
    assert DihedralCycle((4, 1, 2, 2, 2, 1)) in pre
    # frozen full preimage fan of that target, brute-checked below
    assert pre == frozenset(
        {
            DihedralCycle((1, 3, 1, 4, 1, 3, 1, 4)),
            DihedralCycle((1, 2, 3, 1, 2, 3)),
            DihedralCycle((1, 2, 2, 2, 1, 4)),
            DihedralCycle((1, 2, 3, 1, 3, 1, 4)),
        }
    )


def test_delta_preimages_rejects_bad_target():
    with pytest.raises(ValueError):
        delta_preimages((2, 2, 2))


def test_delta_preimages_complete_by_brute_force():
    target = DihedralCycle((4, 1, 3, 1, 4, 1, 3, 1))
    brute = set()
    seen = set()
    for length in range(2, len(target) + 1):
        for raw in product(range(5), repeat=length):
            cyc = canonicalize(raw)
            if cyc.canon in seen:
                continue
            seen.add(cyc.canon)
            if cyc.canon in {(0, 0), (1, 1, 1)}:
                continue
            if delta(cyc) == target:
                brute.add(cyc)
    assert brute == set(delta_preimages(target))


def test_delta_preimages_never_reach_the_excluded_classes():
    # delta is not defined on <0,0> and <1,1,1>, and the generation needs
    # no filter for them: every entry e_j + 2 keeps >= 2, and k >= 2
    excluded = {DihedralCycle((0, 0)), DihedralCycle((1, 1, 1))}
    searches = 0
    for n in range(2, 9):
        for cyc in enumerate_cycles(n):
            assert excluded.isdisjoint(delta_preimages(psi_bar(cyc))), cyc
            searches += 1
    assert searches == 23  # 1, 1, 1, 1, 3, 4, 12 classes of lengths 2..8


def test_delta_preimages_match_the_breadth_first_search():
    # the direct generation against the reverse rewriting it replaced, on
    # the doubling of every class up to length 9 and the 28 depth-3 targets
    classes = [cyc for n in range(2, 10) for cyc in enumerate_cycles(n)]
    depth3 = theorem_step(theorem_step(base_pair())).E
    assert (len(classes), len(depth3)) == (50, 28)
    for e in classes + sorted(depth3):
        target = psi_bar(e)
        assert delta_preimages(target) == bfs_delta_preimages(target), e


def test_delta_preimages_are_exact_over_the_enumeration():
    # against the forward map: every class of length 4-13 grouped by its
    # delta image, and each group is that image's preimages up to 13 long
    groups = {}
    for n in range(4, 14):
        for cyc in enumerate_cycles(n):
            groups.setdefault(delta(cyc), set()).add(cyc)
    assert sum(map(len, groups.values())) == 3373 and len(groups) == 148
    for target, group in groups.items():
        assert {p for p in delta_preimages(target) if len(p) <= 13} == group, target


# ---------------------------------------------------------------------------
# theorem step


def base_pair():
    return CoverPair.of([(0, 0), (1, 1, 1)], [(1,)])


def test_theorem_step_corollary_sets():
    stepped = theorem_step(base_pair())
    assert stepped.E == frozenset(
        DihedralCycle(c)
        for c in [(0, 0), (1, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1, 3), (1, 3, 1, 3, 1, 3)]
    )
    assert stepped.F == frozenset({(1, 2), (2, 1), (1, 3, 1)})


def test_theorem_step_preserves_properties_and_grows():
    p0 = base_pair()
    p1 = theorem_step(p0)
    p1.check_properties()
    p2 = theorem_step(p1)
    p2.check_properties()
    mins = [min(len(f) for f in p.F) for p in (p0, p1, p2)]
    assert mins[0] == 1 and mins[1] == 2 and mins[2] >= 3
    for f in p1.F | p2.F:
        assert 1 in f


def test_step_preimages_outgrow_every_builtin_pattern():
    # the bound that makes the minimum pattern length grow in theorem_step:
    # each builtin's patterns and those of its first step, and for base and
    # ends those of the second step too (the second step holds 6,405
    # patterns for thm16, 64,995 for cor12 and 337,092 for thm16proof)
    for name, pair in BUILTIN_PAIRS.items():
        patterns = pair.F
        for steps_left in range(3 if name in ("base", "ends") else 2, 0, -1):
            stepped = set()
            for f in patterns:
                preimages = rho_preimages(iota(psi(f)))
                assert min(map(len, preimages)) >= len(f) + 1, (name, f)
                if steps_left > 1:  # the last step's patterns are not kept
                    stepped |= preimages
            patterns = stepped


@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_step_preimages_outgrow_a_pattern_with_a_one(head, tail):
    f = (*head, 1, *tail)
    assert min(map(len, rho_preimages(iota(psi(f))))) >= len(f) + 1


def test_theorem_step_rejects_bad_preconditions():
    with pytest.raises(ValueError):
        theorem_step(CoverPair.of([(0, 0)], [(1,)]))
    with pytest.raises(ValueError):
        theorem_step(CoverPair.of([(0, 0), (1, 1, 1)], [(2, 2)]))


def test_second_step_covers_what_twelve_set_covers():
    p2 = theorem_step(theorem_step(base_pair()))
    e2 = {e.canon for e in p2.E}
    for n in range(2, 13):
        for cyc in enumerate_cycles(n):
            by_twelve = any(
                len(f) < n and contains_cyclic(cyc, f) for f in TWELVE_PATTERNS
            )
            if by_twelve:
                by_f2 = any(len(f) < n and contains_cyclic(cyc, f) for f in p2.F)
                assert by_f2 or cyc.canon in e2


def test_twelve_pattern_cover_holds():
    report = verify_cover(BUILTIN_PAIRS["thm16proof"], 11)
    assert report.ok


def test_theorem_step_outputs_still_cover():
    # the step preserves the covering property, not just the structure
    pair = base_pair()
    for _ in range(2):
        pair = theorem_step(pair)
        assert verify_cover(pair, 11).ok


# ---------------------------------------------------------------------------
# cover verification


def test_verify_cover_cor12():
    report = verify_cover(BUILTIN_PAIRS["cor12"], 11)
    assert report.ok
    assert report.checked == sum(len(enumerate_cycles(n)) for n in range(2, 12))


def test_verify_cover_base():
    assert verify_cover(BUILTIN_PAIRS["base"], 11).ok


def test_verify_cover_ends_corollary():
    assert verify_cover(BUILTIN_PAIRS["ends"], 11).ok
    # and, non-strictly, every cycle contains one of the four stubs
    for n in range(2, 12):
        for cyc in enumerate_cycles(n):
            assert any(
                contains_cyclic(cyc, f) for f in [(0, 0), (1, 1), (1, 2), (1, 3)]
            )


def test_verify_cover_reports_all_violations():
    hopeless = CoverPair.of([], [(9, 9)])
    report = verify_cover(hopeless, 9)
    assert len(report.violations) == report.checked


SHORT_CLASSES = [(0, 0), (1, 1, 1), (1, 2, 1, 2)]  # every class below length 5


def test_verify_cover_skips_a_long_match_before_a_short_one():
    # in the one class of length 5, (1, 2, 2, 1, 3), the six-entry window
    # from start 0 comes before (1, 3) at start 3; only the latter counts
    pair = CoverPair.of(SHORT_CLASSES, [(1, 2, 2, 1, 3, 1), (1, 3)])
    report = verify_cover(pair, 5)
    assert report.ok and report.checked == 4


def test_verify_cover_counts_no_pattern_as_long_as_the_class():
    pair = CoverPair.of(SHORT_CLASSES, [(1, 2, 2, 1, 3, 1), (2, 1, 3, 1, 2), (9, 9)])
    report = verify_cover(pair, 5)
    assert [v.canon for v in report.violations] == [(1, 2, 2, 1, 3)]


def naive_violations(pair, max_length):
    """The classes up to ``max_length`` outside E that strictly contain no
    pattern of F, each checked by ``contains_cyclic``."""
    e = {c.canon for c in pair.E}
    return [
        cyc.canon
        for n in range(2, max_length + 1)
        for cyc in sorted(enumerate_cycles(n), key=lambda c: c.canon)
        if cyc.canon not in e and not any(len(f) < n and contains_cyclic(cyc, f) for f in pair.F)
    ]


def test_verify_cover_finds_a_pattern_that_starts_at_the_last_entry():
    # the only (4, 1, 2) of (1, 2, 2, 3, 1, 2, 4) starts at its last entry
    # and wraps around, so a search that skips that start reports the class
    pair = CoverPair.of(BUILTIN_PAIRS["cor12"].E, [(4, 1, 2)])
    violations = [v.canon for v in verify_cover(pair, 7).violations]
    assert violations == [
        (1, 2, 2, 1, 3),
        (1, 2, 3, 1, 2, 3),
        (1, 3, 1, 3, 1, 3),
        (1, 2, 2, 2, 2, 1, 5),
        (1, 2, 3, 2, 1, 3, 3),
    ]
    assert violations == naive_violations(pair, 7)
    assert (1, 2, 2, 3, 1, 2, 4) not in violations


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6).map(tuple),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_verify_cover_matches_a_naive_check(patterns, max_length):
    pair = CoverPair.of(BUILTIN_PAIRS["base"].E, patterns)
    report = verify_cover(pair, max_length)
    assert [v.canon for v in report.violations] == naive_violations(pair, max_length)


def test_verify_cover_skips_an_exceptional_class_past_a_byte():
    # no class up to the bound has an entry above 255, so such a member of
    # E changes nothing, whether the report holds violations or not
    for pair in [BUILTIN_PAIRS["cor12"], CoverPair.of(SHORT_CLASSES[:2], QUADRUPLE_PATTERNS)]:
        wide = CoverPair.of([*pair.E, (300, 1, 299, 2)], pair.F)
        assert verify_cover(wide, 10) == verify_cover(pair, 10)
    assert not verify_cover(wide, 10).ok


def test_cover_report_json_shape():
    report = verify_cover(BUILTIN_PAIRS["cor12"], 7)
    data = report.to_json()
    assert set(data) == {"checked", "violations", "bound"}
    assert data["violations"] == []


# ---------------------------------------------------------------------------
# interior-subsequence theorem


def test_verify_thm_subseqs_clean_and_non_vacuous():
    report = verify_thm_subseqs(10)
    assert report.ok
    assert all(v > 0 for v in report.pattern_hits.values())
    assert all(v > 0 for v in report.exceptional_hits.values())


def test_all_witnesses_hit_waits_for_every_pattern():
    # (3, 1, 5) is first hit at length 8: at 7 the check is clean, not yet
    # non-vacuous
    short, full = verify_thm_subseqs(7), verify_thm_subseqs(8)
    assert short.ok and not short.all_witnesses_hit and short.pattern_hits[(3, 1, 5)] == 0
    assert full.ok and full.all_witnesses_hit
    assert list(full.to_json())[-1] == "all_witnesses_hit"


def test_thm_subseqs_specific_representatives():
    report = verify_thm_subseqs(5)
    assert report.exceptional_hits[(2, 1, 3, 1, 2)] >= 1
    # the long example cycle passes through its interior
    rep = (1, 3, 2, 4, 1, 2, 2, 4, 2)
    from quiddity import contains_linear

    interior = rep[1:-1]
    assert contains_linear(interior, (1, 2, 2))


def test_delta_preimages_of_doubled_members_are_quiddity_cycles():
    # theorem_step adds these preimages to E without a membership test:
    # each reverse delta step removes an ear
    pair = theorem_step(theorem_step(base_pair()))
    preimages = 0
    for e in pair.E:
        for p in delta_preimages(psi_bar(e)):
            preimages += 1
            assert is_quiddity(p)
    assert preimages > len(pair.E)


def test_preimages_of_three_steps_map_forward_to_their_targets():
    # the preimage searches keep every word they reach, unchecked: each
    # reverse step undoes a forward rule, and both systems are confluent
    pair = base_pair()
    for _ in range(3):
        for e in pair.E:
            target = psi_bar(e)
            assert all(delta(p) == target for p in delta_preimages(target))
        for f in pair.F:
            target = iota(psi(f))
            assert all(rho(p) == target for p in rho_preimages(target))
        pair = theorem_step(pair)
    assert (len(pair.E), len(pair.F)) == (2867, 651)


def test_verify_cover_violations_by_length_then_word():
    report = verify_cover(CoverPair.of([(0, 0), (1, 1, 1)], [(1, 3, 1, 3)]), 11)
    assert len(report.violations) > 100
    assert report.violations == sorted(report.violations)
    assert report.to_json()["violations"] == [list(v.canon) for v in report.violations]


def test_verify_thm_subseqs_violations_in_enumeration_order(monkeypatch):
    # with only two of the nine patterns the check fails; its violations
    # come by length, then canonical word, then representative order
    import quiddity.localdesc as localdesc

    monkeypatch.setattr(localdesc, "NINE_PATTERNS", localdesc.NINE_PATTERNS[:2])
    report = verify_thm_subseqs(9)
    found = set(report.violations)
    assert len(found) == len(report.violations) > 100
    expected = [
        rep
        for n in range(2, 10)
        for cyc in sorted(enumerate_cycles(n))
        for rep in cyc.representatives()
        if rep in found
    ]
    assert report.violations == expected


def reference_subseq_report(max_length):
    """The interior check written per representative: two
    ``linear_contains`` calls per pattern, over classes sorted by length,
    then word."""
    import quiddity.localdesc as localdesc

    exceptional = set(localdesc.EXCEPTIONAL_REPRESENTATIVES)
    pattern_hits = {p: 0 for p in localdesc.NINE_PATTERNS}
    exceptional_hits = {e: 0 for e in exceptional}
    checked = 0
    violations = []
    for n in range(2, max_length + 1):
        for cyc in sorted(enumerate_cycles(n)):
            for rep in cyc.representatives():
                checked += 1
                if rep in exceptional:
                    exceptional_hits[rep] += 1
                    continue
                interior = rep[1:-1]
                for p in localdesc.NINE_PATTERNS:
                    if kernels.linear_contains(interior, p) or kernels.linear_contains(
                        interior[::-1], p
                    ):
                        pattern_hits[p] += 1
                        break
                else:
                    violations.append(rep)
    return localdesc.SubseqReport(checked, violations, max_length, pattern_hits, exceptional_hits)


@pytest.mark.parametrize("patterns", [9, 2])
def test_verify_thm_subseqs_matches_per_representative_reference(monkeypatch, patterns):
    import quiddity.localdesc as localdesc

    monkeypatch.setattr(localdesc, "NINE_PATTERNS", localdesc.NINE_PATTERNS[:patterns])
    # the check counts the representatives of a class from its stabilizer
    # past length 5: the classes below cover every kind of stabilizer
    stabilizers = set()
    for n in range(6, 12):
        for cyc in enumerate_cycles(n):
            b = bytes(cyc.canon)
            stabilizers.add((b in (b + b)[1 : 2 * n - 1], b[::-1] in b + b))
    assert stabilizers == {(False, False), (True, False), (False, True), (True, True)}
    for max_length in range(2, 12):
        report = verify_thm_subseqs(max_length)
        expected = reference_subseq_report(max_length)
        assert report.to_json() == expected.to_json()
        assert report.violations == expected.violations
    assert bool(report.violations) == (patterns == 2)


def reference_cover_json(pair, max_length):
    """The cover check written as one ``cyclic_contains`` call per
    pattern, over classes sorted by length, then word."""
    e_canons = {e.canon for e in pair.E}
    checked = 0
    violations = []
    for n in range(2, max_length + 1):
        for word in sorted(c.canon for c in enumerate_cycles(n)):
            checked += 1
            if word in e_canons:
                continue
            if not any(len(f) < n and kernels.cyclic_contains(word, f) for f in pair.F):
                violations.append(word)
    return {"checked": checked, "violations": [list(v) for v in violations], "bound": max_length}


def random_cover_pairs(count, max_length, seed=20261018):
    """Seeded pairs whose patterns are cut from enumerated classes, so
    that each covers some classes and misses others.  Among them are
    palindromes, a pattern together with its reversal, a whole class of
    length ``max_length - 1`` or ``max_length``, a pattern longer than
    ``max_length``, and patterns with an entry 0 or an entry above 255,
    which fits in no byte."""
    rng = random.Random(seed)
    words = [c.canon for n in range(3, max_length + 1) for c in enumerate_cycles(n)]
    for _ in range(count):
        patterns = []
        for _ in range(rng.randint(1, 5)):
            w = rng.choice(words)
            i, m = rng.randrange(len(w)), rng.randint(2, min(6, len(w)))
            f = (w + w)[i : i + m]
            patterns.append(f[::-1] if rng.random() < 0.5 else f)
        f = rng.choice(patterns)
        patterns.append(f + f[-2::-1])  # a palindrome
        patterns.append(f[::-1])  # a pattern with its own reversal
        patterns.append(rng.choice([w for w in words if len(w) >= max_length - 1]))
        patterns.append(rng.choice(words[-50:]) + (1,))  # longer than max_length
        f = rng.choice(patterns)
        patterns.append(f[:1] + (0,) + f[1:])
        patterns.append(f[:-1] + (rng.choice([256, 257, 300]),))
        exceptional = rng.sample(words[:40], rng.randint(0, 4)) + [(0, 0), (1, 1, 1)]
        yield CoverPair.of(exceptional, patterns)


def test_verify_cover_matches_per_pattern_reference():
    max_length = 12
    refined = [BUILTIN_PAIRS["base"]]
    for _ in range(3):
        refined.append(theorem_step(refined[-1]))
    failing = 0
    for pair in [*random_cover_pairs(60, max_length), *BUILTIN_PAIRS.values(), *refined[1:]]:
        report = verify_cover(pair, max_length)
        expected = reference_cover_json(pair, max_length)
        assert report.to_json() == expected
        assert [list(v.canon) for v in report.violations] == expected["violations"]
        failing += bool(expected["violations"])
    assert failing >= 50
