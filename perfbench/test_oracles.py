"""Each oracle accepts the library's real output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import copy
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import quiddity as q  # noqa: E402

import oracles as orc  # noqa: E402
import pace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_burnside_reproduces_published_a000207():
    assert [orc.dihedral_class_count(n) for n in range(2, 2 + len(orc.A000207))] == list(orc.A000207)


def test_catalan_counts_representatives():
    for n in range(3, 11):
        reps = set()
        for c in q.enumerate_cycles(n):
            reps |= orc.dihedral_orbit(c.canon)
        assert len(reps) == orc.representative_count(n)


def test_jordan3_partitions_the_cube():
    for n in range(1, 13):
        assert sum(orc.jordan3(d) for d in range(1, n + 1) if n % d == 0) == n**3


def test_is_quiddity_word():
    assert orc.is_quiddity_word((0, 0)) and orc.is_quiddity_word((1, 1, 1))
    assert orc.is_quiddity_word((1, 3, 2, 4, 1, 2, 2, 4, 2))
    assert not orc.is_quiddity_word((2, 2, 2)) and not orc.is_quiddity_word((1, 1, 1, 3, 3, 3))


def test_check_classes():
    canons = sorted(c.canon for c in q.enumerate_cycles(8))
    assert orc.check_classes(8, canons, canons) == []
    assert orc.check_classes(8, canons[1:], [])  # one class lost
    w = canons[5]
    assert orc.check_classes(8, canons, [w[1:] + w[:1]])  # not lex-least
    assert orc.check_classes(8, canons, [w[:-1] + (w[-1] + 1,)])  # wrong entry sum
    assert orc.check_classes(6, [()] * 3, [(1, 1, 1, 3, 3, 3)])  # right sum, not -I


def test_check_cover_report():
    good = q.verify_cover(q.BUILTIN_PAIRS["cor12"], 9).to_json()
    assert orc.check_cover_report(good, 9) == []
    for corrupt in ({"checked": good["checked"] - 1}, {"violations": [[1, 1, 1]]}, {"bound": 8}):
        assert orc.check_cover_report({**good, **corrupt}, 9)


def test_check_cover_sample():
    pair = q.BUILTIN_PAIRS["cor12"]
    classes = [c.canon for n in range(5, 10) for c in q.enumerate_cycles(n)]
    e = {c.canon for c in pair.E}
    assert orc.check_cover_sample(e, pair.F, classes) == []
    assert orc.check_cover_sample(e, list(pair.F)[:3], classes)


def test_check_subseq_report():
    good = q.verify_thm_subseqs(9).to_json()
    sizes = sum(len(orc.dihedral_orbit(c.canon)) for n in range(2, 10) for c in q.enumerate_cycles(n))
    assert orc.check_subseq_report(good, 9, sizes) == []
    assert orc.check_subseq_report({**good, "checked": good["checked"] + 1}, 9, sizes)
    assert orc.check_subseq_report(good, 9, sizes - 1)
    assert orc.check_subseq_report({**good, "violations": [[2, 1, 2, 1]]}, 9, sizes)


def _chain(steps=3):
    pairs = [q.BUILTIN_PAIRS["base"]]
    for _ in range(steps):
        pairs.append(q.theorem_step(pairs[-1]))
    return [({e.canon for e in p.E}, set(p.F)) for p in pairs]


def test_check_refinement():
    chain = _chain()
    assert orc.check_refinement(chain) == []
    e1, f1 = chain[1]
    assert orc.check_refinement([chain[0], (e1 - {(1, 3, 1, 3, 1, 3)}, f1)])  # not the paper's
    assert orc.check_refinement(chain[:2] + [(chain[2][0], chain[2][1] | {(1, 2)})])  # no growth
    assert orc.check_refinement(chain[:2] + [(chain[2][0] - {(1, 2, 1, 2)}, chain[2][1])])  # E shrinks
    assert orc.check_refinement(chain[:3] + [(chain[3][0], chain[3][1] | {(2, 2, 2, 2, 2)})])  # no 1
    assert orc.check_refinement(chain[:3] + [(chain[3][0] | {(2, 1, 2, 1)}, chain[3][1])])  # not canonical


def test_independent_walk_matches_the_paper():
    window, ends = orc.walk_exponents(9, (6, 8, 6))
    assert orc.lex_least_period(window) == (2, 2, 5)
    assert orc.walk_exponents(4, (0, 1, 0)) is None  # m-value undefined: broken
    for n, t in [(5, (1, 4, 4)), (12, (1, 10, 9)), (18, (1, 12, 9))]:
        report = q.walk(q.Triple.from_exponents(n, *t))
        assert orc.lex_least_period(orc.walk_exponents(n, t)[0]) == report.period


@pytest.fixture(scope="module")
def classified():
    return q.classify_mu(18).to_json()


def test_check_classification(classified):
    sample = classified["orbits"][::25]
    assert orc.check_classification(classified, sample) == []
    bad = copy.deepcopy(classified)
    bad["orbits"][0]["period"] = [2, 2, 5]
    assert orc.check_classification(bad, [])
    bad = copy.deepcopy(classified)
    bad["orbits"] = [o for o in bad["orbits"] if o["row_matched"] != 11]
    assert orc.check_classification(bad, [])  # a row not found
    assert orc.check_classification({**classified, "triples_checked": classified["triples_checked"] + 1}, [])
    assert orc.check_classification({**classified, "missing": ["row 1"]}, [])
    bad = copy.deepcopy(classified)
    bad["orbits"][0]["diagrams"][0][1]["zeta"] = [0, 1]  # the walk no longer gives the period
    assert orc.check_classification(bad, bad["orbits"][:1])


def test_check_generic():
    good = q.check_generic_rows(12).to_json()
    assert orc.check_generic(good, 12) == []
    assert orc.check_generic({**good, "specializations": good["specializations"][1:]}, 12)
    assert orc.check_generic({**good, "violations": ["row 12"]}, 12)
    bad = copy.deepcopy(good)
    bad["rows"][14]["period"] = [2]
    assert orc.check_generic(bad, 12)


def test_check_solve():
    good = q.solve_triples((2, 2, 5), 9).to_json()
    brute = orc.solve_brute((2, 2, 5), 9)
    assert orc.check_solve(good, (2, 2, 5), brute) == []
    assert orc.check_solve({**good, "matches": good["matches"][1:]}, (2, 2, 5), brute)
    mu9 = [m for m in good["matches"] if orc.triple_exponents(m["triple"]) != (9, (6, 8, 6))]
    assert orc.check_solve({**good, "matches": mu9}, (2, 2, 5), brute)


def test_check_m_values():
    pairs = [(n, a, b) for n in (1, 2, 6, 9, 12) for a in range(n) for b in range(n)]
    got = []
    for n, a, b in pairs:
        mv = q.m_value(q.Scalar.root_of_unity(n, a), q.Scalar.root_of_unity(n, b))
        got.append(None if mv is None else (mv.m, mv.branch))
    assert orc.check_m_values(pairs, got) == []
    i = next(i for i, g in enumerate(got) if g is not None)
    assert orc.check_m_values(pairs, got[:i] + [(got[i][0] + 1, got[i][1])] + got[i + 1 :])
    assert orc.check_m_values(pairs, got[:-1])


def test_malformed_pair_check_wants_exit_2_and_no_report():
    cli = {c.name: c for c in WORKLOADS["refine"].cli(Path("w"))}["cli verify-cover malformed"]
    assert cli.expect == 2
    assert cli.check(None, {}) == []
    assert cli.check({"checked": 0}, {})


def test_plans_need_no_library_to_list_operations():
    import random

    for w in WORKLOADS.values():
        names = [name for name, _ in w.plan(None, random.Random(0))]
        assert len(names) == len(set(names)) > 0
        assert w.known_faults <= {c.name for c in w.cli(Path("w"))}


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("scalars.m_value", lambda: time.sleep(0.02))
    outer = tracer.wrap("charseq.walk", lambda: (time.sleep(0.02), inner(), inner()))
    outer()
    assert tracer.calls("scalars.m_value", "charseq.walk") == 2
    assert tracer.self_s["scalars"] >= 0.04
    assert 0.02 <= tracer.self_s["charseq"] < tracer.seconds["charseq.walk"] - 0.035
    # m_value is hot: only the walk span is stored
    assert [s[1] for s in tracer.spans] == ["charseq.walk"]


def test_pace_scales_by_the_probe_speed():
    assert pace.corrected(2.0, pace.REF_S, pace.REF_S) == pytest.approx(2.0)
    # probes twice as slow as the reference: the host ran at half speed
    assert pace.corrected(2.0, 2 * pace.REF_S, 2 * pace.REF_S) == pytest.approx(1.0)
    assert pace.corrected(2.0, pace.REF_S, 3 * pace.REF_S) == pytest.approx(1.0)
    assert 0 < pace.probe() < 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "refine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
