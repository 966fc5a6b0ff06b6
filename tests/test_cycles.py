"""Dihedral classes, membership, enumeration, containment and the
library's records."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import charseq, cycles
from quiddity import (
    AffineDecomposition,
    CharSeqReport,
    ClassificationReport,
    ClassifiedOrbit,
    CoverPair,
    CoverReport,
    DihedralCycle,
    GenericRowsReport,
    MINUS_IDENTITY,
    MValue,
    Scalar,
    SolveReport,
    SubseqReport,
    Triple,
    canonicalize,
    contains_cyclic,
    contains_linear,
    ear_insert,
    enumerate_cycles,
    eta,
    eta_product,
    is_quiddity,
)
from quiddity.affine import Cor15Report, SpecializationResult, TableRow
from quiddity.charseq import SolveMatch

patterns = st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=12).map(
    tuple
)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_examples():
    assert canonicalize((2, 1, 3, 1, 2)).canon == (1, 2, 2, 1, 3)
    assert canonicalize((0, 0)).canon == (0, 0)
    assert canonicalize((3, 2, 1, 3, 2, 1)).canon == (1, 2, 3, 1, 2, 3)


def test_canonicalize_rejects_short_and_negative():
    with pytest.raises(ValueError):
        DihedralCycle((1,))
    with pytest.raises(ValueError):
        DihedralCycle((1, -2))


@given(patterns)
@settings(max_examples=300, deadline=None)
def test_canonicalize_idempotent_and_orbit_constant(seq):
    cyc = canonicalize(seq)
    assert canonicalize(cyc.canon) == cyc
    for rep in cyc.representatives():
        assert canonicalize(rep) == cyc
    assert cyc.canon in cyc.representatives()


def test_equality_and_hash_by_class():
    a = DihedralCycle((1, 2, 3, 1, 2, 3))
    b = DihedralCycle((2, 1, 3, 2, 1, 3))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# eta matrices


def test_eta_examples():
    assert eta(0).rows() == ((0, -1), (1, 0))
    assert eta(1).rows() == ((1, -1), (1, 0))
    assert (eta(2) @ eta(2)).rows() == ((3, -2), (2, -1))


def test_eta_product_examples():
    assert eta_product((0, 0)) == MINUS_IDENTITY
    assert eta_product((1, 1, 1)) == MINUS_IDENTITY
    assert eta_product((2, 2, 2)).rows() == ((4, -3), (3, -2))


def test_eta_insertion_rule():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert eta(a) @ eta(b) == eta(a + 1) @ eta(1) @ eta(b + 1)


def test_eta_det_one():
    assert eta(7).det() == 1
    assert eta_product((1, 3, 2, 4, 1, 2, 2, 4, 2)).det() == 1


def test_eta_product_minus_id_on_all_representatives():
    for n in range(2, 10):
        for cyc in enumerate_cycles(n):
            for rep in cyc.representatives():
                assert eta_product(rep) == MINUS_IDENTITY


# ---------------------------------------------------------------------------
# membership


def test_is_quiddity_examples():
    assert is_quiddity((0, 0))
    assert is_quiddity((1, 3, 2, 4, 1, 2, 2, 4, 2))
    assert not is_quiddity((2, 2, 2))


def test_is_quiddity_edge_cases():
    assert not is_quiddity((1, 1))
    assert not is_quiddity((0, 1))
    assert is_quiddity((1, 1, 1))
    assert not is_quiddity((0, 1, 1))  # zero entry, length > 2
    assert not is_quiddity((2, 1, 2))


def test_is_quiddity_matches_enumeration():
    # every class of length <= 12 is a member; tweaking one entry breaks
    # the triangle-count sum, so those must all be rejected
    for n in range(2, 13):
        for cyc in enumerate_cycles(n):
            assert is_quiddity(cyc)
            bumped = (cyc.canon[0] + 1,) + cyc.canon[1:]
            assert not is_quiddity(bumped)


@st.composite
def ear_grown_words(draw):
    """A quiddity word grown from (0, 0) by ear insertions at drawn
    positions of the word as it stands, never canonicalized."""
    word = [0, 0]
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        i = draw(st.integers(min_value=0, max_value=len(word) - 1))
        word[i] += 1
        word[(i + 1) % len(word)] += 1
        word.insert(i + 1, 1)
    return tuple(word)


@given(ear_grown_words(), st.data())
@settings(max_examples=300, deadline=None)
def test_members_multiply_to_minus_identity(word, data):
    # the matrix invariant of membership, on grown words and on their
    # rotations and reversals with one unit moved from one entry to
    # another (the same entry, at times) and up to two units added
    assert is_quiddity(word) and eta_product(word) == MINUS_IDENTITY
    index = st.integers(min_value=0, max_value=len(word) - 1)
    k = data.draw(index)
    perturbed = list(word[k:] + word[:k])
    if data.draw(st.booleans()):
        perturbed.reverse()
    i, j = data.draw(index), data.draw(index)
    if perturbed[i]:
        perturbed[i] -= 1
        perturbed[j] += 1
    perturbed[data.draw(index)] += data.draw(st.integers(min_value=0, max_value=2))
    if is_quiddity(perturbed):
        assert eta_product(perturbed) == MINUS_IDENTITY


def test_entry_sum_is_three_triangles():
    for n in range(3, 13):
        for cyc in enumerate_cycles(n):
            assert sum(cyc.canon) == 3 * (n - 2)


def test_is_quiddity_iff_enumerated_exhaustive():
    from itertools import product

    for n in range(2, 7):
        members = {c.canon for c in enumerate_cycles(n)}
        seen = set()
        for raw in product(range(5), repeat=n):
            cyc = canonicalize(raw)
            # every representative, not only the canonical one, is decided
            assert is_quiddity(raw) == (cyc.canon in members)
            if cyc.canon in seen:
                continue
            seen.add(cyc.canon)
            assert is_quiddity(cyc) == (cyc.canon in members)


# ---------------------------------------------------------------------------
# ear insertion and enumeration


def test_ear_insert_examples():
    assert ear_insert((0, 0), 0).canon == (1, 1, 1)
    assert ear_insert((1, 1, 1), 0).canon == (1, 2, 1, 2)
    for pos in range(4):
        grown = ear_insert((1, 2, 1, 2), pos)
        assert len(grown) == 5 and is_quiddity(grown)


def test_ear_insert_rejects_non_member():
    with pytest.raises(ValueError):
        ear_insert((2, 2, 2), 0)


def test_enumerate_small_lengths():
    assert {c.canon for c in enumerate_cycles(3)} == {(1, 1, 1)}
    assert {c.canon for c in enumerate_cycles(6)} == {
        (1, 2, 2, 2, 1, 4),
        (1, 2, 3, 1, 2, 3),
        (1, 3, 1, 3, 1, 3),
    }
    assert canonicalize((1, 3, 2, 4, 1, 2, 2, 4, 2)) in enumerate_cycles(9)


def test_enumerate_counts():
    # OEIS A000207: triangulations of the n-gon up to rotation and reflection
    expected = [1, 1, 1, 3, 4, 12, 27, 82, 228, 733, 2282, 7528, 24834, 83898]
    assert [len(enumerate_cycles(n)) for n in range(3, 17)] == expected


def test_levels_are_sorted_canonical_words():
    for n in range(2, 13):
        level = cycles._level(n)
        assert cycles._levels[n] is level
        words = list(cycles._level_tuples(n))
        assert all(a < b for a, b in zip(words, words[1:]))
        assert words == sorted(c.canon for c in enumerate_cycles(n))


def test_a_level_is_one_blob_of_sorted_words():
    # count x n bytes, word i at bytes i * n ... (i + 1) * n - 1, and
    # enumerate_cycles hands out exactly those words
    for n in range(2, 16):
        level = cycles._level(n)
        classes = enumerate_cycles(n)
        assert type(level) is bytes and len(level) == len(classes) * n
        words = [level[i : i + n] for i in range(0, len(level), n)]
        assert words == sorted(set(words))
        assert {c.canon for c in classes} == set(map(tuple, words))


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_cycles(1)
    with pytest.raises(ValueError, match="enumeration bound 24"):
        enumerate_cycles(25)


def test_enumerate_refuses_entries_past_a_byte():
    # length 258 has entries up to 256, which no byte holds; the bound
    # refuses it before any level is built
    built = dict(cycles._levels)
    with pytest.raises(ValueError, match="enumeration bound"):
        enumerate_cycles(258)
    assert cycles._levels == built


# ---------------------------------------------------------------------------
# independent enumeration oracle: raw ear insertion without dihedral dedup,
# then quotient by the dihedral action


def raw_insertions(t):
    n = len(t)
    out = [t[:i] + (t[i] + 1, 1, t[i + 1] + 1) + t[i + 2 :] for i in range(n - 1)]
    out.append((t[0] + 1,) + t[1 : n - 1] + (t[n - 1] + 1, 1))
    return out


def raw_levels(n_max):
    levels = {2: {(0, 0)}}
    for n in range(3, n_max + 1):
        cur = set()
        for t in levels[n - 1]:
            cur.update(raw_insertions(t))
        levels[n] = cur
    return levels


def dihedral_orbit(t):
    n = len(t)
    reps = set()
    for base in (t, t[::-1]):
        d = base + base
        for i in range(n):
            reps.add(d[i : i + n])
    return frozenset(reps)


def test_enumeration_against_raw_oracle():
    levels = raw_levels(10)
    for n in range(2, 11):
        # raw tuples are in bijection with triangulations of a labelled
        # n-gon, counted by the Catalan numbers
        if n >= 3:
            cat = math.comb(2 * (n - 2), n - 2) // (n - 1)
            assert len(levels[n]) == cat
        orbits = {dihedral_orbit(t) for t in levels[n]}
        assert len(orbits) == len(enumerate_cycles(n))
        # same classes, not just the same count
        assert {min(o) for o in orbits} == {
            min(c.representatives()) for c in enumerate_cycles(n)
        }
        # orbit sizes resum to the raw count
        assert sum(len(o) for o in orbits) == len(levels[n])


def test_every_labelled_cycle_has_an_ear_by_a_two_or_a_three_between_ears():
    # the lemma of kernels._grow, checked on the raw oracle's labelled
    # words, apart from the enumeration: every quiddity cycle of length
    # >= 4 has an ear next to a 2, or a 3 whose two neighbours are ears
    levels = raw_levels(11)
    words = [t for n in range(4, 12) for t in levels[n]]
    for t in words:
        n = len(t)
        assert any(
            t[i] == 1 and 2 in (t[i - 1], t[(i + 1) % n])
            or t[i] == 3 and t[i - 1] == t[(i + 1) % n] == 1
            for i in range(n)
        ), t
    assert len(words) == 6916


# ---------------------------------------------------------------------------
# containment


def test_contains_cyclic_examples():
    assert contains_cyclic((1, 3, 2, 4, 1, 2, 2, 4, 2), (1, 2, 2, 4))
    assert contains_cyclic((1, 2, 1, 2), (2, 1, 2))
    assert not contains_cyclic((1, 1, 1), (1, 2))


def test_contains_cyclic_length_edge_cases():
    assert not contains_cyclic((1, 2, 1, 2), (1, 2, 1, 2, 1))
    assert contains_cyclic((1, 2, 1, 2), (2, 1, 2, 1))  # full-length rotation
    assert not contains_cyclic((1, 2, 2, 1, 3), (2, 2, 1, 3, 2))


def test_contains_cyclic_sees_reversal():
    assert contains_cyclic((1, 2, 2, 4, 2, 1, 3, 2, 4), (4, 2, 2, 1))


def test_contains_linear_examples():
    assert contains_linear((1, 2, 2, 1, 3), (2, 2, 1))
    assert not contains_linear((1, 2, 2, 1, 3), (3, 1))
    assert not contains_linear((2, 2, 5, 2, 2, 5), (2, 2, 2, 2))


@given(patterns, st.integers(min_value=0, max_value=6))
@settings(max_examples=200, deadline=None)
def test_cyclic_contains_matches_rotation_scan(seq, start):
    cyc = canonicalize(seq)
    n = len(cyc.canon)
    window = (cyc.canon + cyc.canon)[start % n : start % n + min(3, n)]
    assert contains_cyclic(cyc, window)


# ---------------------------------------------------------------------------
# records

_TRIPLE = Triple(Scalar(1, 3), Scalar(2, 3), Scalar())

#: Every record class with field values in declaration order, and whether
#: it is frozen.
RECORDS = [
    (Scalar, (1, 3, 0), True),
    (MValue, (2, "power"), True),
    (Triple, (Scalar(1, 3), Scalar(2, 3), Scalar()), True),
    (CharSeqReport, ("cycle", (2,), [0], [_TRIPLE], [2], 0, 1, 1), False),
    (charseq._Sweep, (0, b"\x01\x01\x01\x02", (b"\x02",), ((0,),)), True),
    (SolveMatch, (_TRIPLE, 0, (1,)), True),
    (SolveReport, ((2, 2, 5), 9, [], [_TRIPLE], False), False),
    (AffineDecomposition, ((2,), 1, ((0, 0, 0),), ((0, 0),)), True),
    (TableRow, (1, 3, ((1, 1, 1),), "zeta in mu_3", (2,)), True),
    (ClassifiedOrbit, (1, [_TRIPLE], "zeta in mu_3", (2,), 1, 3), False),
    (ClassificationReport, (3, [], [], [], 1, 0, 0), False),
    (SpecializationResult, (12, 5, 1, "match"), False),
    (GenericRowsReport, ({12: {}}, [], []), False),
    (Cor15Report, (3, [(2,)], []), False),
    (CoverPair, (frozenset({DihedralCycle((0, 0))}), frozenset({(1,)})), True),
    (CoverReport, (1, [], 3), False),
    (SubseqReport, (1, [], 3, {(1, 2): 1}, {}), False),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_records_cover_every_record_class():
    found, todo = set(), [cycles._Result]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            found.add(sub)
    assert found - {cycles._Frozen} == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls, values, frozen", RECORDS, ids=RECORD_IDS)
def test_record_fields_and_construction(cls, values, frozen):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in cls.__slots__) == values
    assert cls(**dict(zip(cls.__slots__, values))) == record
    assert not hasattr(record, "__dict__")
    for args, kwargs in [
        (values + (0,), {}),
        (values, {cls.__slots__[0]: values[0]}),
        (values, {"unknown": 0}),
        (values[:1], {}) if cls is not Scalar else ((), {"unknown": 0}),  # Scalar(k) is fine
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, values, frozen", RECORDS, ids=RECORD_IDS)
def test_record_equality_holds_only_within_a_class(cls, values, frozen):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record.__eq__(values) is NotImplemented
    for other, other_values, _ in RECORDS:
        if other is not cls:
            assert record != other(*other_values)
    twin = cls(*values)
    object.__setattr__(twin, cls.__slots__[-1], "other")  # past a frozen record's guard
    assert record != twin


@pytest.mark.parametrize("cls, values, frozen", RECORDS, ids=RECORD_IDS)
def test_frozen_records_hash_their_fields_and_reports_are_unhashable(cls, values, frozen):
    record = cls(*values)
    name = cls.__slots__[0]
    if frozen:
        assert hash(record) == hash(cls(*values)) == hash(values)
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == values[0]
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls, values, frozen", RECORDS, ids=RECORD_IDS)
def test_records_copy_pickle_and_repr(cls, values, frozen):
    record = cls(*values)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
    assert repr(record) == f"{cls.__qualname__}({fields})"
    match record:
        case cls(first):
            assert first == values[0]


def test_record_reprs_are_the_dataclass_text():
    assert repr(Scalar(1, 3)) == "Scalar(k=1, n=3, qexp=0)"
    assert repr(Scalar.q_power(-2, negate=True)) == "Scalar(k=1, n=2, qexp=-2)"
    assert repr(MValue(2, "power")) == "MValue(m=2, branch='power')"
    assert repr(Triple(Scalar(), Scalar(1, 2), Scalar(5, 12, 1))) == (
        "Triple(q1=Scalar(k=0, n=1, qexp=0), q=Scalar(k=1, n=2, qexp=0), "
        "q2=Scalar(k=5, n=12, qexp=1))"
    )


def test_record_defaults_and_keyword_calls():
    assert Scalar() == Scalar(0, 1, 0) == Scalar(qexp=0, n=1)
    report = CharSeqReport(shape="broken", period=(), ends=[], orbit=[], window=[3])
    assert (report.window_origin, report.state_period, report.steps) == (0, None, 0)
    assert CoverReport(checked=4, violations=[], bound=5) == CoverReport(4, [], 5)
    assert CoverReport(checked=4, violations=[], bound=5).ok


def test_records_json_reads_the_fields_in_order():
    assert list(CoverReport(1, [], 3).to_json()) == ["checked", "violations", "bound"]
    assert list(SolveReport((2, 2, 5), 9, [], [], False).to_json()) == [
        "window", "bound", "ambiguous", "matches",
    ]

