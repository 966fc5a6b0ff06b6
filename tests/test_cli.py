"""Command-line interface: dispatch, exit codes, JSON and determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import BUILTIN_PAIRS, Triple, parse_scalar, theorem_step
from quiddity.cli import _diagram_lines, _json_text, build_parser, main

from scalar_reflections import sigma1, sigma2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "6")
    assert code == 0
    assert "<1,2,3,1,2,3>" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [1, 3, 1, 3, 1, 3] in data["cycles"]


def test_check_member_and_non_member(capsys):
    code, out, _ = run(capsys, "check", "--cycle", "1,3,2,4,1,2,2,4,2")
    assert code == 0 and "is a quiddity cycle" in out
    code, out, _ = run(capsys, "check", "--cycle", "2,2,2")
    assert code == 1 and "is not" in out


def test_check_bad_input(capsys):
    code, _, err = run(capsys, "check", "--cycle", "2,x,2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ","])
@pytest.mark.parametrize(
    "argv",
    [("check", "--cycle"), ("solve", "--bound", "6", "--window"), ("decompose", "--period")],
    ids=["check", "solve", "decompose"],
)
def test_empty_integer_field_is_a_usage_error(capsys, argv, text):
    code, _, err = run(capsys, *argv, text)
    assert code == 2 and "expected comma-separated integers" in err


def test_cover_step_builtin(tmp_path, capsys):
    out_file = tmp_path / "pair.json"
    code, out, _ = run(capsys, "cover-step", "--in", "builtin:base", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert sorted(data["F"]) == [[1, 2], [1, 3, 1], [2, 1]]
    assert [1, 2, 2, 1, 3] in data["E"]


def test_cover_step_accepts_file_roundtrip(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    run(capsys, "cover-step", "--in", "builtin:base", "--out", str(first))
    code, _, _ = run(capsys, "cover-step", "--in", str(first), "--out", str(second))
    assert code == 0
    data = json.loads(second.read_text())
    assert min(len(f) for f in data["F"]) >= 3


def test_verify_cover_builtin(capsys):
    code, out, _ = run(capsys, "verify-cover", "--pair", "builtin:cor12", "--max", "9")
    assert code == 0 and "0 violations" in out


def test_verify_cover_unknown_builtin(capsys):
    code, _, err = run(capsys, "verify-cover", "--pair", "builtin:nope", "--max", "5")
    assert code == 2 and "unknown builtin" in err


def test_verify_thm16(capsys):
    code, out, _ = run(capsys, "verify-thm16", "--max", "9")
    assert code == 0
    assert "0 violations" in out


@pytest.mark.parametrize("bound", ["1", "-3"])
def test_verify_cover_rejects_bound_below_two(capsys, bound):
    # such a bound checks no class, so it must not read as "verified"
    code, out, err = run(capsys, "verify-cover", "--pair", "builtin:cor12", "--max", bound)
    assert code == 2 and out == "" and "max_length" in err


def test_verify_thm16_rejects_bound_below_two(capsys):
    code, out, err = run(capsys, "verify-thm16", "--max", "0")
    assert code == 2 and out == "" and "max_length" in err


@pytest.mark.parametrize(
    "argv",
    [("verify-cover", "--pair", "builtin:cor12", "--max", "25"), ("verify-thm16", "--max", "25")],
    ids=["verify-cover", "verify-thm16"],
)
def test_verifiers_refuse_a_bound_past_the_enumeration_bound_before_enumerating(
    capsys, monkeypatch, argv
):
    # enumerating up to length 24 first would take hours
    import quiddity.localdesc as localdesc

    def no_level(*args):
        raise AssertionError("a level was enumerated")

    monkeypatch.setattr(localdesc, "_level", no_level)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "exceeds the enumeration bound 24" in err


def test_enumerate_refuses_a_length_past_the_bound_before_enumerating(capsys, monkeypatch):
    import quiddity.cycles as cycles

    monkeypatch.setattr(cycles.kernels, "next_level", None)  # any level grown would fail
    code, out, err = run(capsys, "enumerate", "--length", "25")
    assert code == 2 and out == "" and "exceeds the enumeration bound 24" in err


def test_cover_step_rejects_an_empty_pattern_set(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text('{"E": [[0, 0], [1, 1, 1]], "F": []}')
    code, out, err = run(capsys, "cover-step", "--in", str(path), "--out", str(tmp_path / "o.json"))
    assert code == 2 and out == "" and err == "error: F must contain at least one pattern\n"
    assert not (tmp_path / "o.json").exists()


def test_charseq_root_of_unity(capsys):
    code, out, _ = run(
        capsys, "charseq", "--zeta", "9", "--q1", "6", "--q", "8", "--q2", "6"
    )
    assert code == 0
    assert "(2,2,5)" in out
    assert "<--2-->" in out and "<--5-->" in out


def test_charseq_generic_triple(capsys):
    code, out, _ = run(capsys, "charseq", "--triple", "q^1,q^-4,q^4")
    assert code == 0
    assert "(1,4)" in out and "chain" in out


def test_charseq_unresolved_walk_makes_at_most_steps_reflections(capsys):
    code, out, _ = run(
        capsys, "charseq", "--zeta", "9", "--q1", "6", "--q", "8", "--q2", "6", "--steps", "3"
    )
    assert code == 0
    assert out.splitlines()[1:4] == [
        "shape:   unresolved(bound)",
        "period:  none",
        "window:  [2, 5, 2] (origin 0)",
    ]


def scalar_diagram(start, zeta_order, max_arrows=8):
    """The arrow diagram of the forward walk drawn with the Scalar
    reflections of ``scalar_reflections``."""
    pieces, t = [start.render(zeta_order)], start
    for i in range(max_arrows):
        res = (sigma1 if i % 2 == 0 else sigma2)(t)
        if res is None:
            pieces.append("<--?--|")
            break
        t, c = res
        pieces += [f"<--{c}-->", t.render(zeta_order)]
    return ["  ".join(pieces)]


def test_diagram_matches_the_scalar_reflections():
    # every exponent triple in (Z/n)^3 for n <= 12, drawn with n as the root
    # order as ``--zeta n`` draws it, and every triple of nine generic literals
    literals = [parse_scalar(x) for x in ("1", "-1", "q", "-q", "q^2", "q^-2", "-q^3", "q^4", "q^-4")]
    starts = [
        (Triple.from_exponents(n, *e), n) for n in range(1, 13) for e in product(range(n), repeat=3)
    ]
    starts += [(Triple(*t), None) for t in product(literals, repeat=3)]
    assert len(starts) == 6813
    for start, zeta_order in starts:
        assert _diagram_lines(start, zeta_order) == scalar_diagram(start, zeta_order), start


def test_charseq_needs_arguments(capsys):
    code, _, err = run(capsys, "charseq", "--zeta", "9", "--q1", "6")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--triple", "q,q,q", "--zeta", "4", "--q1", "1", "--q", "2", "--q2", "3"],
        ["--triple", "q,q,q", "--zeta", "4"],
        ["--triple", "q,q,q", "--q2", "0"],
        ["--triple", "q,q"],
        ["--zeta", "9", "--q1", "6", "--q", "8", "--q2", "6", "--steps", "0"],
    ],
    ids=["all_exponents", "zeta", "q2", "two_scalars", "no_steps"],
)
def test_charseq_triple_with_exponents_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "charseq", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "--window", "2,2,5", "--bound", "9")
    assert code == 0
    assert "(z9^6,z9^8,z9^6)" in out or "(z9,z9^4,z9^6)" in out


def test_solve_none_found(capsys):
    code, out, _ = run(capsys, "solve", "--window", "7,7,7", "--bound", "4")
    assert code == 1


@pytest.mark.parametrize("window", ["-1,2,5", "2,-2,5"])
def test_solve_rejects_negative_window_entries(capsys, window):
    # a negative entry is a usage error, not a search that finds nothing
    code, out, err = run(capsys, "solve", f"--window={window}", "--bound", "3")
    assert code == 2 and out == "" and "integers >= 0" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_solve_rejects_bound_below_one(capsys, bound):
    code, out, err = run(capsys, "solve", "--window", "2,2,5", "--bound", bound)
    assert code == 2 and out == "" and "modulus_bound" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--nmax", "6")
    assert code == 0
    assert "row" in out


def test_classify_first_line_counts_orbits(capsys):
    # the 396 triples with n <= 6 fall into 340 reflection orbits
    code, out, _ = run(capsys, "classify", "--nmax", "6")
    assert code == 0
    assert out.splitlines()[0] == (
        "swept exponent triples for n <= 6: 340 orbits, 105 broken, "
        "203 non-affine orbits, 32 affine orbits"
    )


def test_classify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "classify", "--nmax", "5", "--json")
    code2, out2, _ = run(capsys, "classify", "--nmax", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_classify_renders_unmatched_orbits_as_table_rows(capsys, monkeypatch):
    # without row 9 its orbits at mu_12 are unmatched
    from quiddity import affine

    monkeypatch.setattr(affine, "KNOWN_ROWS", tuple(r for r in affine.KNOWN_ROWS if r.row != 9))
    code, out, _ = run(capsys, "classify", "--nmax", "12")
    assert code == 1
    unmatched = out.split("UNMATCHED affine orbits found (not in the table):\n")[1].splitlines()
    assert len(unmatched) == 8
    assert "  (z12^4,z12^8,z12^9) (z12,z12^10,z12^9) | (1,3,2,3)" in unmatched
    assert all(line.endswith(" | (1,3,2,3)") for line in unmatched)
    assert "Scalar(" not in out and "Triple(" not in out


def test_generic(capsys):
    code, out, _ = run(capsys, "generic")
    assert code == 0
    assert "row 12" in out and "row 14" in out


def test_decompose_affine_period(capsys):
    code, out, _ = run(capsys, "decompose", "--period", "1,4")
    assert code == 0
    assert "[1, 1, 1]" in out


def test_decompose_non_affine_period(capsys):
    code, out, _ = run(capsys, "decompose", "--period", "2,2,5")
    assert code == 1
    assert "not affine" in out


def test_decompose_json_of_a_cor15_period_that_is_not_affine(capsys):
    code, out, _ = run(capsys, "decompose", "--period", "1,2,3,1,3,2,1,5", "--json")
    assert code == 1
    assert json.loads(out)["affine"] is False


def test_verify_cor15(capsys):
    code, out, _ = run(capsys, "verify-cor15", "--nmax", "6")
    assert code == 0


def test_json_outputs_single_document(capsys):
    for argv in [
        ["enumerate", "--length", "5", "--json"],
        ["check", "--cycle", "0,0", "--json"],
        ["verify-cover", "--pair", "builtin:ends", "--max", "8", "--json"],
        ["verify-thm16", "--max", "7", "--json"],
        ["charseq", "--zeta", "3", "--q1", "1", "--q", "1", "--q2", "1", "--json"],
        ["solve", "--window", "2,2,2", "--bound", "3", "--json"],
        ["decompose", "--period", "2", "--json"],
        ["generic", "--json"],
    ]:
        code = main(argv)
        out = capsys.readouterr().out
        json.loads(out)
        assert code in (0, 1)


#: The subcommands of the parser, each with its options other than -h.
SUBCOMMANDS = {
    name: [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items()
}

#: Option values by dest: bounds <= 10 and at most 50 walk steps, each
#: set with its edges and a value that is not an integer.
EDGES = {
    **dict.fromkeys(("length", "max", "nmax", "bound"), ["-1", "0", "1", "2", "3", "10", "x"]),
    "steps": ["-1", "0", "1", "2", "50", "x"],
    **dict.fromkeys(("zeta", "q1", "q", "q2"), ["-3", "-1", "0", "1", "2", "5", "9", "x"]),
}
ENTRIES = st.lists(st.integers(0, 5).map(str), min_size=1, max_size=7) | st.lists(
    st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "x", ""]), max_size=7
)
LITERALS = st.lists(st.sampled_from(["q", "-q", "q^-4", "q^4", "1", "-1", "z", "q^x"]), max_size=4)
WORDS = st.lists(st.lists(st.integers(-1, 5), max_size=5), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
PAIR_FILES = st.one_of(
    st.fixed_dictionaries({"E": st.just([[0, 0], [1, 1, 1]]) | WORDS, "F": WORDS}).map(json.dumps),
    JSON.map(json.dumps),
    st.binary(max_size=8),
)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_argv_keeps_the_exit_code_contract(data):
    # 0 or 1 with nothing on stderr, or 2 with one error line (argparse
    # prints its usage before it); never a traceback
    name = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        pair_file = os.path.join(tmp, "pair.json")
        text = data.draw(PAIR_FILES)
        with open(pair_file, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        sources = ["builtin:base", "builtin:cor12", "builtin:none", pair_file, tmp + "/missing.json"]
        values = {
            **dict.fromkeys(("cycle", "window", "period"), ENTRIES.map(",".join)),
            "triple": LITERALS.map(",".join),
            "inp": st.sampled_from(sources),
            "pair": st.sampled_from(sources),
            "out": st.sampled_from([tmp + "/out.json", pair_file, tmp, tmp + "/missing/out.json"]),
            **{dest: st.sampled_from(edges) for dest, edges in EDGES.items()},
        }
        argv = [name]
        for action in SUBCOMMANDS[name]:
            if not data.draw(st.integers(0, 9 if action.required else 1)):
                continue
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(data.draw(values[action.dest]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert sum(line.count("error:") for line in err.splitlines()) == 1, (argv, err)
    else:
        assert err == "", (argv, err)


@pytest.mark.parametrize(
    "text",
    [
        '{"E": [[0, 0], [1, 1, 1]]}',
        '{"E": 5, "F": [[1]]}',
        '{"E": [[0, 0], [1, 1, 1]], "F": [5]}',
        "[1, 2]",
        '{"E": [5], "F": [[1]]}',
        "{",
        "[" * 100000 + "]" * 100000,
    ],
    ids=[
        "no_F", "E_not_list", "F_entry_not_list", "top_level_list", "E_entry_not_list", "not_json",
        "nested_too_deep",
    ],
)
def test_verify_cover_malformed_pair_file(tmp_path, capsys, text):
    # a malformed pair file is a usage error, reported on one line
    path = tmp_path / "pair.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify-cover", "--pair", str(path), "--max", "6")
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_verify_cover_drops_a_pattern_as_long_as_the_bound(tmp_path, capsys):
    # a pattern of 3,000 entries is inside no class up to the bound, and
    # its trie branch once recursed once per entry
    pair = BUILTIN_PAIRS["cor12"].to_json()
    pair["F"].append([1] * 3000)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out, err = run(capsys, "verify-cover", "--pair", str(path), "--max", "10", "--json")
    assert (code, err) == (0, "")
    assert out == run(capsys, "verify-cover", "--pair", "builtin:cor12", "--max", "10", "--json")[1]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["classify", "--nmax", "24", "--json"],
            "815f163ebbd3cec9297b7a9ae8b9ca67f04e0e29b9d40da5a0f75d323be719fb",
        ),
        (
            ["verify-cor15", "--nmax", "24", "--json"],
            "9007e80ce0f3213c06cf150a650819198c6eaa787d6c98f812228715a60eeaef",
        ),
        (
            ["solve", "--window", "2,2,5", "--bound", "12", "--json"],
            "481703d5a39681114556fa60071da02bfdb42834809b9f25659b5e33cde62092",
        ),
        (["generic", "--json"], "a56d29539dbdcb1daeb2fa0ca973ae178211b799b2a58d7040e8d8cf8f2b4db5"),
        (
            ["enumerate", "--length", "14", "--json"],
            "0daf33461f294bc2dd4af2e644d4fc557a44b0f1677b68b5021996ce54b868d2",
        ),
        (
            ["verify-cover", "--pair", "builtin:cor12", "--max", "14", "--json"],
            "7b10fe7decbba7c0d208debc2905f07cced5b50f20b6aeeae6aec6f4bf32b1f2",
        ),
    ],
    ids=["classify", "verify-cor15", "solve", "generic", "enumerate", "verify-cover"],
)
def test_json_output_is_pinned(capsys, argv, digest):
    # the sha256 of stdout: a refactor of the sweeps or of the enumeration
    # must not change a byte
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_forked_enumeration_prints_one_json_document():
    # level 14 grows in forked workers where two CPUs are usable; a worker
    # that flushed the inherited stdout would print a second document
    proc = subprocess.run(
        [sys.executable, "-m", "quiddity.cli", "enumerate", "--length", "14", "--json"],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 7528
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "0daf33461f294bc2dd4af2e644d4fc557a44b0f1677b68b5021996ce54b868d2"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["verify-thm16", "--max", "12", "--json"],
            "d94b7a2d257dd6fb469ccc0e16fcf0b269ad84a160335341771cd1f3f20796ca",
        ),
        (
            ["charseq", "--zeta", "9", "--q1", "6", "--q", "8", "--q2", "6", "--json"],
            "5c5eae9c22719b2873818cd95b135d55226e9b9ce94f070aac73cc8dca83a8fb",
        ),
        (
            ["charseq", "--triple", "q^1,q^-4,q^4", "--json"],
            "ee25999eb32391b676b5ac83529e1098edf7c2622ef56d9701320f07c2ef0853",
        ),
        (
            ["charseq", "--zeta", "5", "--q1", "0", "--q", "1", "--q2", "1", "--json"],
            "0d520e118dbdbd5836c995893eedfa0d12ae194d9b565a3690f69d5bf376ac17",
        ),
        (
            ["charseq", "--zeta", "9", "--q1", "6", "--q", "8", "--q2", "6", "--steps", "3", "--json"],
            "6f6902de0c0d9e1338cafce7cd5f9e2397b7335ed9db91302c8d93c43cab1acc",
        ),
        (
            ["decompose", "--period", "6,1,3,1", "--json"],
            "e11349a0ffcb112766fb0ccaf11866d6f996ae3260bb38a34e66767b51903d72",
        ),
        (
            ["check", "--cycle", "1,2,1,2", "--json"],
            "74266f77943198aee16d37261f36562d37873b3680b0bc15f8f7d647c708092e",
        ),
        (
            ["enumerate", "--length", "10"],
            "290ab14a8148522d60eb890e71910b5a0ac84f8c51de0744fd55cc1c340a84fe",
        ),
        (
            ["generic"],
            "eee9443790466fbfad95eb381fbb40f4207be3875f3746c157a258c05de315f9",
        ),
        (
            ["classify", "--nmax", "24"],
            "361da9ad3f68f07f883bcb4224b0e04733e76d4f765f3d856eb0e10206d48886",
        ),
    ],
    ids=[
        "verify-thm16", "charseq", "charseq-chain", "charseq-broken", "charseq-unresolved",
        "decompose", "check", "enumerate-text", "generic-text", "classify-text",
    ],
)
def test_more_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cover_step_output_and_files_are_pinned(tmp_path, monkeypatch, capsys):
    # three steps from builtin:base: stdout and the pair file of each step;
    # relative --out paths keep the "out" field of stdout the same anywhere
    monkeypatch.chdir(tmp_path)
    pinned = [
        (
            "1db9694ada9bd60f895f7cde0aecc683b7126ed1084394f4b515a14d216eb548",
            "80a002bde6337be6bc7a324e06460ff0bb80ace1e10222c745b9d6a2ed6bf305",
        ),
        (
            "0bf1c867a8361dd46cf94804e27f54a0670cfb850e7d6c8ff8be97514ff018f8",
            "8c27fa62089d162595d7746bef5c65b59b0b43d80a235b6f4a1fc8419a120755",
        ),
        (
            "11f6b83337e85154b2018546bd3c3572319bbff1f0f43683f2df301629d5856d",
            "c333f9f9006bd064f59378c888ced15168226b762291221ff9546bb8d158870a",
        ),
    ]
    source = "builtin:base"
    for k, (stdout_digest, file_digest) in enumerate(pinned, 1):
        code, out, _ = run(capsys, "cover-step", "--in", source, "--out", f"p{k}.json", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest, k
        assert hashlib.sha256(Path(f"p{k}.json").read_bytes()).hexdigest() == file_digest, k
        source = f"p{k}.json"
    assert sorted(os.listdir(tmp_path)) == ["p1.json", "p2.json", "p3.json"]


def full_disk_open(*args, **kwargs):
    """``open``, but a text file opened for writing writes half of what
    it is given and then fails as on a full disk."""
    fh = open(*args, **kwargs)
    write = fh.write

    def half_then_fail(text):
        write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    fh.write = half_then_fail
    return fh


@pytest.mark.parametrize("same_file", [False, True], ids=["new_out", "out_is_in"])
def test_cover_step_failing_write_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, same_file):
    import quiddity.cli as cli

    first = tmp_path / "one.json"
    run(capsys, "cover-step", "--in", "builtin:base", "--out", str(first))
    out = first if same_file else tmp_path / "two.json"
    if not same_file:
        out.write_text("an older pair file\n")
    before = out.read_bytes()
    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    code, stdout, err = run(capsys, "cover-step", "--in", str(first), "--out", str(out), "--json")
    assert code == 2 and stdout == "" and "No space left" in err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({first.name, out.name})


def test_cover_step_passes_over_a_stale_temporary_file(tmp_path, capsys):
    # a file under the temporary name, as a killed run whose pid came back
    # leaves it, is left as it was, and the pair is written all the same
    out = tmp_path / "one.json"
    stale = tmp_path / f"one.json.{os.getpid()}.tmp"
    stale.write_text("left behind\n")
    code, _, err = run(capsys, "cover-step", "--in", "builtin:base", "--out", str(out))
    assert code == 0 and err == ""
    assert out.read_text() == _json_text(theorem_step(BUILTIN_PAIRS["base"]).to_json())
    assert stale.read_text() == "left behind\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, stale.name])


def test_cover_step_json_encodes_the_pair_once(tmp_path, monkeypatch, capsys):
    import quiddity.cli as cli

    docs = []

    def counted(doc):
        docs.append(doc)
        return _json_text(doc)

    monkeypatch.setattr(cli, "_json_text", counted)
    argv = ["--in", "builtin:base", "--out", str(tmp_path / "p.json"), "--json"]
    code, out, _ = run(capsys, "cover-step", *argv)
    assert code == 0
    assert sum("E" in doc for doc in docs) == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cover_step_may_write_over_its_input(tmp_path, capsys):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    run(capsys, "cover-step", "--in", "builtin:base", "--out", str(one))
    run(capsys, "cover-step", "--in", str(one), "--out", str(two))
    code, _, _ = run(capsys, "cover-step", "--in", str(one), "--out", str(one))
    assert code == 0 and one.read_bytes() == two.read_bytes()


class Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class Ratio(float):
    def __repr__(self):
        return f"Ratio({float(self)})"


class Record(dict):
    pass


class Row(list):
    pass


FLOATS = [0.0, -0.0, 0.1, -2.5, 1e300, -1e-300, 1e16, float("nan"), float("inf"), float("-inf")]
CHARS = 'ab"\\/\n\t\r\b\f\x00\x1f\x7f\u00e9\u221e\u2028\U0001f600'


def random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(2**70), 10**50, rng.randint(-9999, 9999)])
    if kind == 2:
        return Count(rng.randint(-50, 50))
    if kind == 3:
        return rng.choice(FLOATS + [rng.uniform(-1e6, 1e6), Ratio(rng.random())])
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_key(rng):
    return rng.choice(
        [
            random_scalar(rng),
            rng.randint(-99, 99),
            rng.choice(FLOATS),
            "".join(rng.sample(CHARS, 3)),
        ]
    )


def random_doc(rng, depth=0):
    kind = rng.randrange(8) if depth < 4 else 0
    if kind <= 1:
        return random_scalar(rng)
    size = rng.randrange(5)
    if kind == 2:  # the writer's fast path, or a near miss of it
        ints = [rng.randint(-(10**20), 10**20) for _ in range(size)]
        if ints and rng.random() < 0.5:
            ints[rng.randrange(size)] = rng.choice([True, False, Count(3), 2.0, "4", None])
        return rng.choice([list, tuple, Row])(ints)
    if kind <= 4:
        items = [random_doc(rng, depth + 1) for _ in range(size)]
        return rng.choice([list, tuple, Row])(items)
    items = ((random_key(rng), random_doc(rng, depth + 1)) for _ in range(size))
    return rng.choice([dict, Record])(items)


def test_json_text_is_json_dumps_with_indent_two():
    rng = random.Random(20)
    for _ in range(400):
        doc = random_doc(rng)
        assert _json_text(doc) == json.dumps(doc, indent=2) + "\n", doc
    for doc in ([], {}, (), [[], {}], {"": [()]}, Row(), Record(), "", 0, None):
        assert _json_text(doc) == json.dumps(doc, indent=2) + "\n", doc


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        object(),
        b"bytes",
        1j,
        {"a": [1, {2}]},
        [(1, frozenset())],
        {(1, 2): 3},
        {"a": {b"k": 1}},
    ],
    ids=[
        "set",
        "object",
        "bytes",
        "complex",
        "nested_set",
        "nested_frozenset",
        "tuple_key",
        "bytes_key",
    ],
)
def test_json_text_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        _json_text(doc)
