"""Command-line front end.

Every pipeline is exposed as a batch subcommand with deterministic output
and, under --json, a single JSON document on stdout: the text that
``json.dumps(doc, indent=2)`` writes, byte for byte, produced by
``_json_text``.

Exit codes: 0 = success / verified, 1 = verification found violations or
a negative answer, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .affine import (
    check_generic_rows,
    classify_mu,
    cor15_check,
    decompose_affine,
    verify_cor15_on_classified,
)
from .charseq import Triple, _exponents, _reflect, _triple, solve_triples, walk
from .cycles import _level, canonicalize, is_quiddity
from .localdesc import (
    BUILTIN_PAIRS,
    CoverPair,
    theorem_step,
    verify_cover,
    verify_thm_subseqs,
)
from .scalars import parse_scalar

USAGE_ERROR = 2


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _emit(args, payload: dict, human: Iterable[str]) -> None:
    """Write ``payload`` as JSON under --json, else the lines of ``human``,
    in one write either way; ``human`` may be lazy, as --json never reads
    it."""
    if args.json:
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in human))


_INT_ONLY = frozenset({int})


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte, with its hot
    paths in C.

    With ``indent`` set, ``json`` encodes every value in pure Python.
    Here a list or tuple whose items are all exactly ``int`` is one
    ``str.join`` over their ``int.__repr__``, strings and keys go through
    ``json``'s C string encoder, None, bools and ints are written as
    ``json`` writes them, and every other scalar goes through the compact
    ``json.dumps``, which raises ``TypeError`` for a value that is not
    serializable.  Containers are recognized by ``isinstance``, as
    ``json`` does.  ``doc`` must hold no reference cycle."""
    parts: list[str] = []
    _put_json(doc, "", "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _put_json(value, lead: str, newline: str, put) -> None:
    """Pass ``lead`` and then the indented JSON text of ``value`` to
    ``put``, in pieces; ``newline`` is the line break and indent of the
    line that ``value`` starts on."""
    if isinstance(value, (list, tuple)):
        if not value:
            put(lead + "[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == _INT_ONLY:
            put(f"{lead}[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
            return
        put(lead + "[")
        sep = inner
        for item in value:
            _put_json(item, sep, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put(lead + "{}")
            return
        inner = newline + "  "
        put(lead + "{")
        sep = inner
        for key, item in value.items():
            _put_json(item, f"{sep}{_json_key(key)}: ", inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, str):
        put(lead + encode_basestring_ascii(value))
    elif value is None:
        put(lead + "null")
    elif value is True:
        put(lead + "true")
    elif value is False:
        put(lead + "false")
    elif isinstance(value, int):
        put(lead + int.__repr__(value))
    else:
        put(lead + json.dumps(value))


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: a str as itself, an int, float,
    bool or None as the string of its JSON text."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _replace(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: into a new file beside it,
    then renamed over it, so a failed write leaves ``path`` as it was;
    a stale file under the temporary name is passed over."""
    for n in count():
        tmp = f"{path}.{os.getpid()}{f'.{n}' if n else ''}.tmp"
        with suppress(FileExistsError):
            fh = open(tmp, "x", encoding="utf-8")
            break
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _load_pair(source: str) -> CoverPair:
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN_PAIRS:
            raise ValueError(
                f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTIN_PAIRS))}"
            )
        return BUILTIN_PAIRS[name]
    with open(source, encoding="utf-8") as fh:
        return CoverPair.from_json(json.load(fh))


def _triple_from_args(args) -> tuple[Triple, int | None]:
    exponents = (args.zeta, args.q1, args.q, args.q2)
    if exponents.count(None) != (4 if args.triple else 0):
        raise ValueError("give either --triple or all of --zeta/--q1/--q/--q2")
    if not args.triple:
        return Triple.from_exponents(*exponents), args.zeta
    parts = [p.strip() for p in args.triple.split(",")]
    if len(parts) != 3:
        raise ValueError("--triple needs three comma-separated scalars")
    return Triple(*(parse_scalar(p) for p in parts)), None


def cmd_enumerate(args) -> int:
    words = _level(args.length)
    _emit(
        args,
        {"length": args.length, "count": len(words), "cycles": words},
        chain(
            [f"{len(words)} quiddity classes of length {args.length}:"],
            (f"<{','.join(map(str, w))}>" for w in words),
        ),
    )
    return 0


def cmd_check(args) -> int:
    cyc = canonicalize(_ints(args.cycle))
    member = is_quiddity(cyc)
    _emit(
        args,
        {"cycle": cyc.to_json(), "quiddity": member},
        [f"{cyc} {'is' if member else 'is not'} a quiddity cycle"],
    )
    return 0 if member else 1


def cmd_cover_step(args) -> int:
    pair = _load_pair(args.inp)
    stepped = theorem_step(pair)
    text = _json_text(stepped.to_json())
    _replace(args.out, text)
    if args.json:
        # the pair's text, at the same indent, after three keys of its own
        head = _json_text({"out": args.out, "E_size": len(stepped.E), "F_size": len(stepped.F)})
        sys.stdout.write(head[:-3] + ",\n" + text[2:])
    else:
        sys.stdout.write(
            f"E: {len(pair.E)} -> {len(stepped.E)} classes\n"
            f"F: {len(pair.F)} -> {len(stepped.F)} patterns "
            f"(min length {min(len(f) for f in stepped.F)})\nwrote {args.out}\n"
        )
    return 0


def cmd_verify_cover(args) -> int:
    pair = _load_pair(args.pair)
    report = verify_cover(pair, args.max)
    _emit(
        args,
        report.to_json(),
        [
            f"checked {report.checked} classes up to length {report.bound}: "
            f"{len(report.violations)} violations"
        ]
        + [f"  violation: {v}" for v in report.violations[:20]],
    )
    return 0 if report.ok else 1


def cmd_verify_thm16(args) -> int:
    report = verify_thm_subseqs(args.max)
    hits_ok = all(v > 0 for v in report.pattern_hits.values()) and all(
        v > 0 for v in report.exceptional_hits.values()
    )
    _emit(
        args,
        {**report.to_json(), "all_witnesses_hit": hits_ok},
        [
            f"checked {report.checked} representatives up to length {report.bound}: "
            f"{len(report.violations)} violations",
            f"all nine patterns and all exceptional representatives hit: {hits_ok}",
        ],
    )
    return 0 if report.ok and hits_ok else 1


def _diagram_lines(start: Triple, zeta_order, max_arrows: int = 8) -> list[str]:
    """Plain-text arrow diagram of the forward walk from ``start``: the
    reflections of ``walk`` replayed on its exponents."""
    n = start.level()
    s = _exponents(start, n)
    pieces = [start.render(zeta_order)]
    for i in range(max_arrows):
        res = _reflect(n, s, i % 2 == 0)
        if res is None:
            pieces.append("<--?--|")
            break
        s, c = res
        pieces.append(f"<--{c}-->")
        pieces.append(_triple(n, s).render(zeta_order))
    return ["  ".join(pieces)]


def cmd_charseq(args) -> int:
    triple, zeta_order = _triple_from_args(args)
    report = walk(triple, max_steps=args.steps)
    human = [
        f"triple:  {triple.render(zeta_order)}",
        f"shape:   {report.shape}",
        f"period:  ({','.join(map(str, report.period))})" if report.period else "period: none",
        f"window:  {report.window} (origin {report.window_origin})",
        f"ends:    {report.ends}",
        f"orbit:   {[t.render(zeta_order) for t in report.orbit]}",
    ] + _diagram_lines(triple, zeta_order)
    _emit(args, report.to_json(), human)
    return 0


def cmd_solve(args) -> int:
    report = solve_triples(_ints(args.window), args.bound)
    human = [
        f"window {list(report.window)} within exponent bound {report.bound}: "
        f"{len(report.triples)} triples, {len(report.matches)} alignments"
        + (", AMBIGUOUS end placement" if report.ambiguous else "")
    ]
    human += [f"  {t.render(t.level())}" for t in report.triples[:50]]
    _emit(args, report.to_json(), human)
    return 0 if report.triples else 1


def cmd_classify(args) -> int:
    report = classify_mu(args.nmax)
    human = [
        f"swept exponent triples for n <= {report.n_max}: "
        f"{report.triples_checked} orbits, {report.broken} broken, "
        f"{report.non_affine} non-affine orbits, {len(report.orbits)} affine orbits",
        "",
        f"{'row':>4} | {'diagrams':<58} | {'parameter':<40} | period",
        "-" * 120,
    ]
    for o in report.orbits:
        diagrams = " ".join(t.render(o.level) for t in o.diagrams)
        row = str(o.row_matched) if o.row_matched else "??"
        human.append(
            f"{row:>4} | {diagrams:<58} | {o.parameter:<40} | ({','.join(map(str, o.period))})"
        )
    if report.missing:
        human.append("MISSING expected instances:")
        human += [f"  {m}" for m in report.missing]
    if report.unmatched:
        human.append("UNMATCHED affine orbits found (not in the table):")
        human += [f"  {o.diagrams}" for o in report.unmatched]
    _emit(args, report.to_json(), human)
    return 0 if report.ok else 1


def cmd_generic(args) -> int:
    report = check_generic_rows()
    human = []
    for rowno, data in sorted(report.rows.items()):
        human.append(
            f"row {rowno}: shape={data['shape']} period={data['period']} "
            f"affine={data['affine']} ({data['parameter']})"
        )
    counts: dict[str, int] = {}
    for s in report.specializations:
        counts[s.status] = counts.get(s.status, 0) + 1
    human.append(f"specializations: {counts}")
    human += [f"VIOLATION: {v}" for v in report.violations]
    _emit(args, report.to_json(), human)
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    period = _ints(args.period)
    dec = decompose_affine(period)
    if dec is None:
        _emit(
            args,
            {"period": list(period), "affine": False, "cor15": cor15_check(period)},
            [f"period ({','.join(map(str, period))}) is not affine"],
        )
        return 1
    _emit(
        args,
        {"period": list(period), "affine": True, **dec.to_json()},
        [
            f"period ({','.join(map(str, period))}) is affine "
            f"(junction window = {dec.period_multiple} period(s))",
            f"blocks:    {[list(b) for b in dec.blocks]}",
            f"junctions: {[f'pos {p}: {x}+2+{y}' for (p, x, y) in dec.junctions]}",
        ],
    )
    return 0


def cmd_verify_cor15(args) -> int:
    report = verify_cor15_on_classified(args.nmax)
    _emit(
        args,
        report.to_json(),
        [
            f"{len(report.periods)} affine periods up to mu_{report.n_max}: "
            f"{len(report.failures)} fail the fifteen-pattern condition"
        ],
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="quiddity cycles, local containment covers, reflection "
        "walks and the affine rank-two classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", cmd_enumerate, help="all quiddity classes of one length")
    p.add_argument("--length", type=int, required=True)

    p = add("check", cmd_check, help="membership test for one cycle")
    p.add_argument("--cycle", required=True, help="comma-separated entries")

    p = add("cover-step", cmd_cover_step, help="refine a cover pair once")
    p.add_argument("--in", dest="inp", required=True, help="pair JSON file or builtin:<name>")
    p.add_argument("--out", required=True, help="output JSON file")

    p = add("verify-cover", cmd_verify_cover, help="check a cover pair against the enumeration")
    p.add_argument("--pair", required=True, help="pair JSON file or builtin:<name>")
    p.add_argument("--max", type=int, default=12, help="largest cycle length")

    p = add("verify-thm16", cmd_verify_thm16, help="interior-subsequence check over all representatives")
    p.add_argument("--max", type=int, default=12)

    p = add("charseq", cmd_charseq, help="walk a triple and print its characteristic sequence")
    p.add_argument("--zeta", type=int, help="root-of-unity order n")
    p.add_argument("--q1", type=int, help="exponent of q1")
    p.add_argument("--q", type=int, help="exponent of the middle entry")
    p.add_argument("--q2", type=int, help="exponent of q2")
    p.add_argument("--triple", help="generic literals, e.g. \"q^1,q^-4,q^4\"")
    p.add_argument("--steps", type=int, default=10000)

    p = add("solve", cmd_solve, help="reconstruct triples from a sequence window")
    p.add_argument("--window", required=True, help="comma-separated entries")
    p.add_argument("--bound", type=int, required=True, help="largest exponent modulus")

    p = add("classify", cmd_classify, help="classify affine root-of-unity triples")
    p.add_argument("--nmax", type=int, required=True)

    add("generic", cmd_generic, help="verify the one-parameter rows and their exclusions")

    p = add("decompose", cmd_decompose, help="affine gluing search for a period")
    p.add_argument("--period", required=True, help="comma-separated entries")

    p = add("verify-cor15", cmd_verify_cor15, help="fifteen-pattern check on classified periods")
    p.add_argument("--nmax", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
