"""The three workloads: timed library calls, their checks, and CLI legs.

A workload is a fixed list of operations.  ``plan`` returns the library
calls in the order they are timed; each takes the dict of earlier results.
``check`` runs after the timed region and returns, per operation, the
problems found by comparing the output with ``oracles``.  ``summary``
condenses the in-process results that the CLI outputs must agree with, and
``cli`` lists the CLI invocations with their expected exit codes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import oracles as orc


def digest(obj) -> str:
    """Hash of a JSON value, insensitive to key order and int/str keys."""
    norm = json.loads(json.dumps(obj))
    text = json.dumps(norm, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sample(rng, items, k):
    items = sorted(items)
    return items if len(items) <= k else rng.sample(items, k)


@dataclass
class Cli:
    """One CLI invocation: arguments after ``-m quiddity.cli``, the exit
    code the contract requires, and a check of the parsed JSON document
    (None when stdout held none) against the in-process summary."""

    name: str
    argv: list[str]
    expect: int
    check: Callable[[dict | None, dict], list[str]]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _needs_doc(check):
    def checked(doc, summary):
        if doc is None:
            return ["no JSON document on stdout"]
        return check(doc, summary)

    return checked


def _cover_ok(bound):
    """Check of a CLI cover report: it holds, and counts as many classes as
    the in-process enumeration (``classes_to_cli`` of the summary)."""

    def check(doc, summary):
        problems = orc.check_cover_report(doc, bound)
        if doc["checked"] != summary["classes_to_cli"]:
            problems.append("checked differs from the in-process class count")
        return problems

    return _needs_doc(check)


class Workload:
    name: str
    #: CLI operations that fail every time because of a known fault in the
    #: program; they count as failed but leave the run correct.
    known_faults: frozenset = frozenset()

    def setup_files(self, workdir) -> None:
        """Write the input files the CLI leg reads."""


class Cycles(Workload):
    """Cold enumeration to 15, the 27-quadruple cover to 15, the interior
    theorem to 13, a seeded membership sample, and two CLI commands."""

    name = "cycles"
    max_length = 15
    cover_bound = 15
    subseq_bound = 13
    cli_length = 14

    def plan(self, q, rng):
        words = self._membership_words(rng)
        ops = [
            (f"enumerate_cycles({n})", lambda res, n=n: q.enumerate_cycles(n))
            for n in range(2, self.max_length + 1)
        ]
        ops += [
            ("is_quiddity sample", lambda res: (words, [q.is_quiddity(w) for w in words])),
            (
                "verify_cover(cor12)",
                lambda res: q.verify_cover(q.BUILTIN_PAIRS["cor12"], self.cover_bound),
            ),
            ("verify_thm_subseqs", lambda res: q.verify_thm_subseqs(self.subseq_bound)),
        ]
        return ops

    @staticmethod
    def _membership_words(rng, count=2000):
        """Quiddity words built by random ear insertion, half of them
        disturbed by moving one unit between two entries."""
        words = []
        for i in range(count):
            w = [1, 1, 1]
            for _ in range(rng.randrange(1, 18)):
                j = rng.randrange(len(w))
                w[j] += 1
                w[(j + 1) % len(w)] += 1
                w.insert(j + 1, 1)
            if i % 2:
                a, b = rng.sample(range(len(w)), 2)
                if w[b] > 1:
                    w[a] += 1
                    w[b] -= 1
            r = rng.randrange(len(w))
            words.append(tuple(w[r:] + w[:r]))
        return words

    def _levels(self, res):
        return {n: [c.canon for c in res[f"enumerate_cycles({n})"]] for n in range(2, self.max_length + 1)}

    def check(self, q, res, rng):
        out = {}
        levels = self._levels(res)
        for n, canons in levels.items():
            out[f"enumerate_cycles({n})"] = orc.check_classes(n, canons, sample(rng, canons, 200))
        words, got = res["is_quiddity sample"]
        out["is_quiddity sample"] = [
            f"is_quiddity{w} = {g}" for w, g in zip(words, got) if g != orc.is_quiddity_word(w)
        ]
        pair = q.BUILTIN_PAIRS["cor12"]
        everything = [c for n in range(2, self.cover_bound + 1) for c in levels[n]]
        out["verify_cover(cor12)"] = orc.check_cover_report(
            res["verify_cover(cor12)"].to_json(), self.cover_bound
        ) + orc.check_cover_sample({e.canon for e in pair.E}, pair.F, sample(rng, everything, 300))
        orbit_sizes = sum(
            len(orc.dihedral_orbit(c)) for n in range(2, self.subseq_bound + 1) for c in levels[n]
        )
        out["verify_thm_subseqs"] = orc.check_subseq_report(
            res["verify_thm_subseqs"].to_json(), self.subseq_bound, orbit_sizes
        )
        return out

    def summary(self, q, res):
        n = self.cli_length
        levels = self._levels(res)
        return {
            "classes_to_cli": sum(len(levels[k]) for k in range(2, n + 1)),
            "cycles_at_cli": digest([list(c) for c in sorted(levels[n])]),
        }

    def trace_facts(self, q, res):
        report = res["verify_cover(cor12)"]
        in_e = sum(1 for e in q.BUILTIN_PAIRS["cor12"].E if len(e) <= report.bound)
        return report.checked - in_e - len(report.violations), 0

    def cli(self, workdir):
        n = str(self.cli_length)

        def enumerate_ok(doc, s):
            problems = orc.check_classes(self.cli_length, [tuple(c) for c in doc["cycles"]], [])
            if doc["count"] != len(doc["cycles"]):
                problems.append("count disagrees with the list")
            if digest(doc["cycles"]) != s["cycles_at_cli"]:
                problems.append("cycles differ from the in-process enumeration")
            return problems

        return [
            Cli("cli enumerate", ["enumerate", "--length", n, "--json"], 0, _needs_doc(enumerate_ok)),
            Cli(
                "cli verify-cover cor12",
                ["verify-cover", "--pair", "builtin:cor12", "--max", n, "--json"],
                0,
                _cover_ok(self.cli_length),
            ),
        ]


class Refine(Workload):
    """Three refinement steps from the trivial cover, the refined pair's
    cover to 15, the same chain through the CLI, and one malformed pair
    file."""

    name = "refine"
    steps = 3
    cover_bound = 15
    cli_bound = 14
    #: CoverPair.from_json lets a KeyError escape on a pair file without
    #: "F", so the CLI exits 1 with a traceback instead of 2.
    known_faults = frozenset({"cli verify-cover malformed"})

    def plan(self, q, rng):
        ops = []
        for k in range(1, self.steps + 1):
            prev = f"theorem_step {k - 1}" if k > 1 else None
            ops.append(
                (
                    f"theorem_step {k}",
                    lambda res, prev=prev: q.theorem_step(res[prev] if prev else q.BUILTIN_PAIRS["base"]),
                )
            )
        last = f"theorem_step {self.steps}"
        ops.append(("verify_cover(refined)", lambda res: q.verify_cover(res[last], self.cover_bound)))
        return ops

    @staticmethod
    def _sets(pair):
        return ({e.canon for e in pair.E}, set(pair.F))

    def check(self, q, res, rng):
        out = {}
        chain = [self._sets(q.BUILTIN_PAIRS["base"])]
        for k in range(1, self.steps + 1):
            chain.append(self._sets(res[f"theorem_step {k}"]))
            out[f"theorem_step {k}"] = orc.check_refinement(chain)
        e, f = chain[-1]
        classes = [c.canon for n in range(2, self.cover_bound + 1) for c in q.enumerate_cycles(n)]
        out["verify_cover(refined)"] = orc.check_cover_report(
            res["verify_cover(refined)"].to_json(), self.cover_bound
        ) + orc.check_cover_sample(e, sorted(f, key=len), sample(rng, classes, 150))
        return out

    def summary(self, q, res):
        return {
            "steps": [
                {
                    "E_size": len(res[f"theorem_step {k}"].E),
                    "F_size": len(res[f"theorem_step {k}"].F),
                    "pair": digest(res[f"theorem_step {k}"].to_json()),
                }
                for k in range(1, self.steps + 1)
            ],
            "classes_to_cli": sum(len(q.enumerate_cycles(n)) for n in range(2, self.cli_bound + 1)),
        }

    def trace_facts(self, q, res):
        report = res["verify_cover(refined)"]
        in_e = sum(1 for e in res[f"theorem_step {self.steps}"].E if len(e) <= report.bound)
        return report.checked - in_e - len(report.violations), 0

    def setup_files(self, workdir):
        with open(workdir / "malformed.json", "w", encoding="utf-8") as fh:
            json.dump({"E": [[0, 0], [1, 1, 1]]}, fh)

    def cli(self, workdir):
        out = []
        src = "builtin:base"
        for k in range(1, self.steps + 1):
            dest = workdir / f"step{k}.json"

            def step_ok(doc, s, k=k, dest=dest):
                want = s["steps"][k - 1]
                problems = []
                if (doc["E_size"], doc["F_size"]) != (want["E_size"], want["F_size"]):
                    problems.append(f"step {k}: sizes differ from the in-process step")
                with open(dest, encoding="utf-8") as fh:
                    written = json.load(fh)
                if digest(written) != want["pair"] or digest({"E": doc["E"], "F": doc["F"]}) != want["pair"]:
                    problems.append(f"step {k}: pair differs from the in-process step")
                return problems

            out.append(
                Cli(f"cli cover-step {k}", ["cover-step", "--in", src, "--out", str(dest), "--json"], 0, _needs_doc(step_ok))
            )
            src = str(dest)

        out.append(
            Cli(
                "cli verify-cover refined",
                ["verify-cover", "--pair", src, "--max", str(self.cli_bound), "--json"],
                0,
                _cover_ok(self.cli_bound),
            )
        )
        out.append(
            Cli(
                "cli verify-cover malformed",
                ["verify-cover", "--pair", str(workdir / "malformed.json"), "--max", "6", "--json"],
                2,
                lambda doc, s: [] if doc is None else ["printed a report for a malformed pair"],
            )
        )
        return out


class Walks(Workload):
    """Cold classification to n <= 18, the one-parameter rows to order 48,
    the fifteen-pattern check, window reconstruction for (2,2,5), a seeded
    m-value sample, and three CLI commands."""

    name = "walks"
    n_max = 18
    max_order = 48
    window = (2, 2, 5)
    solve_bound = 12
    cli_nmax = 14
    cli_solve_bound = 11

    def plan(self, q, rng):
        pairs = [(n, rng.randrange(n), rng.randrange(n)) for n in (rng.randrange(1, 49) for _ in range(2000))]

        def m_values(res):
            out = []
            for n, ai, a in pairs:
                mv = q.m_value(q.Scalar.root_of_unity(n, ai), q.Scalar.root_of_unity(n, a))
                out.append(None if mv is None else (mv.m, mv.branch))
            return pairs, out

        return [
            ("classify_mu", lambda res: q.classify_mu(self.n_max)),
            ("check_generic_rows", lambda res: q.check_generic_rows(self.max_order)),
            ("verify_cor15_on_classified", lambda res: q.verify_cor15_on_classified(self.n_max)),
            ("solve_triples", lambda res: q.solve_triples(self.window, self.solve_bound)),
            ("m_value sample", m_values),
        ]

    def check(self, q, res, rng):
        classified = res["classify_mu"].to_json()
        cor15 = res["verify_cor15_on_classified"].to_json()
        periods = {orc.period_class(o["period"]) for o in classified["orbits"]}
        cor15_problems = [] if not cor15["failures"] else [f"{len(cor15['failures'])} failures"]
        if {orc.period_class(p) for p in cor15["periods"]} != periods:
            cor15_problems.append("periods differ from the classification's")
        for p in periods:
            if not any(orc.periodic_occurs(w, f) for w in (p, p[::-1]) for f in orc.FIFTEEN_PATTERNS):
                cor15_problems.append(f"period {p} contains none of the fifteen patterns")
        orbits = sorted(classified["orbits"], key=digest)
        return {
            "classify_mu": orc.check_classification(classified, rng.sample(orbits, min(40, len(orbits)))),
            "check_generic_rows": orc.check_generic(res["check_generic_rows"].to_json(), self.max_order),
            "verify_cor15_on_classified": cor15_problems,
            "solve_triples": orc.check_solve(
                res["solve_triples"].to_json(), self.window, orc.solve_brute(self.window, self.solve_bound)
            ),
            "m_value sample": orc.check_m_values(*res["m_value sample"]),
        }

    @staticmethod
    def _orbit_keys(orbits, n_max):
        return sorted(
            digest([o["row_matched"], list(orc.period_class(o["period"])), o["diagrams"]])
            for o in orbits
            if max(orc.triple_level(t) for t in o["diagrams"]) <= n_max
        )

    @staticmethod
    def _match_keys(matches, bound):
        return sorted(digest(m) for m in matches if orc.triple_level(m["triple"]) <= bound)

    def summary(self, q, res):
        return {
            "orbits_at_cli": self._orbit_keys(res["classify_mu"].to_json()["orbits"], self.cli_nmax),
            "generic": digest(res["check_generic_rows"].to_json()),
            "matches_at_cli": self._match_keys(res["solve_triples"].to_json()["matches"], self.cli_solve_bound),
            "brute_at_cli": sorted(
                [n, list(t), i] for n, t, i in orc.solve_brute(self.window, self.cli_solve_bound)
            ),
        }

    def trace_facts(self, q, res):
        decided = (
            sum(orc.jordan3(n) for n in range(1, self.n_max + 1))
            + sum(orc.jordan3(n) for n in range(1, self.solve_bound + 1))
            + len(res["check_generic_rows"].specializations)
            + 3  # the symbolic walk of each one-parameter row
        )
        return 0, decided

    def cli(self, workdir):
        def classify_ok(doc, s):
            problems = []
            if doc["missing"] or doc["unmatched"]:
                problems.append("missing or unmatched orbits")
            if doc["triples_checked"] != doc["broken"] + doc["non_affine"] + len(doc["orbits"]):
                problems.append("triples_checked does not add up")
            for o in doc["orbits"]:
                if orc.period_class(o["period"]) != orc.period_class(orc.TABLE_PERIODS[o["row_matched"]]):
                    problems.append(f"row {o['row_matched']}: period {o['period']} is not the printed one")
            if self._orbit_keys(doc["orbits"], self.cli_nmax) != s["orbits_at_cli"]:
                problems.append("orbits differ from the in-process classification")
            return problems

        def generic_ok(doc, s):
            problems = orc.check_generic(doc, self.max_order)
            if digest(doc) != s["generic"]:
                problems.append("report differs from the in-process one")
            return problems

        def solve_ok(doc, s):
            brute = {(n, tuple(t), i) for n, t, i in s["brute_at_cli"]}
            problems = orc.check_solve(doc, self.window, brute)
            if self._match_keys(doc["matches"], self.cli_solve_bound) != s["matches_at_cli"]:
                problems.append("matches differ from the in-process search")
            return problems

        w = ",".join(map(str, self.window))
        return [
            Cli("cli classify", ["classify", "--nmax", str(self.cli_nmax), "--json"], 0, _needs_doc(classify_ok)),
            Cli("cli generic", ["generic", "--json"], 0, _needs_doc(generic_ok)),
            Cli(
                "cli solve",
                ["solve", "--window", w, "--bound", str(self.cli_solve_bound), "--json"],
                0,
                _needs_doc(solve_ok),
            ),
        ]


WORKLOADS = {w.name: w for w in (Cycles(), Refine(), Walks())}
