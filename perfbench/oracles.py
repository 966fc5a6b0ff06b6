"""Independent computations the benchmark checks the library against.

Nothing here imports ``quiddity``: every value is derived from first
principles (Burnside's lemma, Catalan numbers, 2x2 integer matrices,
modular arithmetic) or copied from the paper's tables.  Each ``check_*``
function returns a list of problems; an empty list means the result passed.
"""

from __future__ import annotations

from math import comb, gcd

# ---------------------------------------------------------------------------
# counting

#: OEIS A000207, a(k) for k = 0..16: triangulations of a (k+2)-gon up to
#: rotation and reflection.  A quiddity cycle of length n is such a
#: triangulation of an n-gon, so length n has a(n-2) classes.
A000207 = (
    1, 1, 1, 1, 3, 4, 12, 27, 82, 228, 733, 2282, 7528, 24834, 83898,
    285357, 983244,
)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def dihedral_class_count(n: int) -> int:
    """Classes of quiddity cycles of length ``n`` by Burnside's lemma over
    the dihedral group of the n-gon acting on its Catalan(n-2)
    triangulations.  Only rotations of order 1, 2 and 3 fix a triangulation
    (about a central diagonal or a central triangle); a reflection fixes
    some only when its axis passes through a vertex."""
    if n == 2:
        return 1
    fixed = catalan(n - 2)
    if n % 2 == 0:
        half = catalan(n // 2 - 1)
        fixed += (n // 2) * half  # half-turn: one of n/2 central diagonals
        fixed += (n // 2) * 2 * half  # vertex-vertex axes
    else:
        fixed += n * catalan((n - 3) // 2)  # vertex-edge axes
    if n % 3 == 0:
        fixed += 2 * (n // 3) * catalan(n // 3 - 1)  # third-turns
    if fixed % (2 * n):
        raise ArithmeticError(f"Burnside sum {fixed} is not divisible by {2 * n}")
    return fixed // (2 * n)


def class_count(n: int) -> int:
    """A000207 count for length ``n``: the published value where it is
    tabled, Burnside's lemma beyond."""
    return A000207[n - 2] if n - 2 < len(A000207) else dihedral_class_count(n)


def representative_count(n: int) -> int:
    """Distinct linear representatives of all classes of length ``n``: a
    quiddity word determines its labelled triangulation, so this is
    Catalan(n-2)."""
    return catalan(n - 2)


def euler_phi(k: int) -> int:
    return sum(1 for u in range(1, k + 1) if gcd(u, k) == 1)


def jordan3(n: int) -> int:
    """Triples in (Z/n)^3 whose entries and n have gcd 1: the distinct
    root-of-unity triples of level exactly n."""
    return sum(
        1
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if gcd(gcd(gcd(a, b), c), n) == 1
    )


# ---------------------------------------------------------------------------
# words and cycles


def dihedral_orbit(word: tuple) -> set:
    n = len(word)
    out = set()
    for w in (word, word[::-1]):
        for i in range(n):
            out.add(w[i:] + w[:i])
    return out


def eta_product(word) -> tuple:
    """Product of ((a, -1), (1, 0)) over the entries, as (a, b, c, d)."""
    a, b, c, d = 1, 0, 0, 1
    for x in word:
        a, b, c, d = a * x + b, -a, c * x + d, -c
    return (a, b, c, d)


MINUS_I = (-1, 0, 0, -1)


def is_quiddity_word(word) -> bool:
    """Conway-Coxeter: a word of positive integers of length >= 3 is a
    quiddity cycle iff its generator product is -I; (0,0) is the 2-gon."""
    w = tuple(word)
    if len(w) == 2:
        return w == (0, 0)
    return all(x >= 1 for x in w) and eta_product(w) == MINUS_I


def cyclic_occurs(word: tuple, pat: tuple) -> bool:
    """``pat`` is a run of the cyclic word read either way (len <= len)."""
    n, m = len(word), len(pat)
    if m > n:
        return False
    for w in (word, word[::-1]):
        d = w + w[: m - 1]
        if any(d[i : i + m] == pat for i in range(n)):
            return True
    return False


def check_classes(n: int, canons, sample) -> list[str]:
    """Count of classes of length ``n`` against A000207, and for the
    sampled canonical words: lex-least in the dihedral orbit, entry sum
    3(n-2), generator product -I."""
    problems = []
    if len(canons) != class_count(n):
        problems.append(f"length {n}: {len(canons)} classes, A000207 gives {class_count(n)}")
    for w in sample:
        if len(w) != n:
            problems.append(f"length {n}: class {w} has the wrong length")
        elif w != min(dihedral_orbit(w)):
            problems.append(f"length {n}: {w} is not lex-least in its orbit")
        elif sum(w) != 3 * (n - 2):
            problems.append(f"length {n}: {w} has entry sum {sum(w)} != {3 * (n - 2)}")
        elif not is_quiddity_word(w):
            problems.append(f"length {n}: {w} does not multiply to -I")
    return problems


def check_cover_report(report_json: dict, bound: int) -> list[str]:
    """A cover that holds: no violations, and every class up to the bound
    counted once."""
    problems = []
    want = sum(class_count(n) for n in range(2, bound + 1))
    if report_json.get("bound") != bound:
        problems.append(f"bound {report_json.get('bound')} != {bound}")
    if report_json.get("checked") != want:
        problems.append(f"checked {report_json.get('checked')} != A000207 sum {want}")
    if report_json.get("violations"):
        problems.append(f"{len(report_json['violations'])} violations")
    return problems


def check_subseq_report(report_json: dict, bound: int, orbit_sizes: int) -> list[str]:
    """``orbit_sizes`` is the benchmark's own sum of dihedral orbit sizes;
    it and ``checked`` must both equal the sum of Catalan numbers."""
    problems = []
    want = sum(representative_count(n) for n in range(2, bound + 1))
    if orbit_sizes != want:
        problems.append(f"summed orbit sizes {orbit_sizes} != Catalan sum {want}")
    if report_json.get("checked") != orbit_sizes:
        problems.append(f"checked {report_json.get('checked')} != summed orbit sizes {orbit_sizes}")
    if report_json.get("violations"):
        problems.append(f"{len(report_json['violations'])} violations")
    return problems


def check_cover_sample(E: set, F, sample) -> list[str]:
    """Each sampled class outside E strictly contains a pattern of F."""
    problems = []
    for w in sample:
        if w in E:
            continue
        if not any(len(f) < len(w) and cyclic_occurs(w, f) for f in F):
            problems.append(f"{w} contains no pattern of F")
    return problems


# ---------------------------------------------------------------------------
# refinement

#: The paper's first refinement of the trivial cover ({<0,0>,<1,1,1>}, {(1)}).
STEP1_E = {(0, 0), (1, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1, 3), (1, 3, 1, 3, 1, 3)}
STEP1_F = {(1, 2), (2, 1), (1, 3, 1)}


def check_refinement(steps: list[tuple[set, set]]) -> list[str]:
    """``steps`` holds (E, F) as sets of tuples, from the seed pair on."""
    problems = []
    if len(steps) > 1 and steps[1] != (STEP1_E, STEP1_F):
        problems.append("step 1 differs from the paper's example")
    for k in range(1, len(steps)):
        (e0, f0), (e1, f1) = steps[k - 1], steps[k]
        if not min(map(len, f0)) < min(map(len, f1)):
            problems.append(f"step {k}: minimum pattern length did not grow")
        if not e0 <= e1:
            problems.append(f"step {k}: E lost a class")
    for k, (e, f) in enumerate(steps):
        if any(1 not in p for p in f):
            problems.append(f"step {k}: a pattern has no 1")
        bad = [c for c in e if c != min(dihedral_orbit(c)) or not is_quiddity_word(c)]
        if bad:
            problems.append(f"step {k}: {len(bad)} classes of E are not canonical quiddity cycles")
    return problems


# ---------------------------------------------------------------------------
# root-of-unity walks, computed on exponents mod N


def m_value_brute(a_i: int, a: int, n: int):
    """(m, branch) for q_i = z^a_i, q = z^a with z a primitive n-th root, by
    search over m: 1 + q_i + ... + q_i^m = 0 iff q_i != 1 and
    q_i^(m+1) = 1; q_i^m q = 1 iff m a_i + a = 0 mod n.  Ties go to the
    geometric branch; None when neither holds for any m."""
    for m in range(n + 1):
        if a_i % n and ((m + 1) * a_i) % n == 0:
            return (m, "geometric")
        if (m * a_i + a) % n == 0:
            return (m, "power")
    return None


def walk_exponents(n: int, start: tuple, max_steps: int = 100000):
    """The alternating reflection walk on (a1, a, a2) mod n.  Returns
    (window, ends) over one full period, or None for a broken triple."""
    state, parity = tuple(x % n for x in start), 1
    first = (state, parity)
    window, ends = [], []
    for step in range(max_steps):
        a1, a, a2 = state
        mv = m_value_brute(a1, a, n) if parity == 1 else m_value_brute(a2, a, n)
        if mv is None:
            return None
        m = mv[0]
        if parity == 1:
            nxt = (a1, (-2 * m * a1 - a) % n, (m * m * a1 + m * a + a2) % n)
        else:
            nxt = ((a1 + m * a + m * m * a2) % n, (-2 * m * a2 - a) % n, a2)
        window.append(m)
        if nxt == state:
            ends.append(step)
        state, parity = nxt, 3 - parity
        if (state, parity) == first:
            return window, ends
    raise RuntimeError(f"walk from {start} mod {n} did not close")


def lex_least_period(window) -> tuple:
    w = tuple(window)
    n = len(w)
    p = next(p for p in range(1, n + 1) if n % p == 0 and w == w[:p] * (n // p))
    core = w[:p]
    return min(core[i:] + core[:i] for i in range(p))


def period_class(period) -> tuple:
    """A period up to rotation and reversal."""
    p = tuple(period)
    return min(lex_least_period(p), lex_least_period(p[::-1]))


def scalar_exponent(s: dict, n: int) -> int:
    """Exponent of z = e^(2 pi i / n) for a root-of-unity scalar JSON."""
    k, d = s["zeta"]
    if s["qexp"] != 0 or n % d:
        raise ValueError(f"scalar {s} is not in mu_{n}")
    return k * (n // d) % n


def triple_level(t: list) -> int:
    lvl = 1
    for s in t:
        d = s["zeta"][1]
        lvl = lvl * d // gcd(lvl, d)
    return lvl


def triple_exponents(t: list) -> tuple[int, tuple]:
    n = triple_level(t)
    return n, tuple(scalar_exponent(s, n) for s in t)


#: The root-of-unity rows of the paper's table: (row, n, first diagram as
#: exponents of a primitive n-th root, period as printed), and the
#: one-parameter rows with their printed periods.
TABLE_PERIODS = {
    1: (2,), 2: (2,), 3: (2,), 4: (2,), 5: (2,),
    6: (1, 4), 7: (1, 4), 8: (1, 4),
    9: (2, 3, 1, 3), 10: (4, 1, 3, 3, 1), 11: (6, 1, 3, 1),
    12: (2,), 13: (2,), 14: (1, 4),
}

#: Every affine period contains one of these, cyclically, either way.
FIFTEEN_PATTERNS = (
    (1, 2, 2), (1, 2, 3), (1, 2, 4), (2, 1, 3), (2, 1, 4), (2, 1, 5),
    (3, 1, 4), (3, 1, 5), (1, 3, 1, 3),
    (1, 3, 2), (1, 3, 3), (1, 4, 1, 4), (2, 1, 6), (2, 2, 2, 2), (3, 1, 6),
)


def periodic_occurs(period: tuple, pat: tuple) -> bool:
    reps = -(-(len(period) + len(pat)) // len(period))
    return cyclic_occurs(period * reps, pat)


def check_classification(report_json: dict, sample) -> list[str]:
    """All fourteen rows with their printed periods, nothing missing or
    unmatched, walks accounted for, and for sampled orbits the period of
    an independent walk plus the fifteen-pattern condition."""
    problems = []
    orbits = report_json["orbits"]
    rows = {}
    for o in orbits:
        rows.setdefault(o["row_matched"], set()).add(period_class(o["period"]))
    for row, period in TABLE_PERIODS.items():
        if rows.get(row) != {period_class(period)}:
            problems.append(f"row {row}: periods {rows.get(row)} != printed {period}")
    if None in rows:
        problems.append(f"{len([o for o in orbits if o['row_matched'] is None])} orbits match no row")
    if report_json["missing"] or report_json["unmatched"]:
        problems.append("report lists missing or unmatched orbits")
    walks = report_json["broken"] + report_json["non_affine"] + len(orbits)
    if report_json["triples_checked"] != walks:
        problems.append(f"triples_checked {report_json['triples_checked']} != {walks}")
    for o in sample:
        per = period_class(o["period"])
        if not any(periodic_occurs(p, f) for p in (per, per[::-1]) for f in FIFTEEN_PATTERNS):
            problems.append(f"period {per} fails the fifteen-pattern condition")
        n, ex = triple_exponents(o["diagrams"][0])
        res = walk_exponents(n, ex)
        if res is None or period_class(res[0]) != per:
            problems.append(f"orbit of {ex} mod {n}: independent walk disagrees on {per}")
    return problems


def check_generic(report_json: dict, max_order: int) -> list[str]:
    problems = []
    want = 3 * sum(euler_phi(k) for k in range(1, max_order + 1))
    if len(report_json["specializations"]) != want:
        problems.append(f"{len(report_json['specializations'])} specializations != 3*sum(phi) = {want}")
    if report_json["violations"]:
        problems.append(f"{len(report_json['violations'])} violations")
    for row in (12, 13, 14):
        got = report_json["rows"].get(row, report_json["rows"].get(str(row)))
        if got is None or period_class(got["period"]) != period_class(TABLE_PERIODS[row]):
            problems.append(f"generic row {row}: period differs from the table")
    return problems


def solve_brute(window: tuple, bound: int) -> set:
    """(level, exponents, offset) for every root-of-unity triple up to
    ``bound`` and every offset at which its periodic sequence, read from
    the triple's own first reflection, shows ``window``; by independent
    walks."""
    found = set()
    k = len(window)
    for n in range(1, bound + 1):
        for t in ((x, y, z) for x in range(n) for y in range(n) for z in range(n)):
            if gcd(gcd(gcd(t[0], t[1]), t[2]), n) != 1:
                continue  # lives at a lower level
            res = walk_exponents(n, t)
            if res is None:
                continue
            w = res[0]
            tiled = tuple(w) * (-(-(len(w) + k) // len(w)))
            found.update((n, t, i) for i in range(len(w)) if tiled[i : i + k] == window)
    return found


def check_solve(report_json: dict, window: tuple, brute: set) -> list[str]:
    problems = []
    got = {triple_exponents(m["triple"]) + (m["offset"],) for m in report_json["matches"]}
    if got != brute:
        problems.append(
            f"alignments differ from the independent search: {len(got - brute)} extra, "
            f"{len(brute - got)} missing"
        )
    if not any(g[:2] == (9, (6, 8, 6)) for g in got):
        problems.append("the paper's mu_9 triple (6,8,6) is missing")
    if tuple(report_json["window"]) != window:
        problems.append("window echoed wrongly")
    return problems


def check_m_values(pairs, results) -> list[str]:
    """``pairs`` are (n, a_i, a); ``results`` the library's (m, branch) or None."""
    problems = []
    for (n, ai, a), got in zip(pairs, results):
        want = m_value_brute(ai, a, n)
        if got != want:
            problems.append(f"m_value(z{n}^{ai}, z{n}^{a}) = {got}, brute force gives {want}")
    if len(results) != len(pairs):
        problems.append(f"{len(results)} results for {len(pairs)} pairs")
    return problems
