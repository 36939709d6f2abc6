"""The benchmark's four workloads.

Each workload turns ``(seed, round number)`` into a list of queries made of
plain data, runs one query against the layer modules it is handed, and
checks the query's output against the references in :mod:`oracles`, the
frozen files under ``tests/golden`` and the outputs stated in the README.
Every round has the same mix of query kinds; only the inputs change with
the seed, so that run-to-run spread comes from the program, not the mix.
Each mix is laid out so that the median and the workload's tail percentile
fall inside a band of one query kind, not on the edge between two; the
tail percentile is fixed per workload so that a run of the design length
has well over ten samples beyond it.

``check`` yields ``(label, got, expected)`` triples; the runner counts a
query as failed when any pair differs or the check raises.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import oracles as O

HERE = Path(__file__).resolve().parent


def _rng(seed: int, round_no: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_no)


def _random_syllables(rng, max_gen, max_syllables, exponents=(1, -1, 2, -2)):
    return tuple((rng.randint(1, max_gen), rng.choice(exponents))
                 for _ in range(rng.randint(0, max_syllables)))


def _syllable_text(syllables) -> str:
    """Unreduced input text for the word parser, e.g. ``x2^-1 x2 x1^2``."""
    if not syllables:
        return "1"
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in syllables)


def _golden(root: Path, name: str) -> str:
    return (root / "tests" / "golden" / name).read_text(encoding="utf-8")


class SimplicialIdentities:
    """Every face/degeneracy identity on short random elements (the traffic
    of acceptance criterion 01), plus the ``is_cycle`` cross-check against
    normal-closure membership and a print/parse round trip."""

    name = "simplicial-identities"
    layers = ("words", "simplicial")
    # one query per degree, degree 4 twice so the median sits inside a band
    DEGREES = (1, 2, 3, 4, 4, 5, 6)
    nominal_round_s = 0.023
    tail_percentile = 99

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        queries = [(d, _random_syllables(rng, d, 5)) for d in self.DEGREES]
        rng.shuffle(queries)
        return queries

    @staticmethod
    def run(L, q):
        d, syllables = q
        S, W = L.simplicial, L.words
        e = S.element(d, W.reduce_word(syllables))
        faces = [S.face(i, e) for i in range(d + 1)]
        degens = [S.degeneracy(j, e) for j in range(d + 1)]
        broken = 0
        if d >= 2:
            for j in range(d + 1):
                for i in range(j):
                    if S.face(i, faces[j]) != S.face(j - 1, faces[i]):
                        broken += 1
        for i in range(d + 1):
            for j in range(i, d + 1):
                if S.degeneracy(i, degens[j]) != S.degeneracy(j + 1, degens[i]):
                    broken += 1
        for j in range(d + 1):
            for i in range(d + 2):
                if i < j:
                    rhs = S.degeneracy(j - 1, faces[i])
                elif i <= j + 1:
                    rhs = e
                else:
                    rhs = S.degeneracy(j, faces[i - 1])
                if S.face(i, degens[j]) != rhs:
                    broken += 1
        cycle = S.is_cycle(e)
        closures = [W.in_normal_closure(e.word, i) for i in range(1, d + 1)]
        text = W.print_word(e.word)
        return e, faces, degens, broken, cycle, closures, text, W.parse_word(text)

    @staticmethod
    def check(q, out):
        d, syllables = q
        e, faces, degens, broken, cycle, closures, text, back = out
        letters = O.reduce_letters(O.letters_of(syllables))
        yield "element", (e.degree, O.letters_of(e.word.syllables)), (d, letters)
        yield "identities", broken, 0
        for i in range(d + 1):
            yield (f"face {i}", (faces[i].degree, O.letters_of(faces[i].word.syllables)),
                   (d - 1, O.face(i, letters, d)))
            yield (f"degeneracy {i}",
                   (degens[i].degree, O.letters_of(degens[i].word.syllables)),
                   (d + 1, O.degeneracy(i, letters, d)))
        yield "is_cycle", cycle, O.is_cycle(letters, d)
        yield ("is_cycle vs normal closure", cycle,
               all(closures) and not O.face(d, letters, d))
        yield "print_word", text, O.print_letters(letters)
        yield "parse_word", O.letters_of(back.syllables), letters


# Syllable counts of the tower words, frozen from the seed commit.
TOWER_SYLLABLES = {2: 5, 3: 28, 4: 120, 5: 502, 6: 2040, 7: 8062}
# Lower-central class of eta_tower(k), measured with the full expansion.
TOWER_CLASS = {3: 4, 4: 8}


def _sample_seed(rng, d: int) -> int:
    """A ``symmetric_commutator_sample`` seed whose conjugators all have at
    most one syllable, so sample sizes stay in a narrow band."""
    fact = 1
    for i in range(2, d + 2):
        fact *= i
    choices = 4 * d
    conj_count = sum(choices ** n for n in range(5))
    value = 0
    for _ in range(d + 1):
        value = (value * conj_count + rng.randrange(1 + choices)) * 2 \
            + rng.randrange(2)
    return value * fact + rng.randrange(fact)


class TowerMagnus:
    """Few long words with a heavy tail: tower words, lower-central
    certificates by full Magnus expansion, reduced expansions and Milnor-type
    coefficients of seeded cycles, and the invisibility desk checks."""

    name = "tower-magnus"
    layers = ("words", "simplicial", "magnus")
    nominal_round_s = 3.3
    tail_percentile = 95

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.golden = {name: _golden(root, f"{name}.txt") for name in
                       ("tower2", "tower3", "tower4", "meridian4", "meridian5")}
        # the gamma and reduced queries parse the frozen tower words
        self.tower_text = {k: self.golden[f"tower{k}"].split("word=", 1)[1].strip()
                           for k in (3, 4)}

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        queries = [("tower", k) for k in range(2, 8)]
        queries += [("meridian", k) for k in (4, 5)]
        queries += [("gamma", 3, t) for t in (4, 5, 6, 7)]
        queries += [("gamma", 4, t) for t in (5, 6, 7, 7, 7)]
        queries += [("reduced-tower", t) for t in (4, 5, 5, 6, 6, 7, 7)]
        for d in (2, 3, 4, 5):
            for _ in range(2):
                queries.append(("sample", d, _sample_seed(rng, d),
                                tuple(rng.sample(range(1, d + 1), d))))
        queries += [("variant", 3), ("variant", 4), ("invisibility", 4), ("invisibility", 5)]
        rng.shuffle(queries)
        return queries

    def run(self, L, q):
        S, M, W = L.simplicial, L.magnus, L.words
        kind = q[0]
        if kind == "tower":
            e = S.eta_tower(q[1])
            return e, S.is_cycle(e)
        if kind == "meridian":
            return S.meridian_word(q[1])
        if kind == "gamma":
            return M.gamma_class_lower_bound(W.parse_word(self.tower_text[q[1]]), q[2])
        if kind == "reduced-tower":
            return M.reduced_expand(W.parse_word(self.tower_text[4]), q[1])
        if kind == "sample":
            _, d, seed, indices = q
            e = S.symmetric_commutator_sample(d, seed)
            return (e, S.is_cycle(e), M.reduced_expand(e.word, d),
                    M.mu_coefficient(e.word, indices))
        if kind == "variant":
            v = S.VARIANT_ETA_DEGREE3 if q[1] == 3 else S.VARIANT_ETA_DEGREE4
            indices = tuple(range(1, q[1] + 1))
            return (v, S.is_cycle(v), M.reduced_expand(v.word, q[1]),
                    M.mu_coefficient(v.word, indices))
        return M.milnor_invisibility_report(q[1])

    def check(self, q, out):
        kind = q[0]
        if kind == "tower":
            k = q[1]
            e, cycle = out
            yield "tower degree", e.degree, k
            yield "tower syllables", len(e.word.syllables), TOWER_SYLLABLES[k]
            yield "tower is_cycle", cycle, True
            letters = O.letters_of(e.word.syllables)
            if k <= 4:
                yield ("tower golden", f"degree={k}; word={O.print_letters(letters)}\n",
                       self.golden[f"tower{k}"])
            if k <= 5:
                yield "tower cycle oracle", O.is_cycle(letters, k), True
        elif kind == "meridian":
            letters = O.letters_of(out.word.syllables)
            yield ("meridian golden", O.print_letters(letters, "a") + "\n",
                   self.golden[f"meridian{q[1]}"])
        elif kind == "gamma":
            _, k, t = q
            yield "gamma class", out, TOWER_CLASS[k] if t >= TOWER_CLASS[k] else None
        elif kind == "reduced-tower":
            yield "reduced tower trivial", dict(out.terms), {(): 1}
        elif kind in ("sample", "variant"):
            e, cycle, reduced, mu = out
            d = q[1]
            indices = q[3] if kind == "sample" else tuple(range(1, d + 1))
            letters = O.letters_of(e.word.syllables)
            is_sample = kind == "sample"
            yield f"{kind} is_cycle", cycle, is_sample
            yield f"{kind} cycle oracle", O.is_cycle(letters, d), is_sample
            # both kinds lie deep enough in the lower central series that no
            # distinct-index monomial of length <= degree survives
            yield f"{kind} reduced expansion", dict(reduced.terms), {(): 1}
            yield f"{kind} mu vs Fox DP", mu, O.magnus_coefficient(letters, indices)
        else:
            yield "invisibility checks", [c.passed for c in out.checks], [True] * 3
            yield ("invisibility variant checks",
                   [c.passed for c in out.variant_checks], [False, True, True])


# pi_n(S^3) for the strongly nonsplittable n-component classification.
PI_N_S3 = {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12", 7: "Z/2", 8: "Z/2"}
# The package's builtin pi_n(S^m) entries, as classical facts.
BUILTIN_PI = {(3, 2): "Z", (4, 2): "Z/2", (5, 2): "Z/2",
              (4, 3): "Z/2", (5, 3): "Z/2", (6, 3): "Z/12"}
NOT_CLASSIFIED = "not classified by implemented theorems"
PROFILE_KINDS = ("hopf", "trivial", "brunnian", "random")


def _preset_nu(kind: str, n: int) -> dict:
    nu = {}
    for r in range(n + 1):
        for sub in combinations(range(1, n + 1), r):
            s = frozenset(sub)
            if not s:
                nu[s] = -1
            elif kind == "hopf":
                nu[s] = 0
            elif kind == "trivial":
                nu[s] = len(s) - 1
            else:
                nu[s] = 0 if len(s) == n else len(s) - 1
    return nu


def _random_nu(rng, n: int) -> dict:
    """A preset with a few random overrides that the oracle accepts as
    realizable, so that no ``classify_A`` call raises."""
    while True:
        nu = _preset_nu(rng.choice(PROFILE_KINDS[:3]), n)
        for _ in range(rng.randint(1, 3)):
            s = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n)))
            nu[s] = rng.randint(0, len(s) - 1)
        if O.realizability_violations(nu, n) == 0:
            return nu


def _render_profile(n: int, kind: str, nu: dict) -> str:
    lines = [f"components {n}"]
    if kind != "random":
        lines.append(f"preset {kind}")
    else:
        for s, genus in sorted(nu.items(), key=lambda item: (len(item[0]), sorted(item[0]))):
            token = "empty" if not s else ",".join(map(str, sorted(s)))
            lines.append(f"nu {token} {genus}")
    return "\n".join(lines) + "\n"


def _classify_pairs(n: int) -> list:
    """Every (L0, sub) with disjoint parts and at least two sub components."""
    pairs = []
    for roles in product((0, 1, 2), repeat=n):
        l0 = frozenset(i + 1 for i, role in enumerate(roles) if role == 1)
        sub = frozenset(i + 1 for i, role in enumerate(roles) if role == 2)
        if len(sub) >= 2:
            pairs.append((l0, sub))
    return pairs


def _parse_table(path: Path) -> dict:
    table = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        fields = raw.split()
        if fields and fields[0] == "pi":
            table[(int(fields[1]), int(fields[2]))] = fields[3]
    return table


class ClassifyWedges:
    """Splitting profiles of 3..8 components rendered to the profile format,
    parsed, and run through every invariant and every ``classify_A`` pair,
    mixed with ``hilton_pi`` on wedges of 2-3 spheres.  No word arithmetic."""

    name = "classify-wedges"
    layers = ("homotopy", "links")
    SIZES = (3, 4, 5, 6, 7, 8)
    HILTON = ((2, 4), (2, 5), (2, 6), (2, 10), (2, 14), (3, 4), (3, 5), (3, 8), (3, 11))
    TABLE = HERE / "data" / "homotopy_table.txt"
    nominal_round_s = 0.55
    tail_percentile = 98

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.pairs = {n: _classify_pairs(n) for n in self.SIZES}
        self.known = {**BUILTIN_PI, **_parse_table(self.TABLE)}

    def prepare(self, L):
        """The user table, loaded once before the first query."""
        table = L.homotopy.HomotopyTable()
        table.load_file(str(self.TABLE))
        self.table = table

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        queries = []
        for n in self.SIZES:
            for kind in PROFILE_KINDS:
                nu = _random_nu(rng, n) if kind == "random" else _preset_nu(kind, n)
                queries.append(("profile", n, kind, nu, _render_profile(n, kind, nu)))
        for count, degree in self.HILTON:
            dims = tuple(rng.randint(2, 4) for _ in range(count))
            queries.append(("hilton", dims, degree))
        rng.shuffle(queries)
        return queries

    def run(self, L, q):
        if q[0] == "hilton":
            _, dims, n = q
            H = L.homotopy
            return (H.hilton_pi(n, dims, self.table),
                    H.lyndon_words(len(dims), n - 1))
        _, n, _, _, text = q
        K = L.links
        p = K.parse_profile(text)
        findings = K.realizability_findings(p)
        chi2s = {(i, j): K.chi2(p, i, j) for i, j in combinations(range(1, n + 1), 2)}
        chi3s = {t: K.chi3(p, *t) for t in combinations(range(1, n + 1), 3)}
        deleted = {k: K.delete_component(p, k) for k in range(3, n + 1)}
        chi2_deleted = {(i, j, k): K.chi2(deleted[k], i, j)
                        for i, j, k in combinations(range(1, n + 1), 3)}
        results = [K.classify_A(p, l0, sub, self.table) for l0, sub in self.pairs[n]]
        return p, findings, chi2s, chi3s, chi2_deleted, results

    def check(self, q, out):
        if q[0] == "hilton":
            yield from self._check_hilton(q, out)
            return
        _, n, kind, nu, _ = q
        p, findings, chi2s, chi3s, chi2_deleted, results = out
        full = frozenset(range(1, n + 1))
        yield "parsed profile", (p.size, dict(p.nu)), (n, nu)
        yield "realizability findings", len(findings), O.realizability_violations(nu, n)
        yield "chi2", chi2s, {(i, j): O.nu_chi2(nu, full, i, j) for i, j in chi2s}
        yield "chi3", chi3s, {t: O.nu_chi3(nu, full, *t) for t in chi3s}
        yield ("chi3 = chi2(delete k) - chi2", chi3s,
               {(i, j, k): chi2_deleted[i, j, k] - chi2s[i, j] for i, j, k in chi3s})
        lines = [result.main_line() for result in results]
        yield ("classified flag", [r.classified for r in results],
               [line != NOT_CLASSIFIED for line in lines])
        if kind != "random":
            expected = [self._preset_line(kind, n, l0, sub) for l0, sub in self.pairs[n]]
            yield f"{kind} classification", lines, expected

    @staticmethod
    def _preset_line(kind: str, n: int, l0: frozenset, sub: frozenset) -> str:
        full = frozenset(range(1, n + 1))
        if kind == "hopf":
            if not l0 and sub == full:
                return f"pi_{n}(S^3) = {PI_N_S3[n]}"
            return "0 (trivial)"
        if len(sub) == 2:
            return "0 (trivial)"
        if len(sub) != 3 or l0 != full - sub:
            return NOT_CLASSIFIED
        if kind == "trivial":
            return "0 (trivial)"  # chi3 = 0: no spheres, and pi_3 of K(G,1) is 0
        if n == 3:
            return "pi_3(S^2 v S^2) = Z + Z + Z"
        labels = ",".join(map(str, sorted(sub)))
        spheres = " v ".join(["S^2"] * (n - 1))
        return f"pi_3(K(G(d_{{{labels}}}L),1) v {spheres})"

    def _check_hilton(self, q, out):
        _, dims, n = q
        group, lyndon = out
        per_length = Counter(len(w) for w in lyndon)
        yield ("lyndon counts vs Witt", dict(per_length),
               {length: O.witt_count(len(dims), length) for length in range(1, n)})
        yield "lyndon words distinct", len(set(lyndon)), len(lyndon)
        expected: Counter[str] = Counter()
        for dim, mult in O.wedge_sphere_dims(n, sorted(dims)).items():
            token = "Z" if dim == n else self.known.get((n, dim))
            if token is None:
                atoms = [f"pi_{n}(S^{dim}) [unknown]"]
            else:
                atoms = [piece for piece in token.split("+") if piece != "0"]
            for atom in atoms:
                expected[atom] += mult
        text = group.render(mark_unknown=True)
        yield "hilton summands", Counter(text.split(" + ")) if text != "0" else Counter(), expected


class Cli:
    """The README command lines, each run as a fresh process against
    ``tests/data``; words that the commands act on are seeded."""

    name = "cli"
    layers = ("cli",)
    nominal_round_s = 2.7
    tail_percentile = 90

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.root = root
        self.child_peak_rss_mb = 0.0
        self.golden = {name: _golden(root, f"{name}.txt") for name in
                       ("tower2", "tower3", "tower4", "meridian4", "meridian5")}

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        reduce_in = _random_syllables(rng, 3, 6, (1, -1))
        a, b = _random_syllables(rng, 3, 3), _random_syllables(rng, 3, 3)
        face_degree = rng.randint(1, 4)
        face_in = _random_syllables(rng, face_degree, 5)
        face_index = rng.randint(0, face_degree)
        k, m = rng.randint(2, 4), rng.randint(4, 5)
        letters = O.letters_of
        queries = [
            (("word", "reduce", _syllable_text(reduce_in)),
             O.print_letters(O.reduce_letters(letters(reduce_in)))),
            (("word", "parse", "[x1*x2, x1]"), "x1 x2 x1 x2^-1 x1^-2"),
            (("word", "commutate", _syllable_text(a), _syllable_text(b)),
             O.print_letters(O.reduce_letters(
                 letters(a) + letters(b) + O.inverse_letters(letters(a))
                 + O.inverse_letters(letters(b))))),
            (("hatf", "tower", str(k)), self.golden[f"tower{k}"].rstrip("\n")),
            (("hatf", "cycle", "--degree", "2", "[x1*x2, x1]"), "true"),
            (("hatf", "face", "--degree", str(face_degree), "-i", str(face_index),
              _syllable_text(face_in)),
             f"degree={face_degree - 1}; word=" + O.print_letters(O.face(
                 face_index, O.canonical(letters(face_in), face_degree), face_degree))),
            (("hatf", "eta", "--degree", "1", "x1"), self.golden["tower2"].rstrip("\n")),
            (("hatf", "meridian", str(m)), self.golden[f"meridian{m}"].rstrip("\n")),
            (("magnus", "expand", "[x1,x2]", "--trunc", "2"), "1 + X1X2 - X2X1"),
            (("magnus", "gamma", "[[x1,x2],[x1,x3]]", "--trunc", "3"), ">= 4"),
            (("magnus", "mu", "[x1,x2]", "1,2"), "1"),
            # twice each: the slowest commands, so the tail percentile
            # falls inside their band
            (("magnus", "verify51", "4"), "PASS\nPASS\nPASS"),
            (("magnus", "verify51", "4"), "PASS\nPASS\nPASS"),
            (("magnus", "verify51", "4", "--variant"),
             "PASS\nPASS\nPASS\nvariant: FAIL\nvariant: PASS\nvariant: PASS"),
            (("magnus", "verify51", "4", "--variant"),
             "PASS\nPASS\nPASS\nvariant: FAIL\nvariant: PASS\nvariant: PASS"),
            (("link", "chi3", "--profile", "tests/data/brunnian3.lnk", "1", "2", "3"), "2"),
            (("link", "classify", "--profile", "tests/data/hopf4.lnk", "--L0", "empty",
              "--sub", "full"), "pi_4(S^3) = Z/2"),
            (("link", "check", "--profile", "tests/data/hopf3.lnk"), "ok"),
            (("spheres", "pi", "6", "3"), "Z/12"),
            (("spheres", "wedge", "3", "2,2"), "Z + Z + Z"),
        ]
        rng.shuffle(queries)
        return queries

    def run(self, L, q):
        out = L.cli.run(self.root, q[0])
        self.child_peak_rss_mb = max(self.child_peak_rss_mb, out[2])
        return out

    @staticmethod
    def check(q, out):
        argv, expected = q
        code, stdout, _ = out
        yield "exit code", code, 0
        text = stdout.decode("utf-8").rstrip("\n")
        if argv[1] == "verify51":
            # the README states the verdicts; the detail after them is prose
            text = "\n".join(line.split(" ", 1)[0] if not line.startswith("variant: ")
                             else " ".join(line.split(" ", 2)[:2])
                             for line in text.split("\n"))
        yield "stdout", text, expected


def run_cli(root: Path, argv) -> tuple[int, bytes, float]:
    """One ``python -m linkhomotopy`` process: exit code, stdout and the
    child's peak resident memory in MB, read from its own ``wait4`` usage."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "linkhomotopy", *argv], cwd=root,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (SimplicialIdentities, TowerMagnus, ClassifyWedges, Cli)}
