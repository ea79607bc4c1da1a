"""The three workloads and the hand-written table of expected answers.

Every expected value below is derived from the paper's statements and the
acceptance criteria, never captured from the program's output; the
derivations are in README.md next to this file.  A request is decided when
its exit code, its verdicts and its outputs all match this table.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from inputs import RESCALE

# `naryalg gen` arguments of every base fixture, keyed by file stem.
FIXTURES = {
    "a4": ["--family", "A", "--n", "3"],
    "a5": ["--family", "A", "--n", "4"],
    "a6": ["--family", "A", "--n", "5"],
    "a7": ["--family", "A", "--n", "6"],
    "a8": ["--family", "A", "--n", "7"],
    "a13": ["--family", "Apq", "--signature=-1,1,1,1"],
    "cs4": ["--family", "cs-so4"],
    "a4sum": ["--family", "a4sum"],
    "zero43": ["--family", "zero", "--n", "3", "--d", "4"],
}

T, F = True, False
# `check --suite all` verdicts.  Simple algebras A_d (arity n = d-1): FI,
# skew, metricity, fullanti and symmetry hold; the cyclic sum is n*f for odd
# n and 0 for even n; genmetric needs the lowered constants to be symmetric
# under exchanging their two (n'-1)-blocks (n' = (n+3)/2), a permutation of
# sign (-1)^(n'-1); the bracket is pure r = 0, so lple (which asks for purity
# at r = n'-2) fails.
ALL_A4 = {"filippov": T, "skew": T, "metricity": T, "fullanti": T, "cyclic": F,
          "nple": F, "nondegenerate": T, "symmetry": T, "triple": F,
          "genmetric": T, "lple": F}
ALL_A5 = {"filippov": T, "skew": T, "metricity": T, "fullanti": T, "cyclic": T,
          "nple": T, "nondegenerate": T, "symmetry": T}
ALL_A6 = {"filippov": T, "skew": T, "metricity": T, "fullanti": T, "cyclic": F,
          "nple": F, "nondegenerate": T, "symmetry": T, "genmetric": F, "lple": F}
ALL_CS4 = {"filippov": T, "skew": F, "metricity": T, "fullanti": F, "cyclic": T,
           "nple": T, "nondegenerate": T, "symmetry": T, "triple": T,
           "genmetric": T, "lple": T}
ALL_ZERO = {"filippov": T, "skew": T, "metricity": T, "fullanti": T, "cyclic": T,
            "nple": T, "nondegenerate": F, "symmetry": T, "triple": T,
            "genmetric": T, "lple": T}


def _verdicts(expected: dict):
    """Check a `check` report on stdout against {check name: passed}."""
    def verify(stdout: str, work) -> list:
        report = json.loads(stdout)
        got = {c["name"]: c["passed"] for c in report["checks"]}
        problems = [f"{name}: expected {'pass' if want else 'FAIL'}, got "
                    f"{'missing' if name not in got else 'pass' if got[name] else 'FAIL'}"
                    for name, want in expected.items() if got.get(name) != want]
        problems += [f"unexpected check {name}" for name in got if name not in expected]
        if report["passed"] != all(expected.values()):
            problems.append(f"overall passed={report['passed']}")
        return problems
    return verify


def _stdout_json(expected: dict):
    def verify(stdout: str, work) -> list:
        got = json.loads(stdout)
        return [f"{key}: expected {want!r}, got {got.get(key)!r}"
                for key, want in expected.items() if got.get(key) != want]
    return verify


def _load(work, name) -> dict:
    with open(work / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _header(obj: dict, expected: dict) -> list:
    return [f"{key}: expected {want!r}, got {obj.get(key)!r}"
            for key, want in expected.items() if obj.get(key) != want]


def _seven_leibniz(stdout: str, work) -> list:
    """compose(A8, a4-sum-a4): g_{A b d} = 2 f_A^{xy} h_{b d y x} where {x, y}
    is the complement of A; {x, y} and {b, d} fill one A4 block, so there are
    12 planes * 6! orderings * 2 orderings of (b, d) = 17,280 entries of +-2."""
    obj = _load(work, "seven.json")
    problems = _header(obj, {"dim": 8, "arity": 7})
    entries = obj["entries"]
    if len(entries) != 17_280:
        problems.append(f"{len(entries)} entries, expected 17280")
    bad = [e for e in entries if e["val"] not in ("2", "-2")]
    if bad:
        problems.append(f"{len(bad)} entries not +-2, first {bad[0]}")
    return problems


def _cs_so4(stdout: str, work) -> list:
    """compose(A4, A4, prefactor 1/2) is cs-so4 (criterion 03), which is
    O(4)-invariant and so the same in every signed-permutation basis:
    [e_a, e_b, e_a] = -e_b and [e_a, e_b, e_b] = e_a for a != b."""
    obj = _load(work, "cs.json")
    problems = _header(obj, {"dim": 4, "arity": 3})
    want = {}
    for a, b in itertools.permutations(range(1, 5), 2):
        want[(a, b, a, b)] = "-1"
        want[(a, b, b, a)] = "1"
    got = {tuple(e["in"]) + (e["out"],): e["val"] for e in obj["entries"]}
    diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if diff:
        problems.append(f"{len(diff)} entries differ from cs-so4, first at {diff[0]}")
    return problems


def _parity(seq) -> int:
    inv = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def _kasymov_simple(name: str, d: int):
    """Kasymov form of a rescaled simple algebra A_d (criterion 04):
    k(J, K) = -2 sgn(J -> K) prod_{j in J} c_j^2 when J and K order the same
    (d-2)-set, else 0; C(d, 2) * ((d-2)!)^2 entries."""
    def verify(stdout: str, work) -> list:
        obj = _load(work, name)
        slots = 2 * (d - 2)
        problems = _header(obj, {"dim": d, "slots": slots})
        entries = obj["entries"]
        count = math.comb(d, 2) * math.factorial(d - 2) ** 2
        if len(entries) != count:
            problems.append(f"{len(entries)} entries, expected {count}")
        for ent in entries:
            idx = ent["in"]
            J, K = idx[: d - 2], idx[d - 2:]
            if sorted(J) != sorted(K) or len(set(J)) != d - 2:
                problems.append(f"entry at {idx} outside the support")
                break
            order = {j: pos for pos, j in enumerate(J)}
            scale = math.prod(RESCALE[j - 1] ** 2 for j in J)
            want = -2 * _parity([order[k] for k in K]) * scale
            if ent["val"] != str(want):
                problems.append(f"entry at {idx} is {ent['val']}, expected {want}")
                break
        return problems
    return verify


@dataclass(frozen=True)
class Request:
    argv: tuple
    exit_code: int
    verify: object = None     # (stdout, work dir) -> list of problems
    outputs: tuple = ()       # files the request writes, hashed on later passes

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple           # file stems the program sees
    shared_basis: bool        # one basis change per dimension, else per file
    rescale: bool             # integer rescaling e_i -> c_i e_i
    nominal_pass_s: float     # one pass at the seed; sets the pass count
    requests: tuple = field(default_factory=tuple)


def _check(stem, suite, expected, *extra):
    code = 0 if all(expected.values()) else 1
    return Request(("check", f"{stem}.json", "--suite", suite) + extra, code,
                   _verdicts(expected))


WORKLOADS = {w.name: w for w in (
    Workload(
        "readme-session", ("a8", "a4sum", "a4"), shared_basis=True, rescale=False,
        nominal_pass_s=7.2,
        requests=(
            Request(("compose", "--l1", "a8.json", "--l2", "a4sum.json",
                     "--metric", "euclid", "-o", "seven.json"), 0,
                    _seven_leibniz, ("seven.json",)),
            _check("seven", "filippov,nple", {"filippov": T, "nple": T}),
            Request(("compose", "--l1", "a4.json", "--l2", "a4.json", "--metric",
                     "euclid", "--prefactor", "1/2", "-o", "cs.json"), 0,
                    _cs_so4, ("cs.json",)),
            _check("cs", "triple,lple", {"triple": T, "lple": T}),
        ),
    ),
    Workload(
        "suite-sweep",
        ("a4", "a5", "a6", "a13", "cs4", "a4sum", "zero43", "a7", "a8"),
        shared_basis=False, rescale=False, nominal_pass_s=8.1,
        requests=(
            _check("a4", "all", ALL_A4),
            _check("a5", "all", ALL_A5),
            _check("a6", "all", ALL_A6),
            _check("a13", "all", ALL_A4),
            _check("cs4", "all", ALL_CS4),
            _check("a4sum", "all", ALL_A4),
            _check("zero43", "all", ALL_ZERO),
            _check("a4", "metricity", {"metricity": F}, "--metric", "lorentz:1,3"),
            _check("a7", "filippov,skew,metricity,fullanti,cyclic,nple",
                   {"filippov": T, "skew": T, "metricity": T, "fullanti": T,
                    "cyclic": T, "nple": T}),
            # so(8) again, and kernel = d^(n-1) - span = 8^6 - 28.  Today ad_kernel
            # refuses its 8^6 unknowns (over its 20,000 cap) with exit 3, which
            # counts as refused, not as a wrong answer.
            Request(("liealg", "a8.json", "--kernel"), 0,
                    _stdout_json({"closure_dim": 28, "from_generators": 28,
                                  "kernel_dim": 8 ** 6 - 28})),
        ),
    ),
    Workload(
        "forms-closure", ("a6", "a7", "a8"), shared_basis=False, rescale=True,
        nominal_pass_s=8.9,
        requests=(
            _check("a7", "nondegenerate", {"nondegenerate": T}),
            Request(("kasymov", "a7.json", "-o", "k7.json"), 0,
                    _kasymov_simple("k7.json", 7), ("k7.json",)),
            Request(("mixed", "a6.json", "a6.json", "-o", "m6.json"), 0,
                    _kasymov_simple("m6.json", 6), ("m6.json",)),
            # so(8): d(d-1)/2 = 28, and the 28 basis adjoints already span it.
            Request(("liealg", "a8.json"), 0,
                    _stdout_json({"closure_dim": 28, "from_generators": 28})),
            # kernel = d^(n-1) - span = 6^4 - 15 = 1281; a simple algebra has no centre.
            Request(("liealg", "a6.json", "--kernel", "--centre"), 0,
                    _stdout_json({"closure_dim": 15, "from_generators": 15,
                                  "kernel_dim": 1281, "centre_dim": 0,
                                  "centre_basis": []})),
            # l = 5: pure r = 0; GL(6) dimensions of (1^5), (2,1^3), (2^2,1)
            # by the hook-content formula are 6, 84 and 210.
            Request(("young", "classify", "a6.json"), 0,
                    _stdout_json({"l": 5, "components": [
                        {"r": 0, "nonzero": True, "gl_dim": 6},
                        {"r": 1, "nonzero": False, "gl_dim": 84},
                        {"r": 2, "nonzero": False, "gl_dim": 210},
                    ]})),
        ),
    ),
)}
