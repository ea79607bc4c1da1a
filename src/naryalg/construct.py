"""Builders: the trace-form (n+m-3)-bracket, its corollaries, the
triple-system-from-rotations map, and the named fixtures.

The core construction takes an n-Leibniz algebra L1 and a metric m-Leibniz
algebra L2 on the same space and defines a (n+m-3)-bracket through
<[X1..X_{n-1}, Y1..Y_{m-2}], Y_{m-1}> = Tr(ad1_X ad2_Y); in coordinates the
lowered constants are g_{A B d} = Tr(ad1_A ad2_{B d}), the mixed trace form,
so the metric only raises the last slot.  The bracket is built once per
orbit, like the form.  Preconditions (symmetry property and metricity of
L2, derivation property of ad2 on L1) are verified before building unless
the caller explicitly forces an unverified construction.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import linalg
from .algebra import (
    CheckReport,
    Metric,
    NaryAlgebra,
    _group_ad,
    all_of,
    check_derivation,
    check_filippov,
    check_metricity,
    check_skew,
    check_symmetry_property,
    direct_sum,
    simple_filippov,
    zero_algebra,
)
from .forms import _trace_orbits
from .tensor import (
    RationalTensor,
    ShapeError,
    _acc,
    _Record,
    guard,
    levi_civita,
    raise_lower,
    scale,
)


class ConstructionError(ValueError):
    """A builder precondition failed; carries the failing CheckReport."""

    def __init__(self, report: CheckReport):
        super().__init__(f"precondition {report.name} failed (witness {report.witness})")
        self.report = report


class UnknownFixtureError(ValueError):
    pass


class ConstructionInput(_Record):
    __slots__ = ("l1", "l2", "metric", "prefactor")

    def __init__(self, l1: NaryAlgebra, l2: NaryAlgebra, metric: Metric,
                 prefactor: Fraction = Fraction(1)):
        if l1.d != l2.d:
            raise ShapeError(f"dimension mismatch {l1.d} != {l2.d}")
        if metric.d != l1.d:
            raise ShapeError("metric dimension mismatch")
        self.l1, self.l2, self.metric, self.prefactor = l1, l2, metric, prefactor


def schouten_residual(l2: NaryAlgebra) -> RationalTensor:
    """Expansion of antisymmetrizing n+2 index labels over d = n+1 values.

    With eps of rank d and h the constants of l2 (m-th input raised, output
    lowered), the entry at (b1..b_{m-1}, s, a1..an) is
    h_b^l_s eps_{a1..an l} - sum_r h_b^l_{a_r} eps_{a1..s..an l} - h_b^l_l eps_{a1..an s},
    the n+2-term cyclic reduction of eps_{[a1..an l} h^l_{s]}; it vanishes
    identically because n+2 labels cannot all differ in n+1 dimensions.
    """
    d = l2.d
    n = d - 1
    metric = l2.require_metric()
    eps = levi_civita(d)
    low = l2.lowered(metric)
    hl = raise_lower(low, l2.n, metric, "raise")  # slots (B, l, s)
    m = l2.n
    rows = _group_ad(hl.data)
    eps_by_last: dict = {}
    for key, val in eps.data.items():
        eps_by_last.setdefault(key[-1], []).append((key[:-1], val))
    guard(len(rows) * eps.nnz * (n + 2), "schouten_residual")
    out: dict = {}
    for b_tuple, mat in sorted(rows.items()):
        acc: dict = {}
        trace = 0
        for l, row in mat.items():
            trace += row.get(l, 0)
            for a_tuple, ev in eps_by_last.get(l, ()):
                for s, v in row.items():
                    _acc(acc, (s,) + a_tuple, v * ev)
                for r in range(n):
                    s = a_tuple[r]
                    for x, v in row.items():
                        replaced = a_tuple[:r] + (x,) + a_tuple[r + 1:]
                        _acc(acc, (s,) + replaced, -v * ev)
        if trace != 0:
            for key, ev in eps.data.items():
                _acc(acc, (key[-1],) + key[:-1], -trace * ev)
        for key, val in acc.items():
            out[b_tuple + key] = val
    return RationalTensor((d,) * (m + n + 1), out)


def _require(report: CheckReport) -> None:
    if not report.passed:
        raise ConstructionError(report)


def associated_leibniz(inp: ConstructionInput, force: bool = False) -> NaryAlgebra:
    """The (n+m-3)-Leibniz algebra of the trace-form construction.

    Lowered constants are prefactor * Tr(ad1_A ad2_{B d}); the output passes
    the FI and is metric whenever the verified preconditions hold.  Raising
    the form's last slot is raising h's input slot m-1, so the metric inverse
    and the prefactor act on h before the contraction, and the bracket is an
    OrbitTensor: skew on X's runs and on Y's runs within slots 1..m-2.
    """
    l1, l2, metric = inp.l1, inp.l2, inp.metric
    if not force:
        _require(check_symmetry_property(l2, metric))
        _require(check_metricity(l2, metric))
        _require(check_derivation(l1, l2))
    arity = l1.n + l2.n - 3
    if arity < 2:
        raise ShapeError(f"resulting arity {arity} < 2")
    m = l2.n
    h = RationalTensor._trusted(l2.f.shape, l2.orbit_part(1, m - 2))
    h = raise_lower(h, m - 1, metric, "raise")
    if inp.prefactor != 1:
        h = scale(h, inp.prefactor)
    galg = _trace_orbits(l1, l2, h, m - 2)
    name = f"assoc({l1.name},{l2.name})"
    out = NaryAlgebra(name, l1.d, arity, galg, metric)
    out.verified = not force
    return out


def corollary_self(lt: NaryAlgebra, metric: Metric | None = None,
                   prefactor=1, force: bool = False) -> NaryAlgebra:
    """Self-paired construction: a (2n-3)-bracket from one metric algebra.

    Requires the input bracket to be skew in its first n-1 arguments and to
    satisfy the symmetry property; the derivation condition is its own FI.
    """
    metric = lt.require_metric(metric)
    if not force:
        _require(check_skew(lt, range(1, lt.n)))
    out = associated_leibniz(
        ConstructionInput(lt, lt, metric, Fraction(prefactor)), force=force
    )
    out.name = f"corollary-self({lt.name})"
    return out


def check_cs3(L: NaryAlgebra, metric: Metric | None = None) -> CheckReport:
    """Definition check for the CS-type 3-algebras: metric 3-Leibniz with the
    pair-exchange symmetry property."""
    if L.n != 3:
        return CheckReport("cs", False, (0,), None, detail=f"arity {L.n} != 3")
    return all_of("cs", [
        check_metricity(L, metric),
        check_symmetry_property(L, metric),
        check_filippov(L),
    ])


def corollary_cs3(l1: NaryAlgebra, cs3: NaryAlgebra,
                  metric: Metric | None = None, prefactor=1,
                  force: bool = False) -> NaryAlgebra:
    """Construction against a CS 3-algebra; output arity equals l1's."""
    metric = cs3.require_metric(metric) if metric is None else metric
    if not force:
        _require(check_cs3(cs3, metric))
        _require(check_skew(l1, range(1, l1.n)))
    out = associated_leibniz(
        ConstructionInput(l1, cs3, metric, Fraction(prefactor)), force=force
    )
    out.name = f"corollary-cs3({l1.name},{cs3.name})"
    return out


# ---------------------------------------------------------------------------
# triple systems from a concrete rotation action


def so_rotation_generators(d: int) -> dict:
    """Rotation generators L_{ij} (i<j) acting as L_{ij} e_b = -(d_{ib} e_j - d_{jb} e_i).

    Operator convention: column b holds the coordinates of L_{ij} e_b.
    """
    gens = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            mat = linalg.zeros_matrix(d)
            mat[j - 1][i - 1] = -1
            mat[i - 1][j - 1] = 1
            gens[(i, j)] = mat
    return gens


def trace_form(generators: dict, factor=1) -> dict:
    """Bilinear form (p, q) -> factor * Tr(L_p L_q) on generator labels."""
    factor = Fraction(factor)
    labels = sorted(generators)
    form = {}
    for p in labels:
        for q in labels:
            d = len(generators[p])
            tr = sum(
                generators[p][a][b] * generators[q][b][a]
                for a in range(d)
                for b in range(d)
            )
            if tr:
                form[(p, q)] = factor * tr
    return form


def epsilon_pair_form(d: int = 4) -> dict:
    """(L_{ij}, L_{kl}) -> eps_{ijkl}; only nonzero entries are kept.

    Only d = 4 pairs two index pairs into eps: every other d gives {}.
    """
    if d != 4:
        return {}
    eps = levi_civita(4).data
    pairs = list(itertools.combinations(range(1, 5), 2))
    return {(p, q): eps[p + q] for p in pairs for q in pairs if p + q in eps}


def triple_from_lie(generators: dict, form: dict, metric: Metric) -> NaryAlgebra:
    """3-Leibniz algebra with <[e_{a1}, e_{a2}, e_{b1}], e_{b2}> = (L_{a1 a2}, L_{b1 b2}).

    generators maps index pairs (i < j) to matrices preserving the metric;
    form maps ordered generator-label pairs to rational values and must be
    symmetric; its labels must be pairs i < j in 1..d.  Both are extended
    antisymmetrically inside each index pair.
    """
    d = metric.d
    g = metric.entries
    for label, mat in generators.items():
        # g is symmetric, so M^T g + g M = 0 says that g M is antisymmetric
        gm = linalg.mat_mul(g, mat)
        if any(gm[i][j] + gm[j][i] for i in range(d) for j in range(i + 1)):
            raise ShapeError(f"generator {label} does not preserve the metric")
    pairs = set(itertools.combinations(range(1, d + 1), 2))
    data: dict = {}
    for (p, q), val in form.items():
        if p not in pairs or q not in pairs:
            raise ShapeError(f"form label {(p, q)} is not a pair i < j in 1..{d}")
        if form.get((q, p), 0) != val:
            raise ShapeError(f"form is not symmetric at {(p, q)}")
        if val:
            for a, sa in ((p, 1), (p[::-1], -1)):
                for b, sb in ((q, 1), (q[::-1], -1)):
                    data[a + b] = sa * sb * val
    glow = RationalTensor((d,) * 4, data)
    galg = raise_lower(glow, 4, metric, "raise")
    return NaryAlgebra("triple-from-lie", d, 3, galg, metric)


# ---------------------------------------------------------------------------
# named fixtures


def cs_so4() -> NaryAlgebra:
    """[e_{a1}, e_{a2}, e_b] = -(d_{a1 b} e_{a2} - d_{a2 b} e_{a1}) on R^4."""
    data: dict = {}
    for a1 in range(1, 5):
        for a2 in range(1, 5):
            if a1 == a2:
                continue
            _acc(data, (a1, a2, a1, a2), -1)
            _acc(data, (a1, a2, a2, a1), 1)
    return NaryAlgebra("cs-so4", 4, 3, RationalTensor((4,) * 4, data), Metric.euclidean(4))


_A_RE = re.compile(r"^A(\d+)$")
_APQ_RE = re.compile(r"^A(\d+)\+(\d+)$")
_ZERO_RE = re.compile(r"^zero\((\d+),(\d+)\)$")


def builtin(name: str) -> NaryAlgebra:
    """Named fixtures: A{k}, A{p}+{q}, cs-so4, a4-sum-a4, seven-leibniz, zero(d,n)."""
    match = _A_RE.match(name)
    if match:
        k = int(match.group(1))
        if k < 3:
            raise UnknownFixtureError(f"A{k}: need dimension >= 3")
        return simple_filippov(k - 1, [1] * k)
    match = _APQ_RE.match(name)
    if match:
        p, q = int(match.group(1)), int(match.group(2))
        if p + q < 3 or p < 1 or q < 1:
            raise UnknownFixtureError(f"bad lorentzian signature {name}")
        return simple_filippov(p + q - 1, [-1] * p + [1] * q)
    if name == "cs-so4":
        return cs_so4()
    if name == "a4-sum-a4":
        out = direct_sum(builtin("A4"), builtin("A4"))
        out.name = "a4-sum-a4"
        return out
    if name == "seven-leibniz":
        out = corollary_cs3(builtin("A8"), builtin("a4-sum-a4"), Metric.euclidean(8))
        out.name = "seven-leibniz"
        return out
    match = _ZERO_RE.match(name)
    if match:
        return zero_algebra(int(match.group(1)), int(match.group(2)))
    raise UnknownFixtureError(f"unknown fixture {name!r}")
