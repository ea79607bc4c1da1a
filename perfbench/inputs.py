"""Seeded inputs: signed basis permutations and integer rescalings of
algebra files written by ``naryalg gen``.

A basis change is the new basis e'_j = t_j e_{p(j)} with p a permutation of
1..d and t_j = s_j c_j, s_j = +-1 and c_j a positive integer.  The structure
constants and the diagonal metric transform as

    f'_{j1..jn}^k = (t_j1 ... t_jn / t_k) f_{p(j1)..p(jn)}^{p(k)}
    g'_jj         = t_j^2 g_{p(j) p(j)}

so every verdict of the program is unchanged: signed permutations are
orthogonal for every diagonal +-1 metric, and a rescaling only conjugates
adjoint matrices and scales trace forms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Scales c_j of a rescaled basis, by new basis index.  Which old vector gets
# which scale follows the seeded permutation, so on the simple algebras every
# seed does the same rational arithmetic (the multiset of entry denominators
# is seed-free) while the placement of the denominators changes with the seed.
RESCALE = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class BasisChange:
    """e'_j = t[j-1] * e_{perm[j-1]} for j = 1..d."""

    perm: tuple
    t: tuple

    @property
    def d(self) -> int:
        return len(self.perm)

    @property
    def new_index(self) -> dict:
        """Old 1-based index -> new 1-based index."""
        return {old: new for new, old in enumerate(self.perm, start=1)}


def identity(d: int) -> BasisChange:
    return BasisChange(tuple(range(1, d + 1)), (1,) * d)


def seeded(rng: random.Random, d: int, rescale: bool) -> BasisChange:
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    scales = RESCALE[:d] if rescale else (1,) * d
    return BasisChange(tuple(perm), tuple(s * c for s, c in zip(signs, scales)))


def transform(obj: dict, change: BasisChange) -> dict:
    """The algebra file `obj` written in the basis given by `change`."""
    d, n = obj["dim"], obj["arity"]
    if change.d != d:
        raise ValueError(f"basis change of dimension {change.d} for a {d}-dim algebra")
    new = change.new_index
    t = dict(enumerate(change.t, start=1))
    entries = []
    for ent in obj["entries"]:
        key = tuple(new[i] for i in ent["in"]) + (new[ent["out"]],)
        text = ent["val"]
        val = (Fraction(text) if "/" in text else int(text)) * math.prod(t[j] for j in key[:-1])
        div = t[key[-1]]
        val = val // div if val % div == 0 else Fraction(val, div)
        entries.append((key, val))
    entries.sort()
    result = {"name": obj["name"], "dim": d, "arity": n}
    if "metric" in obj:
        diag = obj["metric"].get("diag")
        if diag is None:
            raise ValueError("only diagonal metrics are relabeled")
        result["metric"] = {"diag": [t[j] ** 2 * diag[change.perm[j - 1] - 1]
                                     for j in range(1, d + 1)]}
    result["entries"] = [
        {"in": list(key[:-1]), "out": key[-1], "val": str(val)} for key, val in entries
    ]
    if len(result["entries"]) != len(obj["entries"]):
        raise ValueError("basis change merged entries")
    return result


def read(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(obj: dict, path) -> None:
    """Same bytes as the program's own algebra writer."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
