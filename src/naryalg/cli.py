"""Command-line front door.

Thin adapters only: every verb loads files, calls one library operation and
serializes the result.  Exit codes: 0 all checks passed, 1 a check failed,
2 usage or input error, 3 size-guard, budget or out-of-memory rejection.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__, algebra
from .algebra import AlgebraFileError, Metric, NaryAlgebra
from .tensor import ShapeError, SizeGuardError, parse_rational

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3


class UsageError(ValueError):
    pass


def _digest(path: str) -> str:
    import hashlib  # only `check` prints a digest; hashlib loads libcrypto
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            sha.update(block)
    return "sha256:" + sha.hexdigest()


def _parse_metric(spec: str | None, d: int, fallback: Metric | None) -> Metric | None:
    if spec is None:
        return fallback
    if spec == "euclid":
        return Metric.euclidean(d)
    if spec.startswith("lorentz:"):
        try:
            p, q = (int(x) for x in spec[len("lorentz:"):].split(","))
            if p + q == d:
                return Metric.lorentzian(p, q)
        except ValueError as exc:  # ShapeError too: a negative count
            raise UsageError(f"bad lorentz spec {spec!r}") from exc
        raise UsageError(f"lorentz:{p},{q} does not match dimension {d}")
    try:
        obj = algebra._read_json(spec)
    except OSError as exc:
        raise UsageError(f"cannot read metric {spec!r}: {exc}") from exc
    return algebra._metric_from_json(obj, d)


def _parse_signature(text: str):
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ("+", "+1", "1"):
            out.append(1)
        elif token in ("-", "-1"):
            out.append(-1)
        else:
            raise UsageError(f"bad signature entry {token!r}")
    return out


# ---------------------------------------------------------------------------
# suites


def _any_arity(n: int) -> bool:
    return True


def _odd_arity(n: int) -> bool:
    return n % 2 == 1


def _nondegenerate(L: NaryAlgebra, metric):
    from . import forms
    return forms.kasymov_nondegenerate(L)


# name -> (check, applies to arity); `all` expands in this order.  Arity is
# always >= 2, so "odd" already means ">= 3".  Checks are looked up on their
# module at call time, so wrappers installed after import still see them, and
# a module other than algebra is imported by the checks that use it.
CHECKS = {
    "filippov": (lambda L, m: algebra.check_filippov(L), _any_arity),
    "skew": (lambda L, m: algebra.check_skew(L, range(1, L.n + 1)), _any_arity),
    "metricity": (lambda L, m: algebra.check_metricity(L, m), _any_arity),
    "fullanti": (lambda L, m: algebra.check_full_antisym_lowered(L, m), _any_arity),
    "cyclic": (lambda L, m: algebra.check_cyclic(L), _any_arity),
    "nple": (lambda L, m: algebra.is_lie_nple(L), _any_arity),
    "nondegenerate": (_nondegenerate, _any_arity),
    "symmetry": (lambda L, m: algebra.check_symmetry_property(L, m), lambda n: n >= 3),
    "triple": (lambda L, m: algebra.is_lie_triple(L), lambda n: n == 3),
    "genmetric": (lambda L, m: algebra.check_generalized_metric_l(L, m), _odd_arity),
    "lple": (lambda L, m: algebra.is_lie_lple(L), _odd_arity),
}


def _expand_all(L: NaryAlgebra) -> list:
    return [name for name, (_, applies) in CHECKS.items() if applies(L.n)]


def _report(inputs: dict, checks: list, timings: dict | None) -> dict:
    out = {
        "tool": "naryalg",
        "version": __version__,
        "inputs": {path: _digest(path) for path in inputs},
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    if timings is not None:
        out["timings"] = timings
    return out


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=1) + "\n"
    lines = [
        f"# naryalg {report['version']} check report",
        "",
        "| check | result | witness | residual |",
        "|-------|--------|---------|----------|",
    ]
    for c in report["checks"]:
        witness = " ".join(str(i) for i in c.get("witness", [])) or "-"
        lines.append(
            f"| {c['name']} | {'pass' if c['passed'] else 'FAIL'} "
            f"| {witness} | {c.get('residual', '-')} |"
        )
    lines.append("")
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verbs


def _signature_algebra(args) -> NaryAlgebra:
    sig = _parse_signature(args.signature)
    return algebra.simple_filippov(len(sig) - 1, sig)


def _builtin(name: str):
    def build(args) -> NaryAlgebra:
        from . import construct
        return construct.builtin(name)
    return build


# family -> (options it needs, builder); argparse reads its choices from here.
FAMILIES = {
    "A": (("n",), lambda a: algebra.simple_filippov(a.n, [1] * (a.n + 1))),
    "Apq": (("signature",), _signature_algebra),
    "cs-so4": ((), _builtin("cs-so4")),
    "a4sum": ((), _builtin("a4-sum-a4")),
    "seven-leibniz": ((), _builtin("seven-leibniz")),
    "zero": (("n", "d"), lambda a: algebra.zero_algebra(a.d, a.n)),
}


def _cmd_gen(args) -> int:
    needs, build = FAMILIES[args.family]
    if any(getattr(args, opt) is None for opt in needs):
        raise UsageError(f"gen --family {args.family} needs "
                         + " and ".join(f"--{opt}" for opt in needs))
    algebra.save(build(args), args.output)
    return EXIT_PASS


def _cmd_check(args) -> int:
    # the suite is judged before the file is read
    requested = [name.strip() for name in args.suite.split(",") if name.strip()]
    if not requested:
        raise UsageError(f"--suite {args.suite!r} names no check")
    for name in requested:
        if name != "all" and name not in CHECKS:
            raise UsageError(f"unknown check {name!r}")
    L = algebra.load(args.file)
    metric = _parse_metric(args.metric, L.d, L.metric)
    names = [each for name in requested
             for each in (_expand_all(L) if name == "all" else [name])]
    timings: dict | None = {} if args.timings else None
    checks = []
    for name in names:
        t0 = time.perf_counter()
        checks.append(CHECKS[name][0](L, metric))
        if timings is not None:
            timings[name] = round(time.perf_counter() - t0, 6)
    report = _report([args.file], checks, timings)
    if not L.verified:
        report["verified"] = False
    _emit(_render(report, args.format), args.output)
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILED


def _cmd_kasymov(args) -> int:
    from . import forms
    L = algebra.load(args.file)
    forms.save(forms.kasymov(L), args.output, name=f"kasymov({L.name})")
    return EXIT_PASS


def _cmd_mixed(args) -> int:
    from . import forms
    l1 = algebra.load(args.file1)
    l2 = algebra.load(args.file2)
    forms.save(
        forms.mixed_trace(l1, l2), args.output,
        name=f"mixed({l1.name},{l2.name})",
    )
    return EXIT_PASS


def _cmd_compose(args) -> int:
    from . import construct
    l1 = algebra.load(args.l1)
    l2 = algebra.load(args.l2)
    metric = _parse_metric(args.metric, l1.d, l2.metric or l1.metric)
    if metric is None:
        raise UsageError("compose needs --metric (no metric in input files)")
    prefactor = Fraction(parse_rational(args.prefactor))
    inp = construct.ConstructionInput(l1, l2, metric, prefactor)
    try:
        out = construct.associated_leibniz(inp, force=args.force)
    except construct.ConstructionError as exc:
        report = _report([args.l1, args.l2], [exc.report], None)
        sys.stdout.write(_render(report, "json"))
        return EXIT_CHECK_FAILED
    algebra.save(out, args.output)
    return EXIT_PASS


def _cmd_liealg(args) -> int:
    from . import adjoint
    L = algebra.load(args.file)
    closure = adjoint.lie_closure(L)
    out = {
        "name": L.name,
        "closure_dim": closure.dim,
        "from_generators": closure.from_generators,
    }
    if args.kernel:
        # rank-nullity: the span representatives are a basis of the image of ad
        out["kernel_dim"] = L.d ** (L.n - 1) - len(L.ad_span())
    if not args.centre:
        sys.stdout.write(json.dumps(out, indent=1) + "\n")
        return EXIT_PASS
    basis = adjoint.centre(L)
    out["centre_dim"] = len(basis)
    # one row at a time, each distinct nonzero value formatted once; zeros,
    # most of a sparse basis, skip the cache's hashing
    text = functools.lru_cache(None)(lambda x: '   "%s"' % Fraction(x))
    rows = ("  [\n" + ",\n".join([text(x) if x else '   "0"' for x in vec]) + "\n  ]"
            if vec else "  []" for vec in basis)
    algebra._write_json(sys.stdout, out, "centre_basis", rows, chunk=1)
    return EXIT_PASS


def _printable_gl_dimension(shape, d: int) -> int:
    """young.gl_dimension, refused once it has more digits than an int may
    print (sys.get_int_max_str_digits()).

    comb(n, k) >= (n/k)^k for k <= n/2 bounds its digits from below, so a
    dimension far too long to print is refused before it is computed.
    """
    from . import young
    # 0 means no limit, as on Pythons older than the limit itself
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    l, r = shape.l, shape.r
    if limit and d >= l - r:
        low = math.log10((l - 2 * r + 1) / (l - r + 1))
        for n, k in ((d + 1, r), (d, l - r)):
            k = min(k, n - k)
            if k:
                low += k * math.log10(n / k)
        if low <= limit + 1:
            value = young.gl_dimension(shape, d)
            if value < 10 ** limit:
                return value
        raise SizeGuardError(f"young dim: the dimension has more than {limit} digits, "
                             "the most an integer may print")
    return young.gl_dimension(shape, d)


def _cmd_young(args) -> int:
    from . import young
    if args.young_cmd == "dim":
        if args.d < 0:
            raise UsageError(f"--d must be a non-negative integer, got {args.d}")
        shape = young.YoungShape(args.l, args.r)
        out = {"l": args.l, "r": args.r, "d": args.d,
               "gl_dim": _printable_gl_dimension(shape, args.d)}
    else:
        L = algebra.load(args.file)
        components = young.classify_bracket(L, force=args.force)
        out = {
            "l": L.n,
            "components": [
                {"r": r, "nonzero": nonzero, "gl_dim": dim}
                for r, nonzero, dim in components
            ],
        }
    sys.stdout.write(json.dumps(out, indent=1) + "\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naryalg",
        description="exact construction and verification of n-Lie/n-Leibniz systems",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="write a named fixture algebra")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, help="bracket arity (families A, zero)")
    gen.add_argument("--d", type=int, help="dimension (family zero)")
    gen.add_argument("--signature", help="comma list of +1/-1 (family Apq)")
    gen.add_argument("-o", "--output", required=True)

    check = sub.add_parser("check", help="run a property suite on an algebra file")
    check.add_argument("file")
    check.add_argument("--suite", required=True,
                       help="comma list: filippov,skew,metricity,fullanti,symmetry,"
                            "genmetric,cyclic,triple,nple,lple,nondegenerate,all")
    check.add_argument("--metric", help="euclid | lorentz:p,q | metric JSON file")
    check.add_argument("--format", choices=["json", "md"], default="json")
    check.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (reports stop being byte-identical)")
    check.add_argument("-o", "--output")

    kas = sub.add_parser("kasymov", help="write the Kasymov trace form")
    kas.add_argument("file")
    kas.add_argument("-o", "--output", required=True)

    mixed = sub.add_parser("mixed", help="write the mixed trace form of two algebras")
    mixed.add_argument("file1")
    mixed.add_argument("file2")
    mixed.add_argument("-o", "--output", required=True)

    comp = sub.add_parser("compose", help="build the associated (n+m-3)-Leibniz algebra")
    comp.add_argument("--l1", required=True)
    comp.add_argument("--l2", required=True)
    comp.add_argument("--metric", help="euclid | lorentz:p,q | metric JSON file")
    comp.add_argument("--prefactor", default="1", help="rational p/q scale (default 1)")
    comp.add_argument("--force", action="store_true",
                      help="skip precondition checks; output marked unverified")
    comp.add_argument("-o", "--output", required=True)

    lie = sub.add_parser("liealg", help="associated Lie algebra dimensions")
    lie.add_argument("file")
    lie.add_argument("--kernel", action="store_true")
    lie.add_argument("--centre", action="store_true")

    yng = sub.add_parser("young", help="bracket symmetry classification")
    ysub = yng.add_subparsers(dest="young_cmd", required=True)
    ycls = ysub.add_parser("classify")
    ycls.add_argument("file")
    ycls.add_argument("--force", action="store_true",
                      help="override the permutation-sum budget")
    ydim = ysub.add_parser("dim")
    ydim.add_argument("--l", type=int, required=True)
    ydim.add_argument("--r", type=int, required=True)
    ydim.add_argument("--d", type=int, required=True)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "kasymov": _cmd_kasymov,
    "mixed": _cmd_mixed,
    "compose": _cmd_compose,
    "liealg": _cmd_liealg,
    "young": _cmd_young,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return _HANDLERS[args.verb](args)
    except SizeGuardError as exc:
        print(f"naryalg: size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except MemoryError:
        print("naryalg: out of memory: the request is too large", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (UsageError, AlgebraFileError, ShapeError, OSError, ValueError) as exc:
        print(f"naryalg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
