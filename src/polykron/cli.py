"""Command-line front-end: parse weights, dispatch, report.

Exit codes: 0 on success, 2 on input errors, 3 on internal-consistency
failures (oracle disagreement, non-integer division, negative coefficient).
A reader that closes stdout early, as `| head -1` does, leaves the exit code
as it is, with no traceback.
Reports go to stdout, diagnostics to stderr, and nothing is printed until the
computation has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

from .errors import ConsistencyError, DegreeMismatchError, SizeBoundError
from .internal_product import (
    _FAST_PATHS,
    GAMMA,
    SYM,
    WEDGE,
    CharTwoMode,
    ExpFunctor,
    exponential_tensor,
    gamma_tensor_gamma,
    jacobi_trudi,
    kronecker,
    weyl_tensor_gamma,
    weyl_tensor_wedge,
)
from .partitions import Composition, Partition
from .sweeps import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_FAMILY_NAMES = {"gamma": GAMMA, "sym": SYM, "wedge": WEDGE}
_MODE_NAMES = {m.value: m for m in CharTwoMode}
_PARTITION = {"required": True, "metavar": "PARTITION", "help": "parts a,b,..., or hook:p,q"}


class _InputError(ValueError):
    """Bad flag value; the message names the offending flag."""


#: One integer of a list flag or --max-d: ASCII digits with an optional leading
#: minus, where int() would also read "1_0", "+1" and any Unicode decimal digit.
_INTEGER = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def _ints_from_text(text: str, flag: str):
    text = text.strip()
    if text in ("", "0"):
        return ()
    parts = text.split(",")
    if not all(map(_INTEGER.fullmatch, parts)):
        raise _InputError(f"{flag}: expected comma-separated integers, got {text!r}")
    return tuple(map(int, parts))


def parse_shape(kind, text: str, flag: str):
    """A Partition or Composition (kind) of the integers in text; a value that
    kind rejects is reported under the flag."""
    entries = _ints_from_text(text, flag)
    try:
        return kind(entries)
    except ValueError as exc:
        raise _InputError(f"{flag}: {exc}") from None


def parse_partition(text: str, flag: str) -> Partition:
    """Every partition flag: comma-separated parts, or the shorthand hook:p,q."""
    if text.startswith("hook:"):
        body = _ints_from_text(text[len("hook:"):], flag)
        if len(body) != 2 or body[0] < 1 or body[1] < 1:
            raise _InputError(f"{flag}: hook shorthand needs hook:p,q with p,q >= 1")
        p, q = body
        return Partition([p] + [1] * q)
    return parse_shape(Partition, text, flag)


def parse_functor(text: str, flag: str) -> ExpFunctor:
    """An exponential functor written family:weight, e.g. gamma:2,1."""
    family, sep, weight = text.partition(":")
    if not sep or family.lower() not in _FAMILY_NAMES:
        raise _InputError(f"{flag}: expected gamma:WEIGHT, sym:WEIGHT or wedge:WEIGHT")
    return ExpFunctor(_FAMILY_NAMES[family.lower()], parse_shape(Composition, weight, flag))


def _flagged(flags: str, fn, *args, **kwargs):
    """Run a library call, naming the offending flags on degree/bound errors."""
    try:
        return fn(*args, **kwargs)
    except (DegreeMismatchError, SizeBoundError) as exc:
        raise _InputError(f"{flags}: {exc}") from None


def expansion_report(d: int, method: str, basis: str, pairs) -> dict:
    """Report dict with terms in descending lexicographic order."""
    ordered = sorted(pairs, key=lambda kv: tuple(kv[0]), reverse=True)
    return {
        "d": d,
        "method": method,
        "basis": basis,
        "expansion": [
            {"partition": list(part), "mult": mult} for part, mult in ordered if mult
        ],
    }


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2)
    lines = [f"d={report['d']} method={report['method']} basis={report['basis']}"]
    if not report["expansion"]:
        lines.append("  (zero)")
    else:
        texts = [(",".join(map(str, e["partition"])) or "0", e["mult"]) for e in report["expansion"]]
        width = max(len(t) for t, _ in texts)
        lines.extend(f"  {t.ljust(width)}  {m}" for t, m in texts)
    return "\n".join(lines)


def _schur_pairs(expansion):
    return [(p.parts, c) for p, c in expansion.terms.items()]


def _multiset_pairs(weights):
    return Counter(w.entries for w in weights).items()


def _cmd_kron(args) -> dict:
    lam = parse_partition(args.lam, "--lambda")
    mu = parse_partition(args.mu, "--mu")
    expansion, method = _flagged("--lambda/--mu", kronecker, lam, mu, args.method)
    return expansion_report(lam.size, method, "Weyl", _schur_pairs(expansion))


def _cmd_gamma_tensor(args) -> dict:
    mu = parse_shape(Composition, args.mu, "--mu")
    lam = parse_shape(Composition, args.lam, "--lambda")
    dec = _flagged("--mu/--lambda", gamma_tensor_gamma, mu, lam)
    return expansion_report(mu.degree, "gamma-tensor", dec.family, _multiset_pairs(dec.summands))


def _cmd_exp_tensor(args) -> dict:
    left = parse_functor(args.left, "--left")
    right = parse_functor(args.right, "--right")
    mode = _MODE_NAMES[args.char_two]
    dec = _flagged("--left/--right", exponential_tensor, left, right, mode)
    return expansion_report(left.degree, "exp-tensor", dec.family, _multiset_pairs(dec.summands))


def _cmd_weyl(args) -> dict:
    """weyl-gamma and weyl-wedge: the subparser sets the product and basis."""
    lam = parse_partition(args.lam, "--lambda")
    nu = parse_shape(Composition, args.nu, "--nu")
    expansion = _flagged("--lambda/--nu", args.product, lam, nu)
    return expansion_report(lam.size, args.command, args.basis, _schur_pairs(expansion))


def _cmd_jacobi_trudi(args) -> dict:
    mu = parse_partition(args.mu, "--mu")
    terms = _flagged("--mu", jacobi_trudi, mu)
    pairs = [(nu.entries, sign) for sign, nu in terms]
    return expansion_report(mu.size, "jacobi-trudi", "Gamma", pairs)


def _cmd_oracle_check(args):
    max_d = args.max_d
    if max_d is not None:
        if not _INTEGER.fullmatch(max_d):
            raise _InputError(f"--max-d: expected an integer, got {max_d!r}")
        max_d = int(max_d)
        if max_d < 0:
            raise _InputError(f"--max-d: must be non-negative, got {max_d}")
        if max_d > 8 and not args.force:
            raise _InputError("--max-d: values above 8 need --force")
    results = run_suites(args.suite, max_d)
    if args.json:
        suites = [
            {"name": r.name, "ok": r.ok, "checks": r.checks, "failure": r.failure}
            for r in results
        ]
        text = json.dumps({"suites": suites}, indent=2)
    else:
        text = "\n".join(r.line() for r in results)
    code = EXIT_OK if all(r.ok for r in results) else EXIT_INTERNAL
    return text, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykron",
        description="Exact internal-tensor-product decompositions and Kronecker coefficients.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable report")
    # Deprecated and inert: run() only warns that it was given.
    common.add_argument("--cache", metavar="PATH", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", parents=[common], help="Kronecker product of two Specht/Weyl labels")
    p.add_argument("--lambda", dest="lam", **_PARTITION)
    p.add_argument("--mu", **_PARTITION)
    p.add_argument("--method", choices=["auto", "general", *_FAST_PATHS], default="auto",
                   help="auto: one-box when a factor is (a, 1), else general")
    p.set_defaults(func=_cmd_kron)

    p = sub.add_parser("gamma-tensor", parents=[common], help="product of two divided-power weights")
    p.add_argument("--mu", required=True, metavar="WEIGHT")
    p.add_argument("--lambda", dest="lam", required=True, metavar="WEIGHT")
    p.set_defaults(func=_cmd_gamma_tensor)

    p = sub.add_parser("exp-tensor", parents=[common], help="product of two exponential functors")
    p.add_argument("--left", required=True, metavar="FAMILY:WEIGHT")
    p.add_argument("--right", required=True, metavar="FAMILY:WEIGHT")
    p.add_argument("--char-two", choices=sorted(_MODE_NAMES), default="unit",
                   help="behaviour of 2 in the base ring")
    p.set_defaults(func=_cmd_exp_tensor)

    for name, product, basis, text in (
        ("weyl-gamma", weyl_tensor_gamma, "Weyl", "Weyl filtration of Weyl x Gamma weight"),
        ("weyl-wedge", weyl_tensor_wedge, "DualWeyl", "dual Weyl filtration of Weyl x Wedge weight"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--lambda", dest="lam", **_PARTITION)
        p.add_argument("--nu", required=True, metavar="WEIGHT")
        p.set_defaults(func=_cmd_weyl, product=product, basis=basis)

    p = sub.add_parser("jacobi-trudi", parents=[common], help="signed divided-power resolution terms")
    p.add_argument("--mu", **_PARTITION)
    p.set_defaults(func=_cmd_jacobi_trudi)

    p = sub.add_parser("oracle-check", parents=[common], help="run verification sweeps")
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--max-d", default=None, help="degree bound (guarded at 8)")
    p.add_argument("--force", action="store_true", help="allow --max-d above 8")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def run(argv) -> int:
    """Parse argv, dispatch, print the report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        out = args.func(args)
        if args.cache is not None:
            print("warning: --cache has no effect and will be removed", file=sys.stderr)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text, code = out if isinstance(out, tuple) else (render_report(out, args.json), EXIT_OK)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left after the report was computed; the code stands.
        # Point stdout at devnull, so that the flush at exit does not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
