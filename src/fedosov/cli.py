"""Manifest-driven command line front end.

    fedosov validate <manifest>
    fedosov abelian  <manifest> [--degree N] [--check] [--out text|json]
    fedosov star     <manifest> <a-expr> <b-expr> [--order K]
    fedosov finite   <manifest> [--zmax Z]
    fedosov prop41   [--z Z] [--trials T] [--seed S]

`finite` solves r through grade Z - 1 and prints its verdict as the first
line, one of

    curvature is zero: r = 0, trivially finite
    finite, deg(r)=D
    not finite within z <= Z

the last followed by the closure system's outcome for each m = 4..Z.

Exit codes: 0 success, 1 a mathematical check failed, 2 invalid spec or
invalid request (numeric options are range-checked), 3 parse error.  The
ranges bound the input, not yet the work: in dim >= 4, requests near the
top of the --degree, --zmax and --order ranges may run for hours or exhaust
memory.  All output is deterministic: canonical term order plus exact
arithmetic make repeat runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import abelian_r, check_abelian, finiteness_test, star
from .geometry import ValidationError, validate
from .manifest import (
    ExprError,
    ManifestError,
    load_manifest,
    parse_poly,
    series_to_records,
)
from .poly import format_poly
from .weyl import format_series


def _out_of_range(flag: str, value: int, low: int, high: int, why: str = "") -> bool:
    """Report a value outside low..high on stderr; True when it is."""
    if low <= value <= high:
        return False
    bound = f">= {low}{why}" if value < low else f"<= {high}"
    print(f"error: {flag} must be {bound}, got {value}", file=sys.stderr)
    return True


def _specs(args):
    man = load_manifest(args.manifest)
    return man, man.manifold(), man.connection()


def cmd_validate(args) -> int:
    man, mspec, cspec = _specs(args)
    rep = validate(mspec, cspec)
    if not rep.ok:
        for msg in rep.messages:
            print(f"problem: {msg}")
        return 2
    omega = "standard" if man.omega_lower is None else "custom"
    print(f"OK: dim={man.dim}, omega {omega}, {len(man.gamma)} connection entries")
    print(f"defaults: max_degree={man.max_degree}, hbar_order={man.hbar_order}")
    return 0


def cmd_abelian(args) -> int:
    man, mspec, cspec = _specs(args)
    N = man.max_degree if args.degree is None else args.degree
    if _out_of_range("--degree", N, 3, 24, " (the correction starts at grade 3)"):
        return 2
    r = abelian_r(mspec, cspec, N)
    if args.out == "json":
        payload = {
            "dim": man.dim,
            "degree": N,
            "grades": {str(z): series_to_records(r.part(z)) for z in range(3, N + 1)},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for z in range(3, N + 1):
            print(f"r[{z}] = {format_series(r.part(z))}")
    if args.check:
        rep = check_abelian(r)
        if not rep.ok:
            for msg in rep.messages:
                print(f"check FAILED: {msg}")
            return 1
        print(f"check passed: residual zero through grade {rep.checked_through}, "
              "normalization, parity and fiber conditions hold")
    return 0


def cmd_star(args) -> int:
    man, mspec, cspec = _specs(args)
    K = man.hbar_order if args.order is None else args.order
    if _out_of_range("--order", K, 0, 12):
        return 2
    a0 = parse_poly(args.a, man.dim)
    b0 = parse_poly(args.b, man.dim)
    result = star(mspec, cspec, a0, b0, K)
    for j in range(K + 1):
        print(f"h^{j}: {format_poly(result[j]) if j in result else '0'}")
    return 0


def cmd_finite(args) -> int:
    man, mspec, cspec = _specs(args)
    zmax = args.zmax
    if _out_of_range("--zmax", zmax, 4, 24):
        return 2
    r = abelian_r(mspec, cspec, zmax - 1)
    d = r.degree()
    # a consistent closure system at m forces r[z] = 0 for z >= m: no m <= d
    # holds since r[d] != 0, and a larger m holds only if m = d + 1 does
    if d is None:
        print("curvature is zero: r = 0, trivially finite")
    elif finiteness_test(r, d + 1).consistent:
        print(f"finite, deg(r)={d}")
    else:
        print(f"not finite within z <= {zmax}")
        for mp in range(4, zmax + 1):
            fr = finiteness_test(r, mp)
            if fr.consistent:
                print(f"m={mp}: consistent")
            else:
                square = "yes" if fr.square_violated else "no"
                print(f"m={mp}: violated at z={fr.first_violated}; "
                      f"square equation r[{mp - 1}] o r[{mp - 1}] violated: {square}")
    return 0


def cmd_prop41(args) -> int:
    import random

    from .twodim import CascadeError, cascade_solve, random_table, square_check

    if _out_of_range("--z", args.z, 1, 16) or _out_of_range("--trials", args.trials, 1, 1000):
        return 2
    rng = random.Random(args.seed)
    vanished = 0
    for n in range(args.trials):
        table = random_table(args.z, rng)
        res = square_check(table.to_form())
        if res.is_zero:
            vanished += 1
            print(f"trial {n}: square VANISHED for a nonzero table")
    print(f"trials: {args.trials - vanished}/{args.trials} nonzero squares (z={args.z}, "
          f"seed={args.seed})")
    try:
        print(cascade_solve(args.z).describe())
    except CascadeError as e:
        print(f"cascade FAILED: {e}")
        return 1
    return 1 if vanished else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fedosov",
        description="Exact symbolic computations for Fedosov-type quantization "
                    "on flat phase spaces with polynomial symplectic connections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest file")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("abelian", help="compute the correction r grade by grade")
    p.add_argument("manifest")
    p.add_argument("--degree", type=int, default=None,
                   help="top grade to compute (default: manifest defaults)")
    p.add_argument("--check", action="store_true",
                   help="verify the defining equation and normalization")
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_abelian)

    p = sub.add_parser("star", help="star product of two base polynomials")
    p.add_argument("manifest")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--order", type=int, default=None,
                   help="highest hbar power (default: manifest defaults)")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("finite", help="test whether the correction terminates")
    p.add_argument("manifest")
    p.add_argument("--zmax", type=int, default=8)
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("prop41", help="square nonvanishing trials and cascade")
    p.add_argument("--z", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prop41)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except (ManifestError, ValidationError) as e:
        print(f"invalid spec: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
