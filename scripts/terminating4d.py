#!/usr/bin/env python3
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fedosov.abelian import abelian_r, finiteness_test, star
from fedosov.geometry import ConnectionSpec, ManifoldSpec, curvature_form
from fedosov.poly import BasePolynomial, format_poly
from fedosov.weyl import format_series


def main():
    ap = argparse.ArgumentParser(
        description="4D connection with a single polynomial coefficient whose "
        "correction series terminates at degree 3."
    )
    ap.add_argument("--top", type=int, default=8, help="grade bound for the solver")
    args = ap.parse_args()

    m = ManifoldSpec.standard(4)
    c = ConnectionSpec(4, [((1, 1, 1), BasePolynomial.variable(4, 3))])
    print(f"curvature: {format_series(curvature_form(m, c))}")

    r = abelian_r(m, c, args.top)
    print(f"r[3] = {format_series(r.part(3))}")
    higher = [z for z in range(4, args.top + 1) if not r.part(z).is_zero()]
    print(f"nonzero grades above 3: {higher or 'none'}")
    print(f"closure system at m=4 consistent: {finiteness_test(r, 4).consistent}")

    # a sample product on the quantized algebra
    a0 = BasePolynomial.variable(4, 1) * BasePolynomial.variable(4, 3)
    b0 = BasePolynomial.variable(4, 2)
    prod = star(m, c, a0, b0, 2, r=r)
    for k in sorted(prod):
        print(f"(q1*q3) * q2 at h^{k}: {format_poly(prod[k])}")


if __name__ == "__main__":
    main()
