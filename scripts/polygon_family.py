#!/usr/bin/env python3
"""Sweep the polygon family: for each n-gon build the path model with
m = n - 2, run the full F -> H -> Gamma pipeline of its sphere, and check
the result against the closed rank 2 formula y^2 + (n-4) x."""

import argparse

from gammatri.cluster import dihedral_subdivision
from gammatri.coxeter import rank23_formula
from gammatri.render import render_triangle
from gammatri.subdivisions import f_triangle, local_gamma, sphere
from gammatri.transforms import Gamma_from_H, H_from_F


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()

    for n in range(4, args.max_n + 1):
        s = dihedral_subdivision(n - 2)
        F = f_triangle(sphere(s))
        H = H_from_F(F, 2)
        gt = Gamma_from_H(H, 2)
        ok = gt == rank23_formula(n - 2, 2)
        print(f"n = {n}: local gamma {local_gamma(s)}, "
              f"Gamma {gt.to_poly2()} ({'ok' if ok else 'MISMATCH'})")
        if n == 5:
            print("  pentagon matrices:")
            for kind, p in (("F", F), ("H", H), ("Gamma", gt)):
                print(f"  {kind}:")
                for line in render_triangle(p, 2, kind):
                    print(f"    {line}")


if __name__ == "__main__":
    main()
