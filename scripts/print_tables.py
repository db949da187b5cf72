#!/usr/bin/env python3
"""Print every Gamma-triangle the package knows closed or stored data for,
in the shared display orientation (j = d at the top, i = 0 on the left),
recomputing each one through the diagram sum as it goes."""

import argparse

from gammatri.coxeter import (
    gamma_triangle_diagram,
    rank23_formula,
    reference_tables,
    standard_diagram,
    table_mismatches,
)
from gammatri.render import render_triangle


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank2", type=int, default=12,
                        help="largest dihedral Coxeter number (default 12)")
    args = parser.parse_args()

    print("rank 2 family (dihedral types):")
    for h in range(2, args.max_rank2 + 1):
        gt = rank23_formula(h, 2)
        print(f"  h = {h}: {gt.to_poly2()}")
    print("\nrank 3 family:")
    for h, label in ((2, "A1^3"), (4, "A3"), (6, "B3"), (10, "H3")):
        gt = rank23_formula(h, 3)
        print(f"  h = {h} ({label}): {gt.to_poly2()}")

    for name in sorted(reference_tables()):
        gt = reference_tables()[name]
        status = "reproduced" if not table_mismatches(name) else "MISMATCH"
        print(f"\n{name} (d = {gt.degree}, diagram recomputation {status}):")
        print("\n".join(render_triangle(gt, gt.degree, "Gamma")))

    print("\nlarger ranks straight from the diagram sum:")
    for kind, rank in (("A", 7), ("B", 7), ("D", 7), ("D", 8)):
        gt = gamma_triangle_diagram(standard_diagram(kind, rank))
        print(f"\n{kind}{rank}:")
        print("\n".join(render_triangle(gt, gt.degree, "Gamma")))


if __name__ == "__main__":
    main()
