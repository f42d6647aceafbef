"""Run the classifier over a gallery of generator sets and print the verdicts.

Each row shows the left/right/overall amenability statuses plus the headline
certificate, exercising every branch: joined iterates, twisted-only pairs,
degree and leading-coefficient obstructions, abelian special families, and
honest Unknowns when the search bounds are exhausted.
"""

import argparse
from dataclasses import fields, replace

from ritt_lab.forms import chebyshev
from ritt_lab.polynomials import Z, iterate
from ritt_lab.semigroup import SearchBounds, classify

GALLERY = [
    ("power-joined pair", [-Z**3, Z**3]),
    ("iterate tower", [Z**3 + Z, iterate(Z**3 + Z, 2)]),
    ("twisted but not joined", [-(Z**4 + Z**2), Z**4 + Z**2]),
    ("degree obstruction", [Z**2 + 1, Z**3 + 1]),
    ("scaled powers", [2 * Z**2, Z**2]),
    ("chebyshev family", [chebyshev(2), chebyshev(3)]),
    ("bounded search, no verdict", [Z**2 + 1, Z**2 + 2]),
]


def headline(side):
    # prefer cross-pair findings; self-pairs trivially share an iterate
    best = None
    for f in side.findings:
        if f.outcome.certificate is None:
            continue
        li, ri = f.subject.split("|")
        if best is None or li != ri:
            best = f
    if best is None:
        return "-"
    return f"{best.subject}: {type(best.outcome.certificate).__name__}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    names = [f.name for f in fields(SearchBounds)]
    for name in names:
        ap.add_argument(f"--{name}", type=int, help=f"default {getattr(SearchBounds(), name)}")
    args = ap.parse_args()
    bounds = replace(SearchBounds(), **{k: v for k in names if (v := getattr(args, k)) is not None})

    for name, gens in GALLERY:
        v = classify(gens, bounds)
        print(f"{name}:")
        print(f"  generators: {', '.join(str(g) for g in gens)}")
        print(f"  left={v.left_amenable.status}  right={v.right_amenable.status}  amenable={v.amenable}")
        print(f"  headline: left {headline(v.left_amenable)} | right {headline(v.right_amenable)}")
        for note in v.notes:
            print(f"  note: {note}")
        print()


if __name__ == "__main__":
    main()
