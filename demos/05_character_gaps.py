#!/usr/bin/env python3
"""Hunt for representations separating same-degree involution classes.

A few groups have two involution classes of the same degree n; telling them
apart needs an orthogonal representation whose characters differ by exactly
2^n on the pair.  The search scans a catalogue of exactly-computable
representations and reports every hit (or honestly reports none).

D6 is the fun one: its degree-3 mirror pair is invisible to every
representation stable under the outer automorphism, and only the split
halves of the half-subset action separate it.
"""

from weylinv import build_root_system, classify_involutions, default_catalogue
from weylinv.reps import hard_case_reports

for name in ("D6", "E7"):
    rs = build_root_system(name)
    classes = classify_involutions(rs)
    print(f"{name}: degrees {[c.degree for c in classes]}")
    for report in hard_case_reports(classes, default_catalogue(rs)):
        hits = ", ".join(f"{d} ({g:+d})" for d, g in report.hits[:4])
        more = f" ... +{len(report.hits) - 4} more" if len(report.hits) > 4 else ""
        print(f"  pair {report.pair[0]} | {report.pair[1]}  target 2^"
              f"{report.degree} = {report.target}")
        print(f"    hits: {hits or 'none found in catalogue'}{more}")
    print()

print("E8's degree-4 pair (takes ~15s: full classification first):")
rs = build_root_system("E8")
for report in hard_case_reports(classify_involutions(rs), default_catalogue(rs)):
    print(f"  pair {report.pair[0]} | {report.pair[1]}  target {report.target}")
    for descriptor, gap in report.hits[:5]:
        print(f"    {descriptor}: {gap:+d}")
