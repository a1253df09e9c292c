"""Feynman graphs: fixtures, structural checks, Wick pairings, cumulants.

Run as: python3 demos/02_graphs_and_pairings.py
"""

from gpam2d.corpus import load_graph
from gpam2d.feynman import (
    canonical_form,
    edge_classes,
    fourth_cumulant_graphs,
    validate_structure,
    wick_pairings,
)

chain = load_graph("two_noise_tree:chain2")
print("the two-noise chain:")
for e in chain.edges:
    print(f"   {e.etype}: {e.tail} -> {e.head}")

print("\nedge families:", {k: sorted(v) for k, v in edge_classes(chain).items() if v})

print("\nsecond moment = one graph per permutation of the noise nodes:")
for g in wick_pairings(chain, "all"):
    print(f"   {g.name}: {len(g.kinds)} vertices, {len(g.edges)} edges, sign {g.coeff}")

print("\nfourth cumulant = connected pairings of four copies;")
print("deduplicated up to isomorphism they are the four eight-cycles:")
for g in fourth_cumulant_graphs(chain):
    tags = sorted(str(e.etype) for e in g.edges)
    print(f"   {g.name}: {tags.count('DDRho')} heavy mollifiers, {tags.count('Test')} tests")

print("\nstructure report for a paired corpus member:")
report = validate_structure(wick_pairings(load_graph("four_noise_a:a09"), "all")[0])
print(report)

lad = load_graph("four_noise_b:b01")
fams = {
    "all": len(wick_pairings(lad, "all")),
    "top pair onto itself (12-12)": len(wick_pairings(lad, "12-12")),
    "top pair onto bottom pair (12-34)": len(wick_pairings(lad, "12-34")),
}
print("\nladder pairings:", fams)

same = canonical_form(wick_pairings(chain)[0]) == canonical_form(
    wick_pairings(chain.renamed({v: v + 10 for v in chain.kinds}))[0]
)
print("canonical form is relabelling invariant:", same)
