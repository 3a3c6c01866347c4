"""Ground truth for the classify workload: one entry per cocycle pair.

Each entry fixes whether the pair is cohomologous (similar) and the center
dimension of the twisted group algebra of each side, and says why.  The
random coboundary twists drawn from the seed change the witness, never the
answer: a coboundary twist stays in the same cohomology class, and similar
cocycles give isomorphic algebras, hence equal center dimensions.
"""

from __future__ import annotations

from typing import NamedTuple


class Truth(NamedTuple):
    similar: bool
    center: tuple      # (center dimension of the first cocycle, of the second)
    why: str


TRUTH = {
    "Z8xZ8 bilinear ~ twist4": Truth(True, (1, 1), "the second side is the first times the coboundary of a drawn mu_4 witness; bilinear e^{2 pi i s1 t2/8} is the quantum torus with gcd(1, 8) = 1, so its center is the scalars"),
    "Z8xZ8 bilinear ~ twist12": Truth(True, (1, 1), "the second side is the first times the coboundary of a drawn mu_12 witness (root order lcm 24); center 1 as for the quantum torus with gcd(1, 8) = 1"),
    "Z8xZ8 bilinear / twist6 of trivial": Truth(False, (1, 64), "on an abelian group a coboundary is symmetric, but the bilinear cocycle's ratio sigma(s,t)/sigma(t,s) = e^{2 pi i (s1 t2 - t1 s2)/8} is not 1; a twisted trivial cocycle gives an algebra isomorphic to the commutative C[Z8xZ8], center |G| = 64"),
    "D20 trivial ~ twist6": Truth(True, (13, 13), "the second side is the trivial cocycle times a drawn mu_6 coboundary; the center of C[D20] (order 40) has one dimension per conjugacy class: {1}, {r^10}, 9 pairs {r^k, r^-k} and 2 reflection classes = 13"),
    "Z6xZ6 bilinear ~ twist12": Truth(True, (1, 1), "the second side is the first times a drawn mu_12 coboundary; quantum torus with gcd(1, 6) = 1 has center dimension 1"),
    "Z6xZ6 bilinear / trivial": Truth(False, (1, 36), "bilinear e^{2 pi i s1 t2/6} has a nontrivial antisymmetrisation, so it is no coboundary on the abelian group; C[Z6xZ6] is commutative, center |G| = 36"),
    "S5 twist4 ~ trivial": Truth(True, (7, 7), "the first side is the trivial cocycle times a drawn mu_4 coboundary; the center of C[S5] has one dimension per conjugacy class, i.e. per partition of 5: 7"),
    "Z11xZ11 bilinear / trivial": Truth(False, (1, 121), "bilinear e^{2 pi i s1 t2/11} has a nontrivial antisymmetrisation, so it is no coboundary; gcd(1, 11) = 1 gives center 1, and the commutative C[Z11xZ11] has center |G| = 121"),
}
