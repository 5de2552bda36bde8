"""
Jordan chains, Weyr levels, and the conjugate partition
=======================================================

A nilpotent structure can be read by chains (Jordan: block sizes) or by
levels (Weyr: how many chains reach each height).  The two partitions are
conjugates of each other, the change of basis is a permutation, and the
level form makes "commutes with A" a visible block pattern.
"""
from quatrev.canonical import (JordanSpec, basic_weyr_matrix, jordan_matrix,
                               jordan_weyr_permutation,
                               weyr_centralizer_sample)
from quatrev.matrix import QMatrix
from quatrev.partitions import Partition, weyr_structure_of
from quatrev.reversers import weyr_reverser
from quatrev.scalar import Q_J, gr


def show(name, m):
    print(f"{name} =")
    for i in range(m.n_rows):
        print("   ", "  ".join(f"{str(m.entry(i, j)):>8}"
                               for j in range(m.n_cols)))


# conjugating a partition flips its Young diagram across the diagonal
p = Partition.of([3, 2, 2])
print("partition        :", p.parts)
print("conjugate        :", p.conjugate().parts)
print("conjugate twice  :", p.conjugate().conjugate().parts)
print("level sizes      :", weyr_structure_of(p).sizes)

# chain basis vs level basis for one eigenvalue class
lam = gr("3/5", "4/5")
spec = JordanSpec.of([(lam, s) for s in p.parts])
aj = jordan_matrix(spec)
aw = basic_weyr_matrix(lam, weyr_structure_of(p))
perm = jordan_weyr_permutation(p)
print("\nP is a permutation matrix; P J P^-1 equals the level form:",
      perm * aj * perm.inverse() == aw)

# in the level form, everything commuting with A is block upper triangular
# with a nested repetition pattern; sample one and check
k = weyr_centralizer_sample(weyr_structure_of(p), seed=7)
print("random centralizer sample commutes:", k * aw == aw * k)

# the level-form reverser: a blocked analogue of the single-block omega,
# times the quaternion unit j, conjugates the level form to its inverse
om = weyr_reverser(lam, p)
tau = om * QMatrix.scalar(p.total, Q_J)
print("tau A_W tau^-1 == A_W^-1:", tau * aw == aw.inverse() * tau)

# small enough to look at: the blocked reverser for chain lengths (2, 1)
small = Partition.of([2, 1])
show("\nblocked reverser for chains (2,1) at lambda = 3/5+4/5i",
     weyr_reverser(lam, small))
