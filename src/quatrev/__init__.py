"""Exact reversibility certificates in quaternionic special linear groups.

Classifies elements of SL(n, H) (and its projective quotient) by whether
they are conjugate to their inverse or to the negative of their inverse,
and constructs exact, self-verifying conjugator certificates: involutions,
skew-involutions, and the resulting factorizations of an element into a
product of two involutions or two skew-involutions.  All core arithmetic
is exact over the rationals; the float front end, ``quatrev.numeric``
(not imported here, and the only module that imports numpy), recovers
exact Jordan data from numeric matrices.

Classes
-------
GaussianRational, Quaternion    exact scalars
QMatrix                         dense exact matrices (entries in H or C)
Partition, WeyrStructure        block-size combinatorics
JordanSpec                      normalized multiset of Jordan blocks
Classification                  reversibility flags with witnesses
Certificate, Factorization      verified conjugators and factor pairs

Functions (selection)
---------------------
classify_psl(spec)              all reversibility flags at once
assemble_reverser(spec, ...)    conjugator certificate for a whole spec
factorize(a, c)                 A = s1 s2 from a verified certificate

Example
-------
>>> from quatrev import JordanSpec, classify_psl
>>> spec = JordanSpec.of([("2", 1), ("1/2", 1)])
>>> classify_psl(spec).reversible
True
"""
from .scalar import (GaussianRational, Quaternion, class_rep,
                     class_rep_inverse, class_rep_neg_inverse, gr,
                     parse_complex, parse_rational, quat)
from .matrix import (QMatrix, block_diagonal, is_involution,
                     is_skew_involution, phi_embed, place_blocks, qdet)
from .partitions import (Partition, WeyrStructure, parse_partition,
                         weyr_structure_of)
from .canonical import (JordanSpec, basic_weyr_matrix, jordan_block,
                        jordan_matrix, jordan_weyr_permutation,
                        weyr_centralizer_sample)
from .classify import (Classification, classify_psl, involution_pairing,
                       inverse_pairing, is_neg_reversible, is_reversible,
                       is_strongly_reversible, neg_inverse_pairing)
from .reversers import (Certificate, ReversibleShape, assemble_reverser,
                        block_reverser, certify, neg_reverser_i_matrix,
                        shape_matrix, shape_reverser, weyr_reverser)
from .check import VerifyReport
from .decompose import (Factorization, factorize,
                        product_involution_skew, product_two_involutions,
                        product_two_skew_involutions, verify_certificate)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
