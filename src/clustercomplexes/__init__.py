"""Exact-arithmetic generalized cluster complexes of finite root systems.

Modules
-------
exact        rational / Q(sqrt5) scalars, matrices, Smith normal form
roots        root systems: construction, bipartition, parabolics, numerology
coxeter      group elements, reflection length, absolute order, root sequences
simplicial   facet-list simplicial complexes and f/h-vectors
colored      colored roots, compatibility, the complexes and their subcomplexes
topology     purity, shellings, integral homology, sphere counts, k-CM audits
noncrossing  multichain posets, Moebius functions, order-complex comparisons
cli          the ``clustercx`` command-line front end
"""

__version__ = "0.1.0"

from .roots import (RootSystem, Root, Numerology, bipartition,  # noqa: F401
                    build_root_system, numerology, parabolic, support)
from .coxeter import (GroupElement, absolute_leq, bipartite_coxeter,  # noqa: F401
                      reflection_length, rho_sequence, total_order,
                      typeA_oracles)
from .colored import (ColoredRoot, build_complex, fr_compatible,  # noqa: F401
                      is_face, positive_part, rm_map, subcomplex_below,
                      tau, deformed_coxeter, typeA_polygon_oracle,
                      word_of_face, restrict)
from .simplicial import SimplicialComplex, f_h_vectors  # noqa: F401
from .topology import (HomologyProfile, KCMReport, ShellingOrder,  # noqa: F401
                       codim1_incidence, construct_shelling,
                       fuss_narayana_positive, homology, kcm_audit,
                       verify_shelling, verify_wedge)
from .noncrossing import (MultichainTuple, Poset, build_Lm,  # noqa: F401
                          face_to_tuple, homotopy_compare, moebius,
                          nc_interval, order_complex)
from .exact import (Matrix, Scalar, fixed_space_dim,  # noqa: F401
                    reflection_matrix, smith_normal_form)
