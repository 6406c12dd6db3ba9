"""Exact-arithmetic generalized cluster complexes of finite root systems.

Modules
-------
exact        rational / Q(sqrt5) scalars, matrices, Smith normal form
roots        root systems: construction, products; supports and numerology
             are RootSystem methods
coxeter      group elements, reflection length, absolute order, root
             sequences
simplicial   facet-list complexes and induced subcomplexes; f/h-vectors
colored      colored roots, compatibility, the complexes, positive parts,
             the polygon model
topology     purity, shellings, integral homology, sphere counts, k-CM audits
noncrossing  multichain posets on simple-root images, Moebius functions,
             and the homotopy comparison read off two face tables
cli          the ``clustercx`` command-line front end
"""

__version__ = "0.1.0"

from .roots import (RootSystem, Root, Numerology,  # noqa: F401
                    build_root_system)
from .coxeter import (GroupElement, absolute_leq, bipartite_coxeter,  # noqa: F401
                      rho_sequence, total_order)
from .colored import (ColoredRoot, build_complex, fr_compatible,  # noqa: F401
                      is_face, positive_part, rm_map, tau, deformed_coxeter,
                      typeA_polygon_oracle)
from .simplicial import SimplicialComplex, f_h_vectors  # noqa: F401
from .topology import (HomologyProfile, KCMReport, ShellingOrder,  # noqa: F401
                       codim1_incidence, construct_shelling, homology,
                       kcm_audit, sharpness_witness, verify_shelling)
from .noncrossing import (Poset, build_Lm, face_to_tuple,  # noqa: F401
                          homotopy_compare, moebius, nc_interval,
                          order_complex)
from .exact import Matrix, Scalar, smith_normal_form  # noqa: F401
