"""Numerical workbench for twisted group algebras of finite groups.

Constructs 2-cocycles, twisted convolution algebras and projective
regular representations, and computes Fourier-Stieltjes norms, completely
bounded multiplier norms (via a semidefinite program on the Schur symbol),
and Littlewood T2 norms, cross-validating the first two through the
amenability norm equality that holds for every finite group.
"""

from .algebra import (CentralExtension, GroupFunction, TwistedOperator,
                      bullet_action, center_dimension, central_extension,
                      comultiply, comultiply_pair, delta, lift, lift_matrix,
                      load_function, operator_coefficients, pair_operator,
                      regular_rep_tensor, save_function, twisted_convolve,
                      twisted_involution)
from .cocycles import (CoboundaryWitness, Cocycle, bilinear_cocycle,
                       coboundary_test, cocycle_conjugate, cocycle_product,
                       load_cocycle, normalize_cocycle, random_coboundary_twist,
                       save_cocycle, similarity_apply, trivial_cocycle,
                       unify_root_orders, validate_cocycle)
from .errors import (CertificateError, CocycleViolation, DegenerateState,
                     DimensionMismatch, GroupMismatch, InvalidTable,
                     MissingCoefficients, NotCyclicProduct, NotHermitian,
                     NotPositiveDefinite, SolverFailure, TwistaError,
                     UnsupportedSize, ZeroVector)
from .groups import (FiniteGroup, build_group, cyclic, cyclic_product,
                     dihedral, direct_product, element_order, from_table,
                     load_group, save_group, symmetric, validate_table)
from .linalg import eig_hermitian, operator_norm, trace_norm
from .littlewood import T2Split, max_col_l2, max_row_l2, t2_split
from .norms import __getattr__  # noqa: F401  SDPSolution, gamma2 load sdp lazily
from .norms import (AmenabilityReport, FourierStieltjesCertificate,
                    MultiplierCertificate, amenability_report,
                    amplified_fs_norm, cb_multiplier_norm,
                    fourier_stieltjes_norm, littlewood_T2_norm,
                    littlewood_norm, multiplier_apply, schur_action_norm,
                    schur_symbol)
from .positivity import (GNSResult, autocorrelation_pd, coefficient, gns,
                         is_sigma_pd, pd_kernel, positive_type_check,
                         positive_type_value)

__version__ = "0.1.0"

