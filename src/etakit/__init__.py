"""Exact eta invariants of lens spaces and lens-space bundles over finite
2-groups, mod-2 graded cohomology computations, and a verification harness
for the associated positive-scalar-curvature order accounting."""

from .exactnum import (CyclotomicNumber, InvariantError, cyclotomic_polynomial,
                       euler_phi, parse_cyclotomic, root_of_unity)
from .grouprep import (CharacterTable, FiniteGroup, FreeUnitaryRep,
                       InclusionMap, NotASubgroupMapError, NotFreeError,
                       NotIrreducibleError, OddLengthError,
                       UnsupportedGroupError, ValidationError,
                       VirtualCharacter, builtin_group, character_table,
                       cyclic_free_rep, frobenius_schur, is_quaternion_type,
                       is_real_type, quaternion_free_rep, restrict_virtual)
from .eta import (EtaValue, FloatRangeError, LensSpec, ManifoldSpec, Modulus,
                  NonRationalSumError, eta_donnelly, eta_donnelly_float,
                  eta_of, eta_of_float, eta_order, rational_determinant,
                  recursion_check, span_order_lower_bound, thm31_modulus)
from .f2ring import (DegeneratePairingError, DegreeBoundExceededError,
                     F2AlgebraElement, F2ParseError, GradedHom,
                     InconsistentSteenrodDataError, PresentedF2Algebra,
                     SteenrodData, circle_bundle_cohomology,
                     circle_bundle_steenrod, circle_bundle_to_lens,
                     d8_to_v2_restriction, dihedral_cohomology,
                     dual_pushforward_map, klein_cohomology,
                     lens_space_cohomology, sd_to_circle_bundle,
                     sd_to_d8_restriction, semidihedral_cohomology,
                     semidihedral_steenrod, sq1_branch_data,
                     stiefel_whitney, wu_classes)
from .glrverify import (ClaimResult, Report, kerap_lookup, run_report,
                        table_ko_order)

__version__ = "0.1.0"
