"""Exact computations with nilpotent orbits, Springer isomorphisms,
and optimal SL2-homomorphisms for GL_n over F_p and Q."""

from .cochar import (Cocharacter, ParabolicData, distinguished_check,
                     levi_limit, radical_class)
from .errors import (BudgetError, DomainError, InconsistencyError,
                     OptSL2Error, PreconditionError)
from .jordan import (NilpotentJordanData, jordan_block, jordan_form,
                     nilpotent_jordan, nilpotent_partition)
from .matrices import Mat, bracket, det, inverse, rank, rank_nullspace, solve
from .orbits import (associated_cocharacter, block_weights,
                     centralizer_report, instability_parabolic,
                     is_associated, orbit_summary, order_formula_report,
                     parabolic_block_type, regular_richardson_for_borel,
                     rep_from_partition, weight_bound_check)
from .partitions import admissible, conjugate, partitions_of
from .scalars import Fp, FpDomain, QQ, RationalDomain
from .sl2 import (OptimalSL2Hom, build_optimal, conjugate_hom,
                  conjugate_optimal, d_hom, deform_to_levi, eval_hom,
                  exp_centralizer_check, exp_kernels_agree, gcr_check,
                  gcr_check_hom, hom_centralizer_check,
                  levi_containment_check, positive_commutant_basis,
                  radical_cochar_transporters, sl2_torus, sl2_x1,
                  sl2_y1, sym_power_rep, verify_limit, verify_optimal)
from .springer import (AdditiveHom, SpringerCoeffs, additive_derivative,
                       additive_eval, additive_untwist, eps_exp, eps_log,
                       orbit_bijection_check, springer_apply,
                       springer_coeffs_from_value, springer_invert)
from .suites import SUITE_NAMES, SuiteReport, run_suite
from .tilting import (CharacterVector, ModuleDescriptor,
                      TiltingDecomposition, adjoint_descriptor, char_of,
                      fixdim_of, tilting_decompose)

__version__ = "0.1.0"
