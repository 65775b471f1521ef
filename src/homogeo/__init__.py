"""homogeo: symbolic verification of homogeneity-graded structures on a
trivialized line bundle chart.

The package couples a small exact-rational expression kernel (parser,
differentiation, probabilistic zero test on compiled tapes evaluated in
floats, over GF(p) and in exact rationals) with coordinate tensor
calculus, and uses them to machine-check the dictionaries between
scaling-homogeneous frame structures upstairs and geometric data on the
base: contact pairs, cosymplectic pairs, fiberwise complex structures, and
metric triples with their curvature tensors.

Everything is immutable and every operation is pure; concurrent use needs
no locking, and all random verdicts are deterministic per seed.  The
package uses only the Python standard library.
"""

from .expr import (Constraint, DomainError, Expr, InvalidObjectError, diff,
                   eval_exact, rat, sign_of, simplify, subs, to_dsl, var)
from .parser import ParseError, UnknownIdentifierError, parse
from .zerotest import (ConfigError, DEFAULT_POLICY, ZeroTestPolicy,
                       ZeroVerdict, all_zero, is_zero, zero_report)
from .chart import Chart, ChartError, SmoothMap
from .tensors import (Endo11, KForm, SymTensor2, VectorField, d, interior,
                      lie_bracket, lie_derivative, one_form, pullback,
                      pushforward, sym_product, wedge, zero_form)
from .metric import (DegeneracyError, christoffel, flat, metric_inverse,
                     riemann, sectional_curvature, sharp)
from .linebundle import (AtiyahObject, DEG0, DEG1, DEG_ABS, DEG_SQRT_ABS,
                         DegreeError, LineBundleScenario, NotBasicError,
                         ScalarDegree, d_D, i_I)
from .groups import (DegreeHom, GL, GLC, GroupId, NotInNormalizerError, O,
                     SP, coset_eq, hom_eval, hom_eval_symbolic, in_normalizer,
                     member, normalizer_p, splitting, std_J)
from .frames import (ChartHomReport, CosetReport, Frame, NotHomogeneousError,
                     TransitionResult, build_frame, chart_frame, degree_coset,
                     frames_G_equivalent, is_homogeneous_chart, transition)
from .contact import (ContactPair, InvalidPairError, check_pair,
                      darboux_homogeneous_chart, frame_to_omega,
                      integrability_report, omega_to_pair, pair_to_omega,
                      sp_frame_from_omega, standard_darboux_pair)
from .cosymplectic import (CosymplecticPair, check_cosymplectic,
                           integrability_report0, pair_to_omega0,
                           standard_cosymplectic_pair)
from .complexstruct import (AlmostComplex, frame_to_j, integrability_report_c,
                            nijenhuis)
from .riemannian import (AlgebroidConnection, AlgebroidMetric, MetricTriple,
                         curvature_RD, flatness_report, frame_to_gtilde,
                         gtilde_to_triple, koszul_connection, sphere_flat_chart,
                         sphere_triple, tensors_ABCD, triple_to_G,
                         triple_to_gtilde, verify_rd_formulas)

__version__ = "0.1.0"
