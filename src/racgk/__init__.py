"""Equivariant K-theory of right-angled Coxeter groups by exact integer
linear algebra."""

from .graphs import (Graph, GraphError, clique_counts, enumerate_spherical,
                     parse_graph, poset_chains, validate_decomposition)
from .repring import (RepRingElement, RepRingError, character_evaluation,
                      character_interpolation, rep_multiply, restriction)
from .kring import (BAR, STAR, CompletedElement, KRingElement, KRingError,
                    augmentation, complete, completed_multiply, convert_basis,
                    ideal_power, ideal_powers, mayer_vietoris_check,
                    multiply_bar, multiply_star, presentation_report,
                    restrict_to_clique)
from .bredon import (CochainComplex, build_bredon_complex, cohomology,
                     interval_tensor_kunneth, inverse_limit, rho_surjectivity)
from .charlab import (lemma_c4_real_report, lemma_d8_report, verify_tau)

__version__ = "0.1.0"
