"""Exact machinery for alternating-run polynomial families.

Everything is computed in exact rational arithmetic and every family is
reachable by at least two independent routes (recurrence, brute-force
enumeration, grammar derivative, closed-form generating function), so the
package doubles as its own cross-verification harness: see `altrun.verify`
and the `altrun` command-line tool.
"""

from .enumeration import distribution, generate, stat
from .errors import AltrunError
from .families import polyseq, q_specialize, triangle
from .fieldext import QuadExt, RatFunc
from .gammalab import (
    GammaForm,
    SemiGammaForm,
    david_barton_assemble,
    david_barton_identity_check,
    gamma_expand,
    gamma_to_lambda,
    semi_gamma_expand,
    split_even_odd,
)
from .grammar import Grammar, extract_row, named_grammar
from .multipoly import MultiPoly
from .polys import Poly, divide_exact, is_symmetric, root_multiplicity
from .serieslab import Series, egf_R, egf_T, egf_carlitz, egf_Rq, theta_power_r
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "AltrunError",
    "GammaForm",
    "Grammar",
    "MultiPoly",
    "Poly",
    "QuadExt",
    "RatFunc",
    "SemiGammaForm",
    "Series",
    "david_barton_assemble",
    "david_barton_identity_check",
    "distribution",
    "divide_exact",
    "egf_R",
    "egf_Rq",
    "egf_T",
    "egf_carlitz",
    "extract_row",
    "gamma_expand",
    "gamma_to_lambda",
    "generate",
    "is_symmetric",
    "named_grammar",
    "polyseq",
    "q_specialize",
    "root_multiplicity",
    "run_suite",
    "semi_gamma_expand",
    "split_even_odd",
    "stat",
    "theta_power_r",
    "triangle",
]
