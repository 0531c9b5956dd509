"""Maximum weight spectrum and quasi-minimal linear codes over GF(q).

Construction, verification, search, and bound evaluation for codes whose
nonzero codewords realize the maximum possible number of distinct weights
(MWS) or distinct supports (QM).
"""

from .bounds import (
    BoundsReport,
    binom_sq_sum,
    bounds_report,
    bounds_table,
    entropy_q,
    eqbound_min_n,
    eqbound_value,
    exact_mws_length,
    lambda_q,
    max_term,
    mu_q,
    mws_lower_bound,
)
from .codes import (
    EnumerationTooLargeError,
    LinearCode,
    WeightSpectrum,
    codeword,
    is_mws,
    is_mws_lemma,
    is_qm,
    mws_criterion_sum,
    projective_representatives,
    qm_sufficient_dD,
    qm_sufficient_dn,
    spectrum_report,
    support,
    weight_spectrum,
    weighted_weight,
)
from .constructions import (
    NotQuasiMinimalError,
    embed_f,
    generalized_repetition,
    identity_code,
    mws_pipeline,
    simplex,
)
from .gf import GF, FieldTooLargeError, NotPrimePowerError, build_field
from .matrixio import dumps_code, load_code, loads_code, save_code
from .search import (
    ExpectationEstimate,
    SearchConfig,
    SearchSpaceTooLargeError,
    estimate_expectation,
    gv_qm_search,
    random_code,
    search,
    trial_rng,
)

__version__ = "0.1.0"
