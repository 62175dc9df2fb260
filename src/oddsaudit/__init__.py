"""Exact-arithmetic auditing of likelihood-ratio odds updating.

The package represents joint distributions over a hypothesis partition and
binary evidence propositions with exact rationals, implements the
odds-product updating scheme over projective integer odds pairs, audits
conditional independence given each hypothesis and given each complement, and
verifies — by exact identity checks and exhaustive grid sweeps — that models
satisfying the full two-sided assumption set never let two evidence
propositions update the same hypothesis.
"""

from .audit import (
    AuditReport,
    IndependenceViolation,
    PairIdentities,
    TheoremOutcome,
    check_assumptions,
    check_pair_identities,
    render_report,
)
from .construct import (
    EXAMPLE_NAMES,
    ConditionalSpec,
    example_model,
    from_conditionals,
    measurement_scenario,
)
from .errors import (
    DegeneratePriorError,
    ImpossibleEvidenceError,
    InvalidModelError,
    ModelError,
    ModelFormatError,
    SweepLimitError,
    ZeroProbabilityError,
)
from .model import (
    MAX_EVIDENCE,
    Model,
    Side,
    bits_to_signs,
    sign_vectors,
    signs_to_bits,
)
from .modelfile import dump, dumps, load, loads
from .rational import parse_rational
from .sweep import (
    DEFAULT_MAX_MODELS,
    SweepConfig,
    SweepResult,
    SweepViolation,
    spec_from_grid,
    sweep,
    witness_filename,
)
from .updating import odds_posteriors

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ConditionalSpec",
    "DEFAULT_MAX_MODELS",
    "DegeneratePriorError",
    "EXAMPLE_NAMES",
    "ImpossibleEvidenceError",
    "IndependenceViolation",
    "InvalidModelError",
    "MAX_EVIDENCE",
    "Model",
    "ModelError",
    "ModelFormatError",
    "PairIdentities",
    "Side",
    "SweepConfig",
    "SweepLimitError",
    "SweepResult",
    "SweepViolation",
    "TheoremOutcome",
    "ZeroProbabilityError",
    "bits_to_signs",
    "check_assumptions",
    "check_pair_identities",
    "dump",
    "dumps",
    "example_model",
    "from_conditionals",
    "load",
    "loads",
    "measurement_scenario",
    "odds_posteriors",
    "parse_rational",
    "render_report",
    "sign_vectors",
    "signs_to_bits",
    "spec_from_grid",
    "sweep",
    "witness_filename",
]
