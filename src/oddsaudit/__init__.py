"""Exact-arithmetic auditing of likelihood-ratio odds updating.

The package represents joint distributions over a hypothesis partition and
binary evidence propositions with exact rationals, implements the
odds-product updating scheme over projective integer odds pairs, audits
conditional independence given each hypothesis and given each complement, and
verifies — by exact identity checks and exhaustive grid sweeps — that models
satisfying the full two-sided assumption set never let two evidence
propositions update the same hypothesis.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

#: Module -> the public names it defines, which ``__all__`` lists sorted.  Each name
#: is imported from its module on first use, so ``import oddsaudit`` loads none of them.
_MODULES = {
    "audit": ("AuditReport", "IndependenceViolation", "PairIdentities", "TheoremOutcome",
              "check_assumptions", "check_pair_identities", "render_report"),
    "construct": ("EXAMPLE_NAMES", "ConditionalSpec", "example_model", "from_conditionals",
                  "measurement_scenario"),
    "errors": ("DegeneratePriorError", "ImpossibleEvidenceError", "InvalidModelError",
               "ModelError", "ModelFormatError", "SweepLimitError", "ZeroProbabilityError"),
    "model": ("MAX_EVIDENCE", "Model", "Side", "bits_to_signs", "sign_vectors", "signs_to_bits"),
    "modelfile": ("dump", "dumps", "load", "loads"),
    "rational": ("parse_rational",),
    "sweep": ("DEFAULT_MAX_MODELS", "SweepConfig", "SweepResult", "SweepViolation",
              "spec_from_grid", "sweep", "witness_filename"),
    "updating": ("odds_posteriors",),
}
_HOMES = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type: the import system binds each submodule it loads
    as an attribute of the package, and a submodule named like a public name
    (``oddsaudit.sweep``) must not hide it, whichever is imported first."""

    def __setattr__(self, name: str, value) -> None:
        if name not in _HOMES or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
