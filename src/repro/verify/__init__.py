"""Verification substrate: ROBDD library, atomic predicates and the checker."""

from .atoms import AtomTable
from .bdd import BDD
from .checker import (
    ENGINES,
    EquivalenceChecker,
    EquivalenceReport,
    SwitchCheckResult,
)
from .encoding import DEFAULT_RULE_SPACE, RuleSpace

__all__ = [
    "AtomTable",
    "BDD",
    "DEFAULT_RULE_SPACE",
    "ENGINES",
    "EquivalenceChecker",
    "EquivalenceReport",
    "RuleSpace",
    "SwitchCheckResult",
]
