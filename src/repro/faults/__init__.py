"""Fault injection framework: object faults, physical faults and campaigns."""

from .base import FaultKind, InjectedFault
from .injector import FaultInjector
from .object_faults import (
    inject_full_object_fault,
    inject_partial_object_fault,
    rules_for_object,
)
from .physical import (
    make_switch_unresponsive,
    restore_switch,
)

__all__ = [
    "FaultInjector",
    "FaultKind",
    "InjectedFault",
    "inject_full_object_fault",
    "inject_partial_object_fault",
    "make_switch_unresponsive",
    "restore_switch",
    "rules_for_object",
]
