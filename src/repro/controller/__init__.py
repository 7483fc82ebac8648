"""Controller substrate: policy compiler, control channel, change logs."""

from .changelog import ChangeLog, ChangeRecord
from .channel import ControlChannel
from .compiler import build_instruction_batches, compile_logical_rules
from .controller import Controller

__all__ = [
    "ChangeLog",
    "ChangeRecord",
    "ControlChannel",
    "Controller",
    "build_instruction_batches",
    "compile_logical_rules",
]
