"""Risk models: bipartite dependency graphs between EPG pairs and policy objects."""

from .augment import augment_controller_model, augment_switch_model
from .controller_model import ControllerElement, build_controller_risk_model
from .model import RiskModel
from .switch_model import build_switch_risk_model

__all__ = [
    "ControllerElement",
    "RiskModel",
    "augment_controller_model",
    "augment_switch_model",
    "build_controller_risk_model",
    "build_switch_risk_model",
]
