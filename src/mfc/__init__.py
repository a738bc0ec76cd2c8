"""Symbolic calculus of thick (microformal) morphisms of supermanifolds."""

from .superalg import (
    EVEN,
    ODD,
    Chart,
    ChartMismatch,
    ParityError,
    SuperSeries,
    Variable,
    deriv,
    mul,
    partial,
    substitute,
    truncate,
)

__all__ = [
    "EVEN", "ODD", "Chart", "ChartMismatch", "ParityError",
    "SuperSeries", "Variable", "deriv", "mul", "partial",
    "substitute", "truncate",
]

__version__ = "0.1.0"
