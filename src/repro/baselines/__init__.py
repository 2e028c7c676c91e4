"""Baseline code-reuse tools: ROPGadget-, angrop-, and SGC-style."""

from .angrop import AngropLike
from .common import BaselineReport, BaselineTool
from .ropgadget import ROPGadgetLike
from .sgc import SGCLike

__all__ = [
    "AngropLike",
    "BaselineReport",
    "BaselineTool",
    "ROPGadgetLike",
    "SGCLike",
]
