"""Exact-arithmetic toolkit for rank-2 cluster scattering diagrams."""

from .lattice import FixedData
from .scattering import Diagram, Wall, complete_rank2, complete_diagram
from .series import WallFunction, LaurentPoly
from .brokenline import BrokenLine, Segment, Piece, theta, enumerate_lines
from .constructions import (BalancedPair, structure_constant, alpha_table,
                            construct_segment, glue_balanced, pair_from_segment)
from .convexity import (CheckReport, is_blc_2d, blc_hull_2d, check_positive,
                        main_theorem_harness)

__all__ = [
    "FixedData", "Diagram", "Wall", "complete_rank2", "complete_diagram",
    "WallFunction", "LaurentPoly", "BrokenLine", "Segment", "Piece", "theta",
    "enumerate_lines", "BalancedPair", "structure_constant", "alpha_table",
    "construct_segment", "glue_balanced", "pair_from_segment", "CheckReport",
    "is_blc_2d", "blc_hull_2d", "check_positive", "main_theorem_harness",
]

__version__ = "0.1.0"
