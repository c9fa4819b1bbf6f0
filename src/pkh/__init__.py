"""Khovanov homology of periodic link diagrams, with exact arithmetic."""

from .complexes import (GradedAbGroup, build_complex, graded_euler_characteristic,
                        khovanov_homology, khovanov_polynomial)
from .diagram import PeriodicDiagram, QuotientTangle, parse_diagram
from .errors import InvariantError, ParseError, PkhError, ValidationError
from .polynomials import BiPolynomial, LaurentPoly

__version__ = "0.1.0"
