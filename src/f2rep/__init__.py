"""Orders, cofactors, and odd-density statistics of GF(2) polynomials.

The package studies polynomials f over GF(2) with f(0) = 1 through the
cofactor f* = (1 + x^D)/f at the order D: the balance of ones and zeros in
f*, the exact odd density gamma, robustness, two parametric quadrinomial
families achieving high density with closed-form cofactors, the equivalent
counting problem for generalized binary representations (Stern's sequence
included), and exhaustive scan / census / figure data generation.
"""

from . import families, gf2poly, order_beta, representations, search
from .families import *
from .gf2poly import *
from .order_beta import *
from .representations import *
from .search import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (gf2poly, order_beta, families, representations, search)
    for name in module.__all__
]
