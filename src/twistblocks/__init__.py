"""Twisted conformal-block dimensions for cyclic covers of curves.

Three independent pipelines compute the same integers: the twisted
Verlinde point sums, the Kac-Walton alternating sum, and the
factorization recursion.  See README for the CLI.
"""

from .alcove import (AlcoveEnumeration, FoldResult, enumerate_sigma_c,
                     fold_to_alcove, lattice_orders)
from .dims import (classical_verlinde, factorized_dimension, fusion_coefficient,
                   general_dimension, riemann_hurwitz_genus, twisted_three_point)
from .errors import (IllegalPair, InconsistentRamification, IntegralityError,
                     NonDominant, NotInAlphabet, SchemaError, UnstableInput,
                     UnsupportedCombination, UnsupportedType, VerlindeError)
from .kacwalton import KWLedger, euler_characteristic_report, kac_walton_dimension
from .liecore import Exponents, RootDatum, build_root_datum
from .twist import (TwistData, WeightSet, ambient_alphabet, branch_to_fixed,
                    build_twist, weight_alphabet)

__version__ = "0.1.0"
