"""Exact arithmetic for power sums of Gaussian integers modulo n.

The package evaluates sigma_k(n), the sum of (a+bi)^k over the square
1 <= a, b <= n reduced mod n, through a stack of mutually checking routes
(closed form, binomial expansion, brute force), characterizes the congruence
sets where the sum vanishes, computes their asymptotic densities in exact
rational arithmetic, and searches a Gaussian analogue of a classical
power-sum Diophantine equation.
"""

from .arith import decimal_render, factorize, sieve_inert_primes
from .binomial_sums import binom_mod_p, dilcher_sum, hermite_sum, signed_lacunary_sum
from .closed_form import (
    row_witness_primes,
    sigma_closed,
    sigma_expansion,
    witness_primes,
)
from .congruence_sets import diagonal_witness, divides_sigma
from .density import (
    DiagonalBracket,
    diagonal_bracket,
    intersection_density,
    sieve_complement_count,
    tail_bound,
    union_density,
    zero_row_density,
)
from .gaussian import GaussianInt, GaussianResidue, sigma_brute, sigma_exact
from .moser_search import Solution, search_solutions
from .power_sums import s_mod_closed, s_mod_naive

__version__ = "0.1.0"

__all__ = [
    "DiagonalBracket",
    "GaussianInt",
    "GaussianResidue",
    "Solution",
    "binom_mod_p",
    "decimal_render",
    "diagonal_bracket",
    "diagonal_witness",
    "dilcher_sum",
    "divides_sigma",
    "factorize",
    "hermite_sum",
    "intersection_density",
    "row_witness_primes",
    "s_mod_closed",
    "s_mod_naive",
    "search_solutions",
    "sieve_complement_count",
    "sieve_inert_primes",
    "sigma_brute",
    "sigma_closed",
    "sigma_exact",
    "sigma_expansion",
    "signed_lacunary_sum",
    "tail_bound",
    "union_density",
    "witness_primes",
    "zero_row_density",
]
