"""Independent reference implementations used by the test suite.

Everything here is written from the definitions, not from the library
internals: partition functions are literal sums over enumerated paths and
determinants are signed sums over permutations, so they share no code with
the recurrences and the elimination under test.
"""
import itertools
from fractions import Fraction
from functools import lru_cache

from hslg_lab.environment import Environment


@lru_cache(maxsize=None)
def paths_to(i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All up-right paths from (1,1) to (i,j) that keep j <= i."""
    if (i, j) == (1, 1):
        return (((1, 1),),)
    if not 1 <= j <= i:
        return ()
    out = []
    if j <= i - 1:
        out.extend(p + ((i, j),) for p in paths_to(i - 1, j))
    if j > 1:
        out.extend(p + ((i, j),) for p in paths_to(i, j - 1))
    return tuple(out)


def path_weight(env: Environment, path) -> Fraction:
    w = Fraction(1)
    for i, j in path:
        w *= env.weight_fraction(i, j)
    return w


def brute_partition(env: Environment, i: int, j: int) -> Fraction:
    """Sum of path weights, straight from the definition."""
    return sum((path_weight(env, p) for p in paths_to(i, j)), Fraction(0))


def brute_table(env: Environment) -> dict[tuple[int, int], Fraction]:
    return {(i, j): brute_partition(env, i, j) for i, j in env.sites()}


def permutation_det(matrix) -> Fraction:
    """Leibniz expansion: the signed sum over all k! permutations."""
    k = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Fraction(-1 if inversions % 2 else 1)
        for a in range(k):
            term *= matrix[a][perm[a]]
        total += term
    return total
