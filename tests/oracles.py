"""Test-only oracles: slow, direct computations that the tests compare the
library against.  Nothing in `src/` or `perfbench/` calls them."""
from zipcone import linalg


def inversion_length(rd, matrix) -> int:
    """ell(w) = #{beta in Phi+ : w(beta) in Phi-}."""
    count = 0
    for root in rd.positive_roots():
        if not rd.is_positive_root_vector(linalg.mat_vec(matrix, root)):
            count += 1
    return count
