"""Property tests drawn by hypothesis (an optional test dependency).

derandomize=True makes every run draw the same examples, so a failure
reproduces.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from twistblocks import build_root_datum

_SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2), ("D", 4)]


@st.composite
def _datum_and_two_weights(draw):
    t, r = draw(st.sampled_from(_SMALL_TYPES))
    coord = st.integers(0, 2 if r <= 2 else 1)
    lam = tuple(draw(coord) for _ in range(r))
    mu = tuple(draw(coord) for _ in range(r))
    return build_root_datum(t, r), lam, mu


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_datum_and_two_weights())
def test_klimyk_either_factor_and_dimension(case):
    rd, lam, mu = case
    ab = rd.tensor_with_character(lam, rd.weight_system(mu))
    ba = rd.tensor_with_character(mu, rd.weight_system(lam))
    assert ab == ba
    total = sum(m * rd.weyl_dimension(kappa) for kappa, m in ab.items())
    assert total == rd.weyl_dimension(lam) * rd.weyl_dimension(mu)
