import numpy as np
import pytest

from tinopt import ChannelMatrix

# 3-user cyclic network used across the suite: each transmitter disturbs
# exactly one foreign receiver (0<-1 at 0.1, 1<-2 at 0.6, 2<-0 at 0.9),
# all direct exponents 1.  The optimality condition fails only for user 2.
EX2_ALPHA = np.array(
    [
        [1.0, 0.1, 0.0],
        [0.0, 1.0, 0.6],
        [0.9, 0.0, 1.0],
    ]
)


@pytest.fixture
def ex2() -> ChannelMatrix:
    return ChannelMatrix(EX2_ALPHA)


def symmetric_two_user(a: float) -> ChannelMatrix:
    return ChannelMatrix(np.array([[1.0, a], [a, 1.0]]))


def cycle_rows(poly) -> list:
    """A region's ``Polyhedron.rows`` as ``(users, rhs)`` pairs, one per cyclic sequence."""
    return [(tuple(seq), b) for C, rhs in poly.rows for seq, b in zip(C.tolist(), rhs.tolist())]
