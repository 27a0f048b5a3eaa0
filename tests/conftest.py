"""Shared fixtures and construction helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qmctree import DensityOperator, SubsystemLayout, classical_state

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def ghz_state() -> DensityOperator:
    """3-qubit GHZ projector |GHZ><GHZ| with |GHZ> = (|000> + |111>)/sqrt(2)."""
    layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    return DensityOperator(layout, np.outer(vec, vec.conj()))


def bell_state(labels=("A", "B")) -> DensityOperator:
    """Two-qubit Bell projector |Phi+><Phi+|."""
    layout = SubsystemLayout(tuple(labels), (2, 2))
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return DensityOperator(layout, np.outer(vec, vec.conj()))


def classical_chain(p_a, p_b_given_a, p_c_given_b,
                    labels=("A", "B", "C")) -> DensityOperator:
    """Diagonal embedding of p(a) p(b|a) p(c|b)."""
    p_a = np.asarray(p_a, float)
    p_ba = np.asarray(p_b_given_a, float)   # [a, b]
    p_cb = np.asarray(p_c_given_b, float)   # [b, c]
    joint = np.einsum("a,ab,bc->abc", p_a, p_ba, p_cb)
    dims = joint.shape
    layout = SubsystemLayout(tuple(labels), dims)
    return classical_state(layout, joint)


def random_conditional(rng, rows: int, cols: int) -> np.ndarray:
    """Row-stochastic matrix with entries bounded away from zero."""
    m = rng.uniform(0.1, 1.0, (rows, cols))
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def layouts(draw, max_factors=4):
    """Up to four labeled factors of dimension 1 to 3, in a random order."""
    n = draw(st.integers(2, max_factors))
    dims = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    labels = draw(st.permutations("ABCD"[:n]))
    return SubsystemLayout(tuple(labels), tuple(dims))


@st.composite
def local_cases(draw):
    """(target, x_sub, y_sub, seed): two sub-layouts of the target that
    together cover its factors, may share any of them, and each name
    their factors in any order."""
    target = draw(layouts())
    k = draw(st.integers(1, target.n))
    x_labels = draw(st.permutations(target.labels))[:k]
    rest = [l for l in target.labels if l not in x_labels]
    shared = draw(st.lists(
        st.sampled_from(x_labels), unique=True, min_size=0 if rest else 1
    ))
    y_labels = draw(st.permutations(rest + shared))

    def sub(labels):
        return SubsystemLayout(tuple(labels), tuple(target.dim_of(l) for l in labels))

    return target, sub(x_labels), sub(y_labels), draw(st.integers(0, 2**32 - 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
