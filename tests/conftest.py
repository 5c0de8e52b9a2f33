import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from knotcert import decomp
from knotcert.synth import hyperbolic_example

# exact arithmetic on worst-case inputs can be slow on loaded machines;
# correctness, not latency, is what these properties check
settings.register_profile("knotcert", deadline=None, derandomize=True)
settings.load_profile("knotcert")


def letters_strategy(max_gen: int = 4):
    return st.integers(min_value=1, max_value=max_gen).flatmap(
        lambda g: st.sampled_from([g, -g])
    )


def words_strategy(max_gen: int = 4, max_len: int = 12):
    return st.lists(letters_strategy(max_gen), max_size=max_len).map(tuple)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def expand_commutator(entries, degree):
    """Magnus expansion of the left-normed commutator on ``entries``.

    It is built by the nested series products that ``decomp.stage_factors``
    uses, so tests can hold that path against letterwise ``expand``.
    """
    return decomp._expand_nest_pair(tuple(entries), degree)[0]


def spine_example(genus, n):
    """Certificate whose 2g pushoffs are weight-(n+1) pair commutators."""
    return hyperbolic_example(genus, n, conjugated=False)
