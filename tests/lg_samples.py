"""LG sets for the tests that need many of them: every modulus in the
upper half of [1, x], and random subsets of constructed sets."""

from lgsieve import LGParams, LGSet, construct


def upper_half_set(x):
    # every q in (x/2, x]: distinct members q < q' have lcm >= 2q' > x
    return LGSet(LGParams(x, 0.5), range(x // 2 + 1, x + 1))


def random_lg_set(x, rng, table, size=None):
    """A random subset, of ``size`` members or of a random size, of a
    constructed set or of ``upper_half_set(x)``; subsets of an LG set
    stay LG.  ``table`` must reach x, and ``rng`` must be a
    ``random.Random``: hypothesis's ``st.randoms()`` fails a sample of
    more than 8,192 members."""
    if rng.random() < 0.5:
        members = construct(LGParams(x, rng.choice([0.05, 0.2, 0.5])), table).members
    else:
        members = upper_half_set(x).members
    size = rng.randint(0, len(members)) if size is None else min(size, len(members))
    return LGSet(LGParams(x, 0.5), rng.sample(members, size))
