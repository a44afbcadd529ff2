"""A screening scenario whose knowledge base holds relations that are not functions.

Every relation that ``synth`` writes is a function, so no aggregator family
appears in its outputs.  This scenario takes the training half of
``ScenarioSpec(seed=1)`` and adds ``RELATIONS`` seeded ``rel`` relations
over surnames, each covering part of them with one to three of ``TAGS``
tags, and a set-valued ``relatives`` column holding two surnames per
example (missing on some).  Generation at ``COVERAGE`` then makes ``any``
and ``majority`` families over atoms (a surname, a derived problem's value)
and over sets (``relatives``), with tokens that no relation covers.
"""

import random

from kbfg.data import Dataset, Example
from kbfg.kb import load_kb, schema_lines, triple_lines
from kbfg.synth import ScenarioSpec, gen_disorder_scenario

RELATIONS = 3
TAGS = 4
COVERED = 0.8           # share of the surnames each relation covers
NO_RELATIVES = 0.1      # share of the examples whose `relatives` is missing
COVERAGE = 0.5          # generation coverage threshold, below COVERED


def family_scenario():
    """(train, kb): the screening training set with `relatives`, and its KB
    with the `kin*` relations added."""
    train, _, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    rng = random.Random("kbfg-family-scenario")
    surnames = sorted({x.assignment["surname"] for x in train.examples})
    schema, triples = schema_lines(kb), triple_lines(kb)
    for r in range(RELATIONS):
        name = f"kin{r}"
        schema.append(f"{name}\tsurname\tkin\trel")
        for s in sorted(rng.sample(surnames, round(COVERED * len(surnames)))):
            for t in sorted(rng.sample(range(TAGS), rng.choice((1, 2, 3)))):
                triples.append(f"{name}\t{s}\t{name}.tag{t}")
    examples = []
    for x in train.examples:
        relatives = None if rng.random() < NO_RELATIVES else frozenset(rng.sample(surnames, 2))
        examples.append(Example(x.id, x.label, {**x.assignment, "relatives": relatives}))
    return (Dataset(examples, train.schema + [("relatives", "surname")]),
            load_kb(triples, schema))
