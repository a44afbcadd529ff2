"""Deterministic synthetic datasets with known target concepts.

The flagship scenario models a screening task: the positive class is
"female with a surname originating from a desert-climate country".  The
dataset exposes only gender and surname; the KB holds surname->country and
country->climate facts, so the concept is reachable only by composing
through the knowledge base.  Test examples carry surnames never seen in
training (and, in a second variant, countries never seen in training), so
memorizing surnames cannot generalize.

Construction is quota-exact: class and exposure proportions are hit by
counting, not sampling, so acceptance bounds hold per seed rather than in
expectation.  The rng only shuffles which token gets which role.

``gen_random_tasks`` produces small two-hop relation graphs with 1- or
2-hop target concepts, a desk-scale stand-in for a large dataset
collection; only the seed and the number of tasks vary, the sizes are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from kbfg.data import Dataset, Example
from kbfg.kb import KnowledgeBase, load_kb

TEMPERATURES = ("hot", "temperate", "cold")
PRECIPITATIONS = ("low", "mid", "high")
VARIANTS = ("unseen-surname", "unseen-country")
# non-desert climate profiles; none is (hot, low)
_NON_DESERT = [("hot", "high"), ("temperate", "mid"), ("cold", "high"),
               ("temperate", "low"), ("cold", "mid")]


@dataclass
class ScenarioSpec:
    seed: int = 0
    n_train: int = 300
    n_test: int = 200
    n_surnames: Optional[int] = None     # None: one fresh surname per example
    n_countries: int = 12
    desert_fraction: float = 0.5
    noise: float = 0.0                   # training label flip rate
    variant: str = "unseen-surname"      # one of VARIANTS
    balanced_surname_groups: bool = False
    female_fraction: float = field(init=False)  # 0.5 if balanced, else 0.75

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if not 0 <= self.noise <= 1:
            raise ValueError("noise must be in [0, 1]")
        if self.n_countries < 4:
            raise ValueError("need at least 4 countries")
        if not 0 < self.desert_fraction < 1:
            raise ValueError("desert_fraction must be in (0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.balanced_surname_groups:
            if self.n_surnames is not None:
                raise ValueError("balanced surname groups fix n_surnames to n_train // 4")
            if self.n_train % 4:
                raise ValueError("balanced surname groups need n_train divisible by 4")
        self.female_fraction = 0.5 if self.balanced_surname_groups else 0.75
        surnames = self.n_train // 4 if self.balanced_surname_groups else self.n_surnames
        if surnames is not None and surnames < 16:
            raise ValueError("need at least 16 training surnames")


@dataclass
class LabelRule:
    """The generating concept: gender == 'f' and the surname's country is desert."""

    gender: str = "f"
    temperature: str = "hot"
    precipitation: str = "low"

    def label(self, assignment: Dict, kb: KnowledgeBase) -> int:
        if assignment.get("gender") != self.gender:
            return 0
        surname = assignment.get("surname")
        if surname is None:
            return 0
        for country in kb.lookup("countryOf", surname):
            if (self.temperature in kb.lookup("avgTemperature", country)
                    and self.precipitation in kb.lookup("precipitation", country)):
                return 1
        return 0

    def to_json(self) -> dict:
        return {"concept": "gender & desert-origin surname",
                "gender": self.gender, "avgTemperature": self.temperature,
                "precipitation": self.precipitation}


def _climate(n_countries: int, desert_fraction: float, rng: random.Random,
             prefix: str) -> Tuple[List[str], Dict[str, Tuple[str, str]], List[str]]:
    countries = [f"{prefix}{i:03d}" for i in range(n_countries)]
    shuffled = countries[:]
    rng.shuffle(shuffled)
    n_desert = min(n_countries - 1, max(1, round(n_countries * desert_fraction)))
    desert = sorted(shuffled[:n_desert])
    attrs: Dict[str, Tuple[str, str]] = {}
    for c in desert:
        attrs[c] = ("hot", "low")
    for i, c in enumerate(sorted(set(countries) - set(desert))):
        attrs[c] = _NON_DESERT[i % len(_NON_DESERT)]
    return countries, attrs, desert


def _quota_rows(n: int, female_fraction: float, desert_fraction: float,
                rng: random.Random) -> List[Tuple[str, bool]]:
    """(gender, wants_desert_country) per example, quota-exact then shuffled."""
    n_f = round(female_fraction * n)
    n_f_desert = round(desert_fraction * n_f)
    rows = [("f", True)] * n_f_desert + [("f", False)] * (n_f - n_f_desert)
    n_m = n - n_f
    n_m_desert = round(desert_fraction * n_m)
    rows += [("m", True)] * n_m_desert + [("m", False)] * (n_m - n_m_desert)
    rng.shuffle(rows)
    return rows


def gen_disorder_scenario(spec: ScenarioSpec):
    """The screening scenario: (train, test, kb, oracle).

    Positive label: gender f and surname of a hot/low-precipitation
    country.  Test surnames are disjoint from training surnames; under
    ``unseen-country`` the test surnames additionally map into a fresh set
    of countries (with climate facts present in the KB).
    """
    rng = random.Random(spec.seed)
    countries, attrs, desert = _climate(spec.n_countries, spec.desert_fraction,
                                        rng, "country")
    others = sorted(set(countries) - set(desert))
    rule = LabelRule()

    surname_country: Dict[str, str] = {}
    triples: List[str] = []
    schema = [
        "countryOf\tsurname\tcountry\tfn",
        "avgTemperature\tcountry\ttemperature\tfn",
        "precipitation\tcountry\tprecipitation\tfn",
    ]

    def pick(pool: List[str], i: int) -> str:
        return pool[i % len(pool)]

    def quota_examples(n: int, desert_pool: List[str], other_pool: List[str],
                       surname_prefix: str, id_prefix: str) -> List[Example]:
        """Quota rows over fresh surnames, each mapped into a pool's next country."""
        examples: List[Example] = []
        assigned = {True: 0, False: 0}
        rows = _quota_rows(n, spec.female_fraction, spec.desert_fraction, rng)
        for i, (gender, wants_desert) in enumerate(rows):
            surname = f"{surname_prefix}{i:04d}"
            pool = desert_pool if wants_desert else other_pool
            country = pick(pool, assigned[wants_desert])
            assigned[wants_desert] += 1
            surname_country[surname] = country
            label = int(gender == "f" and attrs[country] == ("hot", "low"))
            examples.append(Example(f"{id_prefix}{i:04d}", label,
                                    {"gender": gender, "surname": surname}))
        return examples

    train_examples: List[Example] = []
    if spec.balanced_surname_groups:
        # each surname carries exactly 2 female and 2 male patients, so the
        # surname-level majority label degenerates at the root (ties -> 0)
        # while staying informative inside the female context
        n_groups = spec.n_train // 4
        n_desert_groups = round(spec.desert_fraction * n_groups)
        group_desert = [True] * n_desert_groups + [False] * (n_groups - n_desert_groups)
        rng.shuffle(group_desert)
        idx = 0
        for g, is_desert in enumerate(group_desert):
            surname = f"s{g:04d}"
            country = pick(desert, g) if is_desert else pick(others, g)
            surname_country[surname] = country
            for gender in ("f", "f", "m", "m"):
                label = int(gender == "f" and is_desert)
                train_examples.append(Example(f"p{idx:04d}", label,
                                              {"gender": gender, "surname": surname}))
                idx += 1
    elif spec.n_surnames is not None:
        # shared surnames: desert-ness is a surname property, genders are
        # assigned by global quota independently of the surname grouping
        n_desert_surnames = round(spec.desert_fraction * spec.n_surnames)
        is_desert = [True] * n_desert_surnames \
            + [False] * (spec.n_surnames - n_desert_surnames)
        rng.shuffle(is_desert)
        for g, flag in enumerate(is_desert):
            surname = f"s{g:04d}"
            surname_country[surname] = pick(desert, g) if flag else pick(others, g)
        n_f = round(spec.female_fraction * spec.n_train)
        genders = ["f"] * n_f + ["m"] * (spec.n_train - n_f)
        rng.shuffle(genders)
        for i, gender in enumerate(genders):
            surname = f"s{i % spec.n_surnames:04d}"
            label = int(gender == "f" and surname_country[surname] in desert)
            train_examples.append(Example(f"p{i:04d}", label,
                                          {"gender": gender, "surname": surname}))
    else:
        train_examples = quota_examples(spec.n_train, desert, others, "s", "p")

    if spec.noise > 0:
        for ex in train_examples:
            if rng.random() < spec.noise:
                ex.label = 1 - ex.label

    if spec.variant == "unseen-country":
        test_countries, test_attrs, test_desert = _climate(
            spec.n_countries, spec.desert_fraction, rng, "newland")
        attrs.update(test_attrs)
        t_desert, t_others = test_desert, sorted(set(test_countries) - set(test_desert))
    else:
        t_desert, t_others = desert, others

    test_examples = quota_examples(spec.n_test, t_desert, t_others, "t", "q")

    for surname in sorted(surname_country):
        triples.append(f"countryOf\t{surname}\t{surname_country[surname]}")
    for country in sorted(attrs):
        temp, prec = attrs[country]
        triples.append(f"avgTemperature\t{country}\t{temp}")
        triples.append(f"precipitation\t{country}\t{prec}")

    kb = load_kb(triples, schema)
    ds_schema = [("gender", "gender"), ("surname", "surname")]
    train = Dataset(train_examples, list(ds_schema))
    test = Dataset(test_examples, list(ds_schema))
    return train, test, kb, rule


@dataclass
class RandomTaskRule:
    """Concept for a generated task: 1-hop (group membership) or 2-hop (trait)."""

    hops: int
    positive: Tuple[str, ...]

    def label(self, assignment: Dict, kb: KnowledgeBase) -> int:
        item = assignment.get("item")
        if item is None:
            return 0
        groups = kb.lookup("groupOf", item)
        if self.hops == 1:
            return int(any(g in self.positive for g in groups))
        for g in groups:
            if any(t in self.positive for t in kb.lookup("traitOf", g)):
                return 1
        return 0

    def to_json(self) -> dict:
        return {"hops": self.hops, "positive": sorted(self.positive)}


@dataclass
class SynthTask:
    name: str
    train: Dataset
    test: Dataset
    kb: KnowledgeBase
    oracle: RandomTaskRule


def gen_random_tasks(seed: int = 0, n_tasks: int = 10) -> List[SynthTask]:
    """Tasks whose concepts require one or two KB hops from an id-like column.

    Every item is unique to its example (test items unseen in training), so
    the base features alone cannot express the concept; the group and trait
    layers are shared, which is what the generated features exploit.  The
    sizes are fixed: 120 training and 60 test rows, 10 groups, 4 traits.
    """
    n_groups, n_traits = 10, 4
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    tasks = []
    for t in range(n_tasks):
        rng = random.Random(f"{seed}:{t}")
        groups = [f"g{t}_{i:02d}" for i in range(n_groups)]
        traits = [f"a{t}_{i}" for i in range(n_traits)]
        trait_of = {g: traits[rng.randrange(n_traits)] for g in groups}
        hops = 1 + (t % 2)
        if hops == 1:
            positive = tuple(sorted(rng.sample(groups, n_groups // 2)))
            group_label = {g: int(g in positive) for g in groups}
        else:
            while True:
                positive = tuple(sorted(rng.sample(traits, n_traits // 2)))
                group_label = {g: int(trait_of[g] in positive) for g in groups}
                if len(set(group_label.values())) == 2:
                    break
        rule = RandomTaskRule(hops, positive)

        schema = ["groupOf\titem\tgroup\tfn", "traitOf\tgroup\ttrait\tfn"]
        triples = [f"traitOf\t{g}\t{trait_of[g]}" for g in sorted(groups)]

        def make_split(prefix: str, n: int, id_prefix: str) -> List[Example]:
            out = []
            order = [groups[i % n_groups] for i in range(n)]
            rng.shuffle(order)
            for i, g in enumerate(order):
                item = f"{prefix}{t}_{i:04d}"
                triples.append(f"groupOf\t{item}\t{g}")
                out.append(Example(f"{id_prefix}{i:04d}", group_label[g],
                                   {"item": item, "shade": f"sh{rng.randrange(4)}"}))
            return out

        train_examples = make_split("x", 120, "tr")
        test_examples = make_split("y", 60, "te")
        kb = load_kb(triples, schema)
        ds_schema = [("item", "item"), ("shade", "shade")]
        tasks.append(SynthTask(
            f"task{t:02d}",
            Dataset(train_examples, list(ds_schema)),
            Dataset(test_examples, list(ds_schema)),
            kb, rule))
        for split in (tasks[-1].train, tasks[-1].test):
            assert len(set(split.labels)) == 2, "generated split must carry both classes"
    return tasks
