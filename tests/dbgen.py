"""Randomized small databases and constraint sets for the equivalence suites."""
from __future__ import annotations

import random

from mddmine import GE, LE, ConstraintSpec, Kind, make_database

ATTR_NAMES = ("t", "p", "q")
KINDS = (
    Kind.LENGTH, Kind.ITEM_SET, Kind.GAP, Kind.SPAN,
    Kind.MAX, Kind.MIN, Kind.SUM, Kind.AVG, Kind.MED,
)
#: the ranges ``random_spec`` draws bounds from, by kind; ``None`` covers the
#: kinds not named
NARROW_BOUNDS = {Kind.LENGTH: (1, 4), Kind.GAP: (-10, 15), Kind.SUM: (0, 60), None: (0, 20)}
#: bounds well past the values of ``wide_instance``'s attributes, and length
#: bounds that admit nothing or everything
WIDE_BOUNDS = {Kind.LENGTH: (-1, 5), Kind.SUM: (-100, 100), None: (-40, 40)}


def random_db(
    rng: random.Random,
    *,
    n_min: int = 5,
    n_max: int = 40,
    len_max: int = 8,
    items_max: int = 6,
    n_attrs: int | None = None,
    with_ordering: bool | None = None,
    values: tuple[int, int] = (0, 20),
):
    """A database with N in [n_min, n_max], lengths in [1, len_max], item ids
    in [1, items_max], and 1-3 integer attributes with values in ``values``.

    Half the time the first attribute is strictly increasing and declared as
    the ordering attribute, exercising the bisected rows for gap bounds.
    """
    n = rng.randint(n_min, n_max)
    if n_attrs is None:
        n_attrs = rng.randint(1, 3)
    if with_ordering is None:
        with_ordering = rng.random() < 0.5
    names = ATTR_NAMES[:n_attrs]
    lo, hi = values
    n_items = rng.randint(2, items_max)
    item_lists: list[list[int]] = []
    attrs: dict[str, list[list[int]]] = {name: [] for name in names}
    for _ in range(n):
        length = rng.randint(1, len_max)
        item_lists.append([rng.randint(1, n_items) for _ in range(length)])
        for idx, name in enumerate(names):
            if with_ordering and idx == 0:
                attrs[name].append(sorted(rng.sample(range(lo, hi + 1), length)))
            else:
                attrs[name].append([rng.randint(lo, hi) for _ in range(length)])
    ordering = names[0] if with_ordering else None
    return make_database(item_lists, attrs, ordering_attribute=ordering)


def random_spec(rng: random.Random, db, bounds=NARROW_BOUNDS) -> ConstraintSpec:
    kind = rng.choice(KINDS)
    direction = rng.choice((GE, LE))
    c_range = bounds.get(kind, bounds[None])
    if kind is Kind.LENGTH:
        return ConstraintSpec(kind, direction=direction, c=rng.randint(*c_range))
    if kind is Kind.ITEM_SET:
        universe = sorted(db.item_universe)
        size = rng.randint(1, len(universe))
        return ConstraintSpec(kind, items=frozenset(rng.sample(universe, size)))
    attr = rng.choice(db.attribute_names)
    return ConstraintSpec(kind, attribute=attr, direction=direction, c=rng.randint(*c_range))


def random_specs(rng: random.Random, db, max_specs: int = 3, bounds=NARROW_BOUNDS):
    return tuple(random_spec(rng, db, bounds) for _ in range(rng.randint(0, max_specs)))


def random_theta(rng: random.Random, db) -> int:
    return rng.randint(1, max(1, len(db) // 2))


def random_instance(seed: int):
    """One reproducible (db, specs, theta) triple."""
    rng = random.Random(seed)
    db = random_db(rng)
    return db, random_specs(rng, db), random_theta(rng, db)


def wide_instance(seed: int):
    """A small (db, specs, theta) triple with attribute values in [-30, 30]
    and bounds from ``WIDE_BOUNDS``: negative values, bounds no value
    reaches, and ``length`` bounds below one."""
    rng = random.Random(seed)
    db = random_db(rng, n_max=12, len_max=6, values=(-30, 30))
    return db, random_specs(rng, db, bounds=WIDE_BOUNDS), random_theta(rng, db)
