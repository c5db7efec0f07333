import pytest

from mddmine import (
    attach_attributes,
    build_mdd,
    generate_attributes,
    generate_sessions,
    make_database,
    parse_constraint,
)
from mddmine.cli import SCENARIOS

A, B, C = 1, 2, 3

CLICK_SPMF = "2 -1 2 -1 -2\n2 -1 1 -1 2 -1 -2\n3 -1 3 -1 1 -1 -2\n"
CLICK_ATTR_TSV = (
    "sid\tpos\ttime\tprice\n"
    "1\t1\t1\t5\n"
    "1\t2\t3\t3\n"
    "2\t1\t3\t3\n"
    "2\t2\t8\t1\n"
    "2\t3\t9\t3\n"
    "3\t1\t2\t1\n"
    "3\t2\t5\t2\n"
    "3\t3\t8\t3\n"
)


def build_click_db():
    """Three click sequences with time and price per event (A=1, B=2, C=3)."""
    return make_database(
        [[B, B], [B, A, B], [C, C, A]],
        attrs={
            "time": [[1, 3], [3, 8, 9], [2, 5, 8]],
            "price": [[5, 3], [3, 1, 3], [1, 2, 3]],
        },
        ordering_attribute="time",
    )


@pytest.fixture
def click_db():
    return build_click_db()


@pytest.fixture(scope="session")
def sessions_s3():
    """2k click sessions under scenario 3: the database, specs and diagram."""
    base = generate_sessions(2000, 1000, seed=2024)
    db = attach_attributes(base, generate_attributes(base, seed=99),
                           ordering_attribute="time")
    specs = tuple(parse_constraint(t) for t in SCENARIOS[3])
    return db, specs, build_mdd(db, specs)
