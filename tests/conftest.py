"""Shared fixtures: the three reference instances, built once per session.

Property tests run under a derandomized hypothesis profile with no example
database, so every run tries the same examples.
"""

from fractions import Fraction

import pytest
from hypothesis import settings

from orbitcodes.instance import InstanceConfig, build_instance

settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def inst1_p2():
    return build_instance(InstanceConfig("I", 2, 2, r=Fraction(1, 2)))


@pytest.fixture(scope="session")
def inst1_p3():
    return build_instance(InstanceConfig("I", 3, 2, r=Fraction(1, 2)))


@pytest.fixture(scope="session")
def inst2_p2():
    return build_instance(InstanceConfig("II", 2, 2, r=Fraction(1, 2), gamma=Fraction(1)))


@pytest.fixture(scope="session")
def all_instances(inst1_p2, inst1_p3, inst2_p2):
    return [inst1_p2, inst1_p3, inst2_p2]
