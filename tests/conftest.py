from __future__ import annotations

import json

import pytest

from clearfom.data import example_path


@pytest.fixture(scope="session")
def device_config_doc():
    with open(example_path("devices/four_technologies.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def link_config_doc():
    with open(example_path("links/four_technologies.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def network_config_doc():
    with open(example_path("networks/mesh16_comparison.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def device_config_path():
    return example_path("devices/four_technologies.json")


@pytest.fixture(scope="session")
def link_config_path():
    return example_path("links/four_technologies.json")


@pytest.fixture(scope="session")
def network_config_path():
    return example_path("networks/mesh16_comparison.json")


@pytest.fixture(scope="session")
def sample_records_path():
    return example_path("trend/sample_synthetic_systems.csv")
