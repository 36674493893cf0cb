"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.params import (
    CPUConfig,
    DDR5Timing,
    DRAMOrganization,
    PRACParams,
    SystemConfig,
)
from repro.sim.engines.event import clear_inert_runs


@pytest.fixture(autouse=True)
def _fresh_inert_runs():
    """Each test starts with an empty event-engine inert-run memo, so a
    digest test simulates in full rather than replaying a run an
    earlier test left behind."""
    clear_inert_runs()


@pytest.fixture
def prac() -> PRACParams:
    """The paper's default PRAC configuration (Table I)."""
    return PRACParams()


@pytest.fixture
def timing() -> DDR5Timing:
    """The paper's DDR5 timings (Table II)."""
    return DDR5Timing()


@pytest.fixture
def small_org() -> DRAMOrganization:
    """A tiny DRAM organisation that keeps unit tests fast."""
    return DRAMOrganization(
        channels=1,
        ranks=1,
        bankgroups=2,
        banks_per_group=2,
        rows_per_bank=1024,
        row_size_bytes=8192,
    )


@pytest.fixture
def small_config(small_org: DRAMOrganization) -> SystemConfig:
    """Full-system config over the tiny organisation (2 cores)."""
    return SystemConfig(
        org=small_org,
        cpu=CPUConfig(cores=2, llc_bytes=256 * 1024),
    )


@pytest.fixture
def full_config() -> SystemConfig:
    """The paper's Table II configuration."""
    return SystemConfig()
