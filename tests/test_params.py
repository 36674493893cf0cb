"""Tests for repro.params — Tables I and II plus the sizing rules."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.params import (
    CPUConfig,
    DDR5Timing,
    DRAMOrganization,
    MitigationVariant,
    PRACParams,
    RfmScope,
    SystemConfig,
    TREFW_NS,
    default_config,
    prac_counter_bits,
)


class TestPRACParams:
    def test_defaults_match_table1(self):
        p = PRACParams()
        assert p.n_bo == 32
        assert p.n_mit == 1
        assert p.abo_act == 3
        assert p.abo_window_ns == 180.0
        assert p.blast_radius == 2
        assert p.psq_size == 5

    def test_abo_delay_defaults_to_n_mit(self):
        for n_mit in (1, 2, 4):
            assert PRACParams(n_mit=n_mit).abo_delay == n_mit

    def test_explicit_abo_delay_kept(self):
        assert PRACParams(abo_delay=3).abo_delay == 3

    def test_acts_per_alert_cycle(self):
        assert PRACParams(n_mit=1).acts_per_alert_cycle == 4
        assert PRACParams(n_mit=2).acts_per_alert_cycle == 5
        assert PRACParams(n_mit=4).acts_per_alert_cycle == 7

    def test_n_pro_is_half_n_bo_by_default(self):
        assert PRACParams(n_bo=32).n_pro == 16
        assert PRACParams(n_bo=16, n_pro_divisor=4).n_pro == 4

    def test_n_pro_never_below_one(self):
        assert PRACParams(n_bo=1).n_pro == 1

    def test_invalid_n_mit_rejected(self):
        with pytest.raises(ConfigError):
            PRACParams(n_mit=3)

    def test_invalid_n_bo_rejected(self):
        with pytest.raises(ConfigError):
            PRACParams(n_bo=0)

    def test_invalid_psq_size_rejected(self):
        with pytest.raises(ConfigError):
            PRACParams(psq_size=0)

    def test_invalid_proactive_cadence_rejected(self):
        with pytest.raises(ConfigError):
            PRACParams(proactive_every_n_refs=0)

    def test_with_overrides_returns_new_instance(self):
        p = PRACParams()
        q = p.with_overrides(n_bo=64)
        assert q.n_bo == 64
        assert p.n_bo == 32

    def test_with_overrides_recomputes_abo_delay(self):
        q = PRACParams().with_overrides(n_mit=4, abo_delay=None)
        assert q.abo_delay == 4


class TestDDR5Timing:
    def test_defaults_match_table2(self, timing: DDR5Timing):
        assert timing.t_rcd == 16.0
        assert timing.t_cl == 16.0
        assert timing.t_ras == 16.0
        assert timing.t_rp == 36.0
        assert timing.t_rc == 52.0
        assert timing.t_rfc == 410.0
        assert timing.t_refi == 3900.0
        assert timing.t_rfm == 350.0
        assert timing.t_abo_act == 180.0

    def test_acts_per_trefw_near_550k(self, timing: DDR5Timing):
        # The paper: "a single bank can undergo up to approximately 550K
        # activations" per 32 ms window.
        assert 500_000 < timing.acts_per_trefw < 600_000

    def test_acts_per_trefi_is_67(self, timing: DDR5Timing):
        assert timing.acts_per_trefi == 67

    def test_refs_per_trefw(self, timing: DDR5Timing):
        assert timing.refs_per_trefw == int(TREFW_NS / timing.t_refi)

    def test_invalid_timing_rejected(self):
        with pytest.raises(ConfigError):
            DDR5Timing(t_rc=-1.0)

    def test_trc_must_cover_tras(self):
        with pytest.raises(ConfigError):
            DDR5Timing(t_ras=60.0, t_rc=52.0)


class TestDRAMOrganization:
    def test_defaults_match_table2(self):
        org = DRAMOrganization()
        assert org.channels == 1
        assert org.ranks == 2
        assert org.bankgroups == 8
        assert org.banks_per_group == 4
        assert org.rows_per_bank == 128 * 1024
        assert org.row_size_bytes == 8192

    def test_banks_per_rank_is_32(self):
        assert DRAMOrganization().banks_per_rank == 32

    def test_total_banks_is_64(self):
        assert DRAMOrganization().total_banks == 64

    def test_capacity_is_64_gib(self):
        assert DRAMOrganization().capacity_bytes == 64 * 1024**3

    def test_columns_per_row(self):
        assert DRAMOrganization().columns_per_row == 128

    def test_row_size_must_be_line_multiple(self):
        with pytest.raises(ConfigError):
            DRAMOrganization(row_size_bytes=100)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ConfigError):
            DRAMOrganization(ranks=0)


class TestCPUConfig:
    def test_defaults_match_table2(self):
        cpu = CPUConfig()
        assert cpu.cores == 4
        assert cpu.freq_ghz == 4.0
        assert cpu.issue_width == 4
        assert cpu.rob_entries == 352
        assert cpu.llc_bytes == 8 * 1024 * 1024
        assert cpu.llc_ways == 8

    def test_cycle_ns(self):
        assert CPUConfig(freq_ghz=4.0).cycle_ns == 0.25

    def test_invalid_cores_rejected(self):
        with pytest.raises(ConfigError):
            CPUConfig(cores=0)


class TestCounterSizing:
    def test_paper_example_7_bits_for_trh_66(self):
        # Section III-E: "we use 7-bit counters for a T_RH of 66".
        assert prac_counter_bits(66) == 7

    def test_minimum_6_bits(self):
        assert prac_counter_bits(1) == 6
        assert prac_counter_bits(16) == 6

    def test_grows_with_threshold(self):
        assert prac_counter_bits(128) == 8
        assert prac_counter_bits(4096) == 13

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigError):
            prac_counter_bits(0)


class TestSystemConfig:
    def test_default_variant_is_energy_aware(self):
        """The default defense lives beside the registry, not in the
        configuration, which names no defense at all."""
        from dataclasses import fields

        from repro.defenses import DEFAULT_DEFENSE

        assert DEFAULT_DEFENSE == MitigationVariant.QPRAC_PROACTIVE_EA.value
        assert [f.name for f in fields(SystemConfig)] == [
            "prac", "timing", "org", "cpu",
        ]

    def test_with_prac_overrides(self):
        cfg = default_config().with_prac(n_bo=64)
        assert cfg.prac.n_bo == 64
        assert default_config().prac.n_bo == 32

    def test_rfm_scope_values(self):
        assert RfmScope.ALL_BANK.value == "ab"
        assert RfmScope.SAME_BANK.value == "sb"
        assert RfmScope.PER_BANK.value == "pb"
