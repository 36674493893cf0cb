"""Configuration dataclasses for the QPRAC reproduction.

This module is the single source of truth for the paper's Table I (PRAC
parameters as per the DDR5 specification) and Table II (system
configuration).  Everything downstream — the DRAM timing model, the
analytical security bounds, the energy model — reads its constants from
here so that a single override propagates consistently through an
experiment.

Units
-----
All times are nanoseconds.  Sizes are bytes unless the name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.errors import ConfigError

#: Refresh window (ms → ns): every row must be refreshed within this period.
TREFW_NS: float = 32_000_000.0

#: Valid numbers of RFMs per Alert permitted by the PRAC specification.
VALID_NMIT: tuple[int, ...] = (1, 2, 4)


class RfmScope(Enum):
    """Scope of the RFM command issued when an Alert is serviced.

    The DDR5 specification only provides all-bank RFM on Alerts
    (``RFMab``).  Section VI-E of the paper explores same-bank (``RFMsb``,
    one bank per bank group) and per-bank (``RFMpb``) variants that would
    require interface changes.
    """

    ALL_BANK = "ab"
    SAME_BANK = "sb"
    PER_BANK = "pb"


class MitigationVariant(Enum):
    """The QPRAC policy variants evaluated in Section V of the paper."""

    #: Mitigate only the bank whose PSQ entry reached N_BO (no opportunism).
    QPRAC_NOOP = "qprac-noop"
    #: Opportunistically mitigate the top PSQ entry of *every* bank on RFMab.
    QPRAC = "qprac"
    #: QPRAC plus one proactive mitigation per bank on every REF.
    QPRAC_PROACTIVE = "qprac+proactive"
    #: Proactive mitigation only when the top entry reaches N_PRO (energy-aware).
    QPRAC_PROACTIVE_EA = "qprac+proactive-ea"
    #: Oracle that mitigates the global top-N rows per Alert (plus proactive).
    QPRAC_IDEAL = "qprac-ideal"


def prac_counter_bits(t_rh: int) -> int:
    """Size of the per-row PRAC activation counter for a target ``t_rh``.

    Section III-E sizes counters as ``max(6, floor(log2(T_RH)) + 1)`` bits so
    they never overflow before a row must have been mitigated.  The paper's
    worked example (7-bit counters for a T_RH of 66) is reproduced by this
    rule.
    """
    if t_rh < 1:
        raise ConfigError(f"T_RH must be positive, got {t_rh}")
    return max(6, int(math.floor(math.log2(t_rh))) + 1)


@dataclass(frozen=True)
class PRACParams:
    """PRAC parameters (paper Table I) plus QPRAC-specific knobs.

    Attributes
    ----------
    n_bo:
        Back-Off threshold.  The DRAM asserts Alert once the highest
        activation count tracked in the PSQ reaches this value.
    n_mit:
        Number of RFMs the controller issues per Alert (1, 2 or 4).
    abo_act:
        Maximum activations the controller may issue between Alert assertion
        and the first RFM (3, bounded by the 180 ns window).
    abo_window_ns:
        Wall-clock length of the non-blocking Alert window (180 ns).
    abo_delay:
        Minimum activations after the RFMs before the next Alert may be
        asserted.  The specification sets this equal to ``n_mit``.
    blast_radius:
        Victim rows refreshed on either side of a mitigated aggressor.
    psq_size:
        Entries in the priority-based service queue (default 5 =
        max ``n_mit`` + 1, Section III-E).
    n_pro_divisor:
        Energy-aware proactive mitigation threshold divisor ``K``:
        ``N_PRO = N_BO / K`` (Section III-D2; default 2).
    proactive_every_n_refs:
        Proactive mitigation cadence — 1 issues one proactive mitigation per
        tREFI (the default), 2 one per 2 tREFI, etc. (Figure 17/21 sweeps).
    rfm_scope:
        Scope of mitigation RFMs (Figure 19).
    """

    n_bo: int = 32
    n_mit: int = 1
    abo_act: int = 3
    abo_window_ns: float = 180.0
    abo_delay: int | None = None
    blast_radius: int = 2
    psq_size: int = 5
    n_pro_divisor: int = 2
    proactive_every_n_refs: int = 1
    rfm_scope: RfmScope = RfmScope.ALL_BANK
    #: Ablation knob: the paper inserts on strictly-greater counts only.
    strict_psq_insertion: bool = True

    def __post_init__(self) -> None:
        if self.n_mit not in VALID_NMIT:
            raise ConfigError(
                f"n_mit must be one of {VALID_NMIT}, got {self.n_mit}"
            )
        if self.n_bo < 1:
            raise ConfigError(f"n_bo must be >= 1, got {self.n_bo}")
        if self.psq_size < 1:
            raise ConfigError(f"psq_size must be >= 1, got {self.psq_size}")
        if self.abo_act < 0:
            raise ConfigError(f"abo_act must be >= 0, got {self.abo_act}")
        if self.blast_radius < 0:
            raise ConfigError(
                f"blast_radius must be >= 0, got {self.blast_radius}"
            )
        if self.n_pro_divisor < 1:
            raise ConfigError(
                f"n_pro_divisor must be >= 1, got {self.n_pro_divisor}"
            )
        if self.proactive_every_n_refs < 1:
            raise ConfigError(
                "proactive_every_n_refs must be >= 1, got "
                f"{self.proactive_every_n_refs}"
            )
        if self.abo_delay is None:
            # The spec ties ABO_Delay to the number of RFMs per Alert.
            object.__setattr__(self, "abo_delay", self.n_mit)
        elif self.abo_delay < 0:
            raise ConfigError(
                f"abo_delay must be >= 0, got {self.abo_delay}"
            )

    @property
    def n_pro(self) -> int:
        """Energy-aware proactive threshold: ``N_PRO = N_BO / K`` (floor, >=1)."""
        return max(1, self.n_bo // self.n_pro_divisor)

    @property
    def acts_per_alert_cycle(self) -> int:
        """Activations between consecutive Alerts: ``ABO_ACT + ABO_Delay``.

        This is the denominator of Equation (3): each Alert window admits
        ``abo_act`` activations before the RFMs, and ``abo_delay`` must pass
        after the RFMs before the next Alert.
        """
        assert self.abo_delay is not None
        return self.abo_act + self.abo_delay

    def with_overrides(self, **kwargs: object) -> "PRACParams":
        """Return a copy with the given fields replaced (frozen-safe)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DDR5Timing:
    """DDR5 timing parameters with PRAC-specific extensions (paper Table II).

    The unusually long ``t_rp`` (36 ns) is the PRAC-extended precharge: the
    per-row activation counter is read-modify-written in the shadow of the
    precharge, which the specification accounts for by stretching tRP.
    """

    t_rcd: float = 16.0
    t_cl: float = 16.0
    t_ras: float = 16.0
    t_rp: float = 36.0
    t_rtp: float = 5.0
    t_wr: float = 10.0
    t_rc: float = 52.0
    t_rfc: float = 410.0
    t_refi: float = 3900.0
    t_abo_act: float = 180.0
    t_rfm: float = 350.0
    #: Data burst occupancy of the channel per 64-byte transfer
    #: (BL16 at 6400 MT/s on a 32-bit DDR5 subchannel).
    t_burst: float = 2.5
    #: Minimum spacing between ACTs to different banks of one rank
    #: (tRRD; bounds the multi-bank attack rate of Figure 19).
    t_rrd: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "t_rcd", "t_cl", "t_ras", "t_rp", "t_rtp", "t_wr", "t_rc",
            "t_rfc", "t_refi", "t_abo_act", "t_rfm", "t_burst", "t_rrd",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.t_rc < self.t_ras:
            raise ConfigError("t_rc must be >= t_ras")

    @property
    def acts_per_trefw(self) -> int:
        """Maximum activations a single bank can receive per tREFW.

        The paper states ~550K activations per bank in a 32 ms window; this
        follows from back-to-back same-bank ACTs at tRC with the rank
        unavailable for tRFC out of every tREFI.
        """
        available = TREFW_NS * (1.0 - self.t_rfc / self.t_refi)
        return int(available / self.t_rc)

    @property
    def acts_per_trefi(self) -> int:
        """Activations per tREFI for one bank (the paper's constant 67)."""
        return int((self.t_refi - self.t_rfc) / self.t_rc)

    @property
    def refs_per_trefw(self) -> int:
        """Number of REF commands in one refresh window."""
        return int(TREFW_NS / self.t_refi)


@dataclass(frozen=True)
class DRAMOrganization:
    """Physical organisation of the simulated memory (paper Table II)."""

    channels: int = 1
    ranks: int = 2
    bankgroups: int = 8
    banks_per_group: int = 4
    rows_per_bank: int = 128 * 1024
    row_size_bytes: int = 8192
    line_size_bytes: int = 64

    def __post_init__(self) -> None:
        for name in (
            "channels", "ranks", "bankgroups", "banks_per_group",
            "rows_per_bank", "row_size_bytes", "line_size_bytes",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.row_size_bytes % self.line_size_bytes != 0:
            raise ConfigError("row size must be a multiple of the line size")

    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks * self.banks_per_rank

    @property
    def columns_per_row(self) -> int:
        """Cache-line-sized columns per row."""
        return self.row_size_bytes // self.line_size_bytes

    @property
    def capacity_bytes(self) -> int:
        return (
            self.total_banks * self.rows_per_bank * self.row_size_bytes
        )


@dataclass(frozen=True)
class CPUConfig:
    """Core and cache parameters (paper Table II)."""

    cores: int = 4
    freq_ghz: float = 4.0
    issue_width: int = 4
    rob_entries: int = 352
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 8
    llc_latency_ns: float = 10.0
    #: Maximum outstanding LLC misses per core (MSHR-style MLP cap).
    max_outstanding_misses: int = 16

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        if self.freq_ghz <= 0:
            raise ConfigError("freq_ghz must be positive")
        if self.rob_entries < 1:
            raise ConfigError("rob_entries must be >= 1")
        if self.llc_ways < 1:
            raise ConfigError("llc_ways must be >= 1")
        if self.max_outstanding_misses < 1:
            raise ConfigError("max_outstanding_misses must be >= 1")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of all configuration required to run one simulation.

    The defense is not part of it: runs name theirs with a
    :class:`~repro.defenses.DefenseSpec` (or its string form).
    """

    prac: PRACParams = field(default_factory=PRACParams)
    timing: DDR5Timing = field(default_factory=DDR5Timing)
    org: DRAMOrganization = field(default_factory=DRAMOrganization)
    cpu: CPUConfig = field(default_factory=CPUConfig)

    def with_prac(self, **kwargs: object) -> "SystemConfig":
        return replace(self, prac=self.prac.with_overrides(**kwargs))


def default_config() -> SystemConfig:
    """The paper's default evaluation configuration.

    N_BO = 32, 1 RFM per Alert, 5-entry PSQ, blast radius 2, energy-aware
    proactive mitigation with N_PRO = N_BO / 2.
    """
    return SystemConfig()
