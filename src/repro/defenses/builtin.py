"""Built-in defenses: every mitigation the paper evaluates, by name.

Importing this module (which :mod:`repro.defenses` does eagerly)
populates the global registry with:

================  ====================================================
``baseline``      non-secure PRAC baseline (timings only, no mitigation)
``qprac-noop``..  the five QPRAC policy variants of Section V; the
                  energy-aware ``qprac+proactive-ea`` is the default
``moat``          MOAT (ASPLOS'25), optional proactive cadence and ETH
``panopticon``    Panopticon (DRAMSec'21) t-bit FIFO tracker
``pride``         PrIDE (ISCA'24) probabilistic FIFO, tuned for a T_RH
``mithril``       Mithril (HPCA'22) Misra-Gries summary, tuned for a T_RH
``uprac``         UPRAC (Canpolat et al.): queue-less oracle PRAC
================  ====================================================

QPRAC variants read their PRAC knobs (N_BO, PSQ size, proactive cadence)
from the run's :class:`~repro.params.SystemConfig`, so PRAC overrides in
a sweep shape them without any spec params.  Each variant's name is the
value of the :class:`~repro.params.MitigationVariant` its builder hands
to :class:`~repro.core.qprac.QPRACBank`; that enum is QPRAC's internal
policy switch, never a way to name a defense.
"""

from __future__ import annotations

from repro.core.defense import BankDefense
from repro.core.moat import MOATBank
from repro.core.null_defense import NullDefense
from repro.core.panopticon import PanopticonBank
from repro.core.qprac import QPRACBank
from repro.core.uprac import UPRACBank
from repro.defenses.registry import BASELINE_NAME, register_defense
from repro.params import MitigationVariant, SystemConfig


@register_defense(
    BASELINE_NAME,
    summary="non-secure PRAC baseline: DDR5/PRAC timings, no mitigation",
)
def build_baseline(
    bank_index: int, config: SystemConfig
) -> BankDefense:
    del bank_index, config
    return NullDefense()


_QPRAC_SUMMARIES = {
    MitigationVariant.QPRAC_NOOP:
        "QPRAC without opportunistic mitigations (Section V)",
    MitigationVariant.QPRAC:
        "QPRAC with opportunistic mitigation on every RFMab",
    MitigationVariant.QPRAC_PROACTIVE:
        "QPRAC plus one proactive mitigation per bank per REF",
    MitigationVariant.QPRAC_PROACTIVE_EA:
        "QPRAC with energy-aware proactive mitigation (N_PRO gate)",
    MitigationVariant.QPRAC_IDEAL:
        "oracle upper bound: global top-N mitigation per Alert",
}


def _register_qprac(variant: MitigationVariant) -> None:
    @register_defense(variant.value, summary=_QPRAC_SUMMARIES[variant])
    def build_qprac(
        bank_index: int, config: SystemConfig
    ) -> BankDefense:
        del bank_index
        return QPRACBank(
            config.prac,
            num_rows=config.org.rows_per_bank,
            variant=variant,
        )


for _variant in MitigationVariant:
    _register_qprac(_variant)


@register_defense(
    "moat",
    summary="MOAT (ASPLOS'25): single tracked row, ETH = N_BO/2",
)
def build_moat(
    bank_index: int,
    config: SystemConfig,
    *,
    proactive_every_n_refs: int | None = None,
    eth: int | None = None,
) -> BankDefense:
    del bank_index
    return MOATBank(
        n_bo=config.prac.n_bo,
        num_rows=config.org.rows_per_bank,
        eth=eth,
        blast_radius=config.prac.blast_radius,
        proactive_every_n_refs=proactive_every_n_refs,
    )


@register_defense(
    "panopticon",
    summary="Panopticon (DRAMSec'21): t-bit threshold into a FIFO queue",
)
def build_panopticon(
    bank_index: int,
    config: SystemConfig,
    *,
    t_bit: int = 6,
    queue_size: int = 5,
) -> BankDefense:
    del bank_index
    return PanopticonBank(
        t_bit=t_bit,
        queue_size=queue_size,
        num_rows=config.org.rows_per_bank,
        blast_radius=config.prac.blast_radius,
    )


@register_defense(
    "pride",
    summary="PrIDE (ISCA'24): probabilistic sampling FIFO + cadence RFMs",
)
def build_pride(
    bank_index: int,
    config: SystemConfig,
    *,
    t_rh: int,
) -> BankDefense:
    from repro.mitigations.pride import PrIDEBank

    return PrIDEBank(
        t_rh,
        num_rows=config.org.rows_per_bank,
        blast_radius=config.prac.blast_radius,
        seed=bank_index,
    )


@register_defense(
    "mithril",
    summary="Mithril (HPCA'22): Misra-Gries summary + cadence RFMs",
)
def build_mithril(
    bank_index: int,
    config: SystemConfig,
    *,
    t_rh: int,
) -> BankDefense:
    from repro.mitigations.mithril import MithrilBank

    del bank_index
    return MithrilBank(
        t_rh,
        num_rows=config.org.rows_per_bank,
        blast_radius=config.prac.blast_radius,
    )


@register_defense(
    "uprac",
    summary="UPRAC: queue-less oracle PRAC (impractical; Section II-E2)",
)
def build_uprac(
    bank_index: int, config: SystemConfig
) -> BankDefense:
    del bank_index
    return UPRACBank(
        n_bo=config.prac.n_bo,
        num_rows=config.org.rows_per_bank,
        blast_radius=config.prac.blast_radius,
    )
