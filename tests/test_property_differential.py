"""Property-based differential tests (seeded random programs, no deps).

``tests/test_determinism_golden.py`` pins fixed vectors; these tests
generate whole random *operation programs* from seeds and drive the
optimized implementations against their retained executable
specifications:

* :class:`~repro.core.psq.PriorityServiceQueue` (incremental cached
  extremes) vs :class:`~repro.core.psq.ReferencePriorityServiceQueue`
  (scan per call) over randomized geometries, policies and op mixes —
  including adversarial shapes the fixed vectors never reach (count
  *decreases* on hit, churn at capacity 1, clears mid-stream).
* :meth:`~repro.dram.address.AddressMapper.decode_flat` (memoized bit
  slicing) vs an independent reference decoder written from the
  documented layout, plus encode/decode round-trip laws, over random
  DRAM organizations.
* :func:`~repro.cpu.cache.filter_stream` (set-decomposed whole-stream
  LLC filter) vs a :meth:`~repro.cpu.cache.SetAssociativeCache.access`
  loop over random geometries, hot-set skews and write ratios.

Everything is seeded ``random.Random`` — failures reproduce exactly
from the parametrized seed, and no new dependency is involved.
"""

from __future__ import annotations

import random

import pytest

from repro.core.psq import PriorityServiceQueue, ReferencePriorityServiceQueue
from repro.cpu.cache import SetAssociativeCache, filter_stream
from repro.dram.address import AddressMapper, DramAddress
from repro.params import DRAMOrganization

# ----------------------------------------------------------------------
# PSQ: random programs in lockstep with the executable specification
# ----------------------------------------------------------------------


def _observable(psq) -> tuple:
    """Everything the simulator can see, in one comparable value."""
    return (
        len(psq),
        psq.snapshot(),
        psq.max_count(),
        psq.min_count(),
        psq.is_full,
        psq.top().row if len(psq) else None,
        psq.inserts,
        psq.evictions,
        psq.hits,
        psq.rejected,
    )


def _random_program(rng: random.Random, rows: int, steps: int):
    """Yield a seeded random operation stream over a small row universe.

    Weights skew toward ``observe`` (the simulator's hot operation) but
    every mutation and query appears, and counts move arbitrarily —
    including *down* on a hit, a path the monotonic simulator never
    takes but the CAM contract must still honour.
    """
    for _ in range(steps):
        op = rng.random()
        if op < 0.65:
            yield ("observe", rng.randrange(rows), rng.randint(0, 50))
        elif op < 0.75:
            yield ("pop_top",)
        elif op < 0.85:
            yield ("remove", rng.randrange(rows))
        elif op < 0.88:
            yield ("clear",)
        else:
            yield ("query", rng.randrange(rows))


@pytest.mark.parametrize("seed", range(20))
def test_psq_random_program_matches_reference(seed):
    """Random geometry + random program, observables compared per step."""
    rng = random.Random(7_000 + seed)
    size = rng.randint(1, 12)
    strict = rng.random() < 0.5
    rows = rng.randint(2, 24)
    fast = PriorityServiceQueue(size, strict_insertion=strict)
    ref = ReferencePriorityServiceQueue(size, strict_insertion=strict)
    for step, op in enumerate(_random_program(rng, rows, 700)):
        if op[0] == "observe":
            _, row, count = op
            assert fast.observe(row, count) == ref.observe(row, count), (
                f"seed {seed} step {step}: observe({row},{count}) diverged"
            )
        elif op[0] == "pop_top":
            if len(fast):
                popped_fast, popped_ref = fast.pop_top(), ref.pop_top()
                assert (popped_fast.row, popped_fast.count) == (
                    popped_ref.row, popped_ref.count,
                ), f"seed {seed} step {step}: pop_top diverged"
        elif op[0] == "remove":
            assert fast.remove(op[1]) == ref.remove(op[1])
        elif op[0] == "clear":
            fast.clear()
            ref.clear()
        else:
            assert fast.count_of(op[1]) == ref.count_of(op[1])
            assert (op[1] in fast) == (op[1] in ref)
        assert _observable(fast) == _observable(ref), (
            f"seed {seed} step {step} after {op}: state diverged"
        )


@pytest.mark.parametrize("seed", range(8))
def test_psq_capacity_one_churn_matches_reference(seed):
    """Size-1 queues maximize evict/replace churn on the cached extremes."""
    rng = random.Random(31_000 + seed)
    fast = PriorityServiceQueue(1)
    ref = ReferencePriorityServiceQueue(1)
    for _ in range(400):
        row, count = rng.randrange(6), rng.randint(0, 9)
        assert fast.observe(row, count) == ref.observe(row, count)
        assert _observable(fast) == _observable(ref)


@pytest.mark.parametrize("seed", range(8))
def test_psq_always_full_invariant_under_random_streams(seed):
    """The paper's security property (Section IV-B): under the
    simulator's real pattern — per-row activation counters only count
    up — a full queue never shrinks and its stored minimum never
    decreases except through mitigation (pop/remove/clear)."""
    rng = random.Random(47_000 + seed)
    size = rng.randint(2, 8)
    psq = PriorityServiceQueue(size)
    counters = [0] * 30
    floor = 0
    for _ in range(600):
        row = rng.randrange(30)
        counters[row] += rng.randint(1, 3)
        psq.observe(row, counters[row])
        if psq.is_full:
            assert len(psq) == size
            assert psq.min_count() >= floor
            floor = psq.min_count()


# ----------------------------------------------------------------------
# decode_flat: independent reference decoder + round-trip laws
# ----------------------------------------------------------------------


def _reference_decode(org: DRAMOrganization, phys_addr: int):
    """Straight-line reference decoder, written from the documented
    layout (offset | column | bankgroup | bank | rank | channel | row)
    with arithmetic div/mod instead of the mapper's masks and shifts —
    an independent implementation, not a copy."""
    a = phys_addr // org.line_size_bytes
    column = a % org.columns_per_row
    a //= org.columns_per_row
    bankgroup = a % org.bankgroups
    a //= org.bankgroups
    bank = a % org.banks_per_group
    a //= org.banks_per_group
    rank = a % org.ranks
    a //= org.ranks
    channel = a % org.channels
    a //= org.channels
    row = a % org.rows_per_bank
    return channel, rank, bankgroup, bank, row, column


def _random_org(rng: random.Random) -> DRAMOrganization:
    line_size = rng.choice((32, 64, 128))
    columns = rng.choice((1 << 5, 1 << 7, 1 << 10))
    return DRAMOrganization(
        channels=rng.choice((1, 2)),
        ranks=rng.choice((1, 2)),
        bankgroups=rng.choice((1, 2, 4, 8)),
        banks_per_group=rng.choice((1, 2, 4)),
        rows_per_bank=rng.choice((1 << 8, 1 << 10, 1 << 13, 1 << 16)),
        row_size_bytes=line_size * columns,
        line_size_bytes=line_size,
    )


@pytest.mark.parametrize("seed", range(12))
def test_decode_flat_matches_independent_reference(seed):
    """Random organizations x random addresses: the memoized bit slicer
    agrees with div/mod arithmetic on every field, and the flat bank
    index agrees with the canonical DramAddress.flat_bank."""
    rng = random.Random(90_000 + seed)
    org = _random_org(rng)
    mapper = AddressMapper(org)
    max_addr = 1 << mapper.address_bits
    for _ in range(300):
        addr = rng.randrange(max_addr)
        channel, rank, bankgroup, bank, row, column, flat = (
            mapper.decode_flat(addr)
        )
        assert (channel, rank, bankgroup, bank, row, column) == (
            _reference_decode(org, addr)
        ), f"seed {seed}: decode_flat({addr:#x}) diverged"
        decoded = DramAddress(
            channel=channel, rank=rank, bankgroup=bankgroup,
            bank=bank, row=row, column=column,
        )
        assert flat == decoded.flat_bank(org)
        # Memo hit must return the identical tuple.
        assert mapper.decode_flat(addr) == (
            channel, rank, bankgroup, bank, row, column, flat
        )


@pytest.mark.parametrize("seed", range(12))
def test_encode_decode_roundtrip_random_coordinates(seed):
    """compose(coords) -> decode_flat is the identity on coordinates,
    and decode -> encode is the identity on line-aligned addresses."""
    rng = random.Random(91_000 + seed)
    org = _random_org(rng)
    mapper = AddressMapper(org)
    for _ in range(200):
        coords = dict(
            row=rng.randrange(org.rows_per_bank),
            column=rng.randrange(org.columns_per_row),
            channel=rng.randrange(org.channels),
            rank=rng.randrange(org.ranks),
            bankgroup=rng.randrange(org.bankgroups),
            bank=rng.randrange(org.banks_per_group),
        )
        addr = mapper.compose(**coords)
        channel, rank, bankgroup, bank, row, column, _flat = (
            mapper.decode_flat(addr)
        )
        assert dict(
            row=row, column=column, channel=channel, rank=rank,
            bankgroup=bankgroup, bank=bank,
        ) == coords
        assert mapper.encode(mapper.decode(addr)) == addr


# ----------------------------------------------------------------------
# filter_stream: whole-stream LLC filter vs the per-access cache
# ----------------------------------------------------------------------


def _random_line_stream(rng: random.Random, num_sets: int, ways: int,
                        line_size: int) -> tuple[list[int], list[bool]]:
    """A seeded access stream with a hot-set skew and a write ratio.

    Each set draws its lines from its own tag universe of 1 to
    ``3 * ways`` tags, so some sets stay within their ways (the closed
    form) and others overflow (the LRU replay); the skew steers a share
    of the accesses onto a few hot sets.
    """
    skew = rng.choice((0.0, 0.5, 0.95))
    write_ratio = rng.choice((0.0, 0.3, 1.0))
    hot = rng.sample(range(num_sets), max(1, num_sets // 8))
    tags = [rng.randint(1, 3 * ways) for _ in range(num_sets)]
    addrs, writes = [], []
    for _ in range(rng.randint(1, 800)):
        s = rng.choice(hot) if rng.random() < skew else rng.randrange(num_sets)
        line = rng.randrange(tags[s]) * num_sets + s
        addrs.append(line * line_size + rng.randrange(line_size))
        writes.append(rng.random() < write_ratio)
    return addrs, writes


@pytest.mark.parametrize("seed", range(24))
def test_filter_stream_matches_per_access_cache(seed):
    """Random geometry x random stream: the same miss positions and the
    same writeback addresses as one canonical access per element."""
    rng = random.Random(92_000 + seed)
    num_sets = 1 << rng.randint(0, 6)
    ways = rng.randint(1, 8)
    line_size = 1 << rng.randint(4, 7)
    size = num_sets * ways * line_size
    addrs, writes = _random_line_stream(rng, num_sets, ways, line_size)

    cache = SetAssociativeCache(size, ways, line_size)
    ref_miss, ref_writeback = [], []
    for addr, is_write in zip(addrs, writes):
        hit, writeback = cache.access(addr, is_write)
        ref_miss.append(not hit)
        ref_writeback.append(-1 if writeback is None else writeback)

    miss, writeback = filter_stream(addrs, writes, size, ways, line_size)
    assert miss.tolist() == ref_miss, f"seed {seed}: miss positions"
    assert writeback.tolist() == ref_writeback, f"seed {seed}: writebacks"
