import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from govsim.errors import (
    InsufficientTokens,
    InvalidAllocation,
    InvalidInput,
    StillLocked,
)
from govsim.keys import get_scheme
from govsim.ledger import Chain
from govsim.tokens import (
    DEFAULT_POOL_FRACTIONS,
    Pool,
    SlashReason,
    TokenLedger,
)


def ledger_with(balances=None, emission=0, rewards_pool=0):
    total = rewards_pool + sum((balances or {}).values())
    ledger = TokenLedger(total, {Pool.REWARDS: rewards_pool}, emission=emission)
    for holder, amount in (balances or {}).items():
        ledger.balances[holder] = amount
    return ledger


# --- genesis ---

def test_default_split_400_300_300_million():
    # Oracle: 10^9 * (2/5, 3/10, 3/10) computed by hand.
    ledger = TokenLedger.mint_genesis()
    assert ledger.pools[Pool.REWARDS] == 400_000_000
    assert ledger.pools[Pool.GOVERNANCE] == 300_000_000
    assert ledger.pools[Pool.DEVELOPMENT] == 300_000_000
    assert ledger.conserved()
    assert ledger.emission == 400_000  # 400M / 1000


def test_everything_to_rewards():
    ledger = TokenLedger.mint_genesis(
        {Pool.REWARDS: Fraction(1), Pool.GOVERNANCE: Fraction(0), Pool.DEVELOPMENT: Fraction(0)})
    assert ledger.pools[Pool.REWARDS] == 1_000_000_000
    assert ledger.pools[Pool.GOVERNANCE] == 0


def test_fractions_not_summing_to_one_rejected():
    with pytest.raises(InvalidAllocation):
        TokenLedger.mint_genesis({
            Pool.REWARDS: Fraction(39, 100),
            Pool.GOVERNANCE: Fraction(3, 10),
            Pool.DEVELOPMENT: Fraction(3, 10),
        })


def test_flooring_dust_lands_in_rewards():
    # 1/3 splits of 100 floor to 33 each; 1 unit of dust returns to REWARDS.
    ledger = TokenLedger.mint_genesis(
        {Pool.REWARDS: Fraction(1, 3), Pool.GOVERNANCE: Fraction(1, 3),
         Pool.DEVELOPMENT: Fraction(1, 3)},
        total_supply=100)
    assert ledger.pools == {Pool.REWARDS: 34, Pool.GOVERNANCE: 33, Pool.DEVELOPMENT: 33}
    assert ledger.conserved()


# --- staking ---

def test_stake_moves_balance():
    ledger = ledger_with({"s1": 100})
    ledger.stake("s1", 60, 4, epoch=0)
    assert ledger.balances["s1"] == 40
    assert ledger.staked_total("s1") == 60
    assert ledger.conserved()


def test_unstake_before_expiry_rejected():
    ledger = ledger_with({"s1": 100})
    ledger.stake("s1", 60, 4, epoch=0)
    with pytest.raises(StillLocked):
        ledger.unstake("s1", 0, epoch=3)
    assert ledger.unstake("s1", 0, epoch=4) == 60
    assert ledger.balances["s1"] == 100


@pytest.mark.parametrize("index", [-1, 1])
def test_unstake_of_no_such_entry_rejected(index):
    ledger = ledger_with({"s1": 100})
    ledger.stake("s1", 60, 4, epoch=0)
    with pytest.raises(InvalidInput, match="no such stake entry"):
        ledger.unstake("s1", index, epoch=4)
    assert ledger.staked_total("s1") == 60

def test_zero_stake_rejected():
    with pytest.raises(InvalidInput):
        ledger_with({"s1": 100}).stake("s1", 0, 4)


def test_overdraft_stake_rejected():
    with pytest.raises(InsufficientTokens):
        ledger_with({"s1": 10}).stake("s1", 11, 1)


# --- rewards ---

def test_reward_split_matches_floor_formula():
    # s=(100,100), d=(1,1), c=(1, 1/2), E=30.
    # weights: a=100*1*1=100, b=100*1*(1/2)=50, total 150.
    # floor(30*100/150)=20, floor(30*50/150)=10.
    ledger = ledger_with({"a": 100, "b": 100}, emission=30, rewards_pool=1000)
    ledger.stake("a", 100, 8, epoch=0)
    ledger.stake("b", 100, 8, epoch=0)
    payouts = ledger.distribute_rewards(1, {"a": Fraction(1), "b": Fraction(1, 2)})
    assert payouts == {"a": 20, "b": 10}
    assert ledger.conserved()


def test_sole_claimant_takes_full_emission():
    ledger = ledger_with({"a": 50}, emission=30, rewards_pool=100)
    ledger.stake("a", 50, 2, epoch=0)
    assert ledger.distribute_rewards(5, {"a": Fraction(3, 4)}) == {"a": 30}


def test_all_factors_zero_defers():
    ledger = ledger_with({"a": 50, "b": 50}, emission=30, rewards_pool=100)
    ledger.stake("a", 50, 2, epoch=0)
    ledger.stake("b", 50, 2, epoch=0)
    before = ledger.pools[Pool.REWARDS]
    assert ledger.distribute_rewards(1, {"a": Fraction(0), "b": Fraction(0)}) == {}
    assert ledger.pools[Pool.REWARDS] == before


def test_underfunded_pool_defers():
    ledger = ledger_with({"a": 50}, emission=30, rewards_pool=10)
    ledger.stake("a", 50, 2, epoch=0)
    assert ledger.distribute_rewards(1) == {}
    assert ledger.pools[Pool.REWARDS] == 10


def test_duration_weighting_uses_elapsed_epochs():
    # At epoch 3: a staked at 0 (elapsed 3), b staked at 2 (elapsed 1).
    # weights 100*3=300 vs 100*1=100 -> floor(40*300/400)=30, floor(40*100/400)=10.
    ledger = ledger_with({"a": 100, "b": 100}, emission=40, rewards_pool=1000)
    ledger.stake("a", 100, 8, epoch=0)
    ledger.stake("b", 100, 8, epoch=2)
    assert ledger.distribute_rewards(3) == {"a": 30, "b": 10}


def test_remainders_stay_in_rewards():
    ledger = ledger_with({"a": 70, "b": 30}, emission=10, rewards_pool=100)
    ledger.stake("a", 70, 2, epoch=0)
    ledger.stake("b", 30, 2, epoch=0)
    payouts = ledger.distribute_rewards(1)
    assert payouts == {"a": 7, "b": 3}
    assert ledger.conserved()


def test_reward_monotone_in_compliance_factor():
    rng = random.Random(7)
    for _ in range(25):
        stakes = {f"s{i}": rng.randint(1, 500) for i in range(4)}
        base_c = {h: Fraction(rng.randint(0, 4), 4) for h in stakes}
        focus = "s0"

        def run(c_focus):
            ledger = ledger_with(dict(stakes), emission=97, rewards_pool=10_000)
            for holder, amount in stakes.items():
                ledger.stake(holder, amount, 3, epoch=0)
            factors = dict(base_c)
            factors[focus] = c_focus
            return ledger.distribute_rewards(2, factors).get(focus, 0)

        low = run(Fraction(1, 4))
        high = run(Fraction(3, 4))
        assert high >= low


# --- slashing ---

def test_slash_evidence_forged_burns_fifth():
    ledger = ledger_with({"s1": 200})
    ledger.stake("s1", 200, 4, epoch=0)
    burned = ledger.slash("s1", SlashReason.EVIDENCE_FORGED)
    assert burned == 40  # floor(0.20 * 200)
    assert ledger.staked_total("s1") == 160
    assert ledger.burned == 40
    assert ledger.conserved()


def test_slash_full_fraction_burns_everything():
    ledger = ledger_with({"s1": 123})
    ledger.stake("s1", 123, 4, epoch=0)
    assert ledger.slash("s1", SlashReason.AUDIT_FAIL, fraction=Fraction(1)) == 123
    assert ledger.staked_total("s1") == 0


@pytest.mark.parametrize("fraction", [Fraction(0), Fraction(2)])
def test_slash_fraction_outside_zero_to_one_rejected(fraction):
    ledger = ledger_with({"s1": 100})
    ledger.stake("s1", 100, 4, epoch=0)
    with pytest.raises(InvalidInput, match=r"slash fraction must be in \(0, 1\]"):
        ledger.slash("s1", SlashReason.AUDIT_FAIL, fraction=fraction)
    assert ledger.staked_total("s1") == 100 and ledger.burned == 0

def test_slash_zero_stake_is_noop():
    ledger = ledger_with({"s1": 10})
    assert ledger.slash("s1", SlashReason.AUDIT_FAIL) == 0
    assert ledger.burned == 0


def test_slash_consumes_oldest_entries_first():
    ledger = ledger_with({"s1": 300})
    ledger.stake("s1", 100, 4, epoch=0)
    ledger.stake("s1", 100, 4, epoch=2)
    ledger.stake("s1", 100, 4, epoch=5)
    ledger.slash("s1", SlashReason.AUDIT_FAIL, fraction=Fraction(1, 2))  # burn 150
    entries = ledger.stakes["s1"]
    assert [e.lock_start_epoch for e in entries] == [2, 5]
    assert [e.amount for e in entries] == [50, 100]


def test_default_slash_table():
    for reason, fraction in [
        (SlashReason.AUDIT_FAIL, Fraction(1, 20)),
        (SlashReason.EVIDENCE_FORGED, Fraction(1, 5)),
        (SlashReason.COLLUSION_CONFIRMED, Fraction(1, 10)),
    ]:
        ledger = ledger_with({"s": 1000})
        ledger.stake("s", 1000, 2, epoch=0)
        assert ledger.slash("s", reason) == int(fraction * 1000)


# --- transfers and pool charges ---

def test_transfer_and_overdraft():
    ledger = ledger_with({"a": 100})
    ledger.transfer("a", "b", 40)
    assert (ledger.balances["a"], ledger.balances["b"]) == (60, 40)
    with pytest.raises(InsufficientTokens):
        ledger.transfer("a", "b", 61)


def test_pool_charge_credits_pool_one_for_one():
    ledger = ledger_with({"a": 100})
    ledger.charge_to_pool("a", Pool.GOVERNANCE, 49)
    assert ledger.pools[Pool.GOVERNANCE] == 49
    assert ledger.balances["a"] == 51
    assert ledger.conserved()


def test_grant_from_pool():
    ledger = TokenLedger.mint_genesis()
    ledger.grant(Pool.DEVELOPMENT, "a", 5000)
    assert ledger.balances["a"] == 5000
    assert ledger.pools[Pool.DEVELOPMENT] == 300_000_000 - 5000
    assert ledger.conserved()
    with pytest.raises(InsufficientTokens):
        ledger.grant(Pool.DEVELOPMENT, "a", 10 ** 12)


# --- conservation under adversarial mixes ---

def test_conservation_under_randomized_operations():
    rng = random.Random(2024)
    ledger = TokenLedger.mint_genesis(total_supply=1_000_000)
    holders = [f"h{i}" for i in range(6)]
    for holder in holders:
        ledger.grant(Pool.DEVELOPMENT, holder, 20_000)
    ledger.emission = 500
    rejected = 0
    for step in range(1500):
        epoch = step // 10
        op = rng.randrange(6)
        holder = rng.choice(holders)
        try:
            if op == 0:
                ledger.stake(holder, rng.randint(1, 30_000), rng.randint(1, 5), epoch=epoch)
            elif op == 1:
                entries = ledger.stakes.get(holder, [])
                if entries:
                    ledger.unstake(holder, rng.randrange(len(entries)), epoch=epoch)
            elif op == 2:
                ledger.transfer(holder, rng.choice(holders), rng.randint(1, 25_000))
            elif op == 3:
                ledger.charge_to_pool(holder, Pool.GOVERNANCE, rng.randint(1, 5_000))
            elif op == 4:
                ledger.slash(holder, rng.choice(list(SlashReason)))
            else:
                factors = {h: Fraction(rng.randint(0, 3), 3) for h in holders}
                ledger.distribute_rewards(epoch, factors)
        except (InsufficientTokens, StillLocked, InvalidInput):
            rejected += 1
        assert ledger.conserved(), f"conservation broken at step {step}"
        assert all(v >= 0 for v in ledger.balances.values())
        assert all(v >= 0 for v in ledger.pools.values())
    assert rejected > 0  # the mix genuinely attempted overdrafts


def test_checksum_changes_with_state():
    ledger = ledger_with({"a": 10})
    before = ledger.conservation_checksum()
    ledger.transfer("a", "b", 5)
    assert ledger.conservation_checksum() != before


# --- the chain fold equals the live ledger ---

HOLDERS = ["h0", "h1", "h2"]
_HOLDER = st.sampled_from(HOLDERS)
_POOL = st.sampled_from(list(Pool))
# A stake step makes one to three entries, with amounts and locks from small
# sets, so that a holder often holds several entries equal in value and
# unstake must pick among them.
_STEP = st.one_of(
    st.tuples(st.just("grant"), _POOL, _HOLDER, st.integers(0, 400)),
    st.tuples(st.just("transfer"), _HOLDER, _HOLDER, st.integers(1, 300)),
    st.tuples(st.just("charge"), _HOLDER, _POOL, st.integers(1, 200)),
    st.tuples(st.just("stake"), _HOLDER, st.sampled_from([10, 25]), st.integers(1, 2),
              st.integers(1, 3)),
    st.tuples(st.just("unstake"), _HOLDER, st.integers(0, 4)),
    st.tuples(st.just("rewards"), st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=4),
        min_size=len(HOLDERS), max_size=len(HOLDERS))),
    st.tuples(st.just("slash"), _HOLDER, st.sampled_from(list(SlashReason)),
              st.none() | st.fractions(min_value=Fraction(1, 20), max_value=1,
                                       max_denominator=20)),
    st.tuples(st.just("tick")),
)


REFUSALS = (InsufficientTokens, InvalidInput, StillLocked)


def _call(ledger: TokenLedger, method: str, *args, **kwargs) -> None:
    """Call a ledger method; a refused call leaves the ledger and its chain as they were."""
    before = ledger.snapshot(), len(ledger.chain.pending)
    try:
        getattr(ledger, method)(*args, **kwargs)
    except REFUSALS:
        assert (ledger.snapshot(), len(ledger.chain.pending)) == before, method
        raise


def _run_step(ledger: TokenLedger, step: tuple, epoch: int) -> int:
    op, *args = step
    if op == "grant":
        _call(ledger, "grant", *args, epoch=epoch)
    elif op == "transfer":
        _call(ledger, "transfer", *args, epoch=epoch)
    elif op == "charge":
        _call(ledger, "charge_to_pool", *args, epoch=epoch)
    elif op == "stake":
        holder, amount, lock_epochs, copies = args
        for _ in range(copies):
            _call(ledger, "stake", holder, amount, lock_epochs, epoch=epoch)
    elif op == "unstake":
        holder, index = args
        entries = ledger.stakes.get(holder, [])
        if entries:
            _call(ledger, "unstake", holder, index % len(entries), epoch=epoch)
    elif op == "rewards":
        _call(ledger, "distribute_rewards", epoch, dict(zip(HOLDERS, args[0])))
    elif op == "slash":
        holder, reason, fraction = args
        _call(ledger, "slash", holder, reason, fraction=fraction, epoch=epoch)
    else:  # tick
        epoch += 1
    return epoch


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, min_size=10, max_size=60))
@example([
    ("grant", Pool.DEVELOPMENT, "h0", 100),
    ("stake", "h0", 10, 1, 1), ("stake", "h0", 25, 1, 1), ("stake", "h0", 10, 1, 1),
    ("tick",), ("tick",),
    ("unstake", "h0", 2),  # equal in value to entry 0
    ("slash", "h0", SlashReason.AUDIT_FAIL, Fraction(1, 2)),
])
def test_fold_of_chain_token_events_equals_live_ledger(steps):
    chain = Chain({"a1": get_scheme("seeded").generate(b"a1").public}, quorum=1)
    # Slash fractions other than the defaults: the fold must read what was
    # burned from the event, not recompute it from its own table.
    ledger = TokenLedger.mint_genesis(
        total_supply=3_000, emission_divisor=10, chain=chain,
        slash_fractions={reason: Fraction(1, 3) for reason in SlashReason})
    for holder in HOLDERS:
        ledger.grant(Pool.DEVELOPMENT, holder, 200)
    epoch = 0
    for step in steps:
        try:
            epoch = _run_step(ledger, step, epoch)
        except REFUSALS:
            pass
        fold = TokenLedger(0, {})
        for event in chain.pending:
            fold.apply(event.kind, event.body(), event.epoch)
        assert fold.snapshot() == ledger.snapshot()
        assert fold.conserved() and ledger.conserved()
