"""Finite-supply token accounting.

All quantities are non-negative integers in base units and every operation
preserves, exactly:

    sum(pools) + sum(balances) + sum(stakes) + burned == total_supply

Reward shares are floored; remainders stay in the REWARDS pool. Slashing
burns floor(fraction * staked), consuming the oldest stake entries first.

``TokenLedger.apply`` is the one transition. It takes a token event (kind
and body) as it stands on the chain: TOKENS_TRANSFERRED (ops mint_genesis,
grant, transfer, pool_charge, reward), STAKE_CHANGED (stake, unstake) or
SLASH_APPLIED. Each live method validates its input, builds the event body,
applies it and appends it to the chain; the report fold applies the same
bodies to a chain-less ledger, so the two positions are one computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .encoding import ONE, canonical_json_bytes, sha256
from .errors import InsufficientTokens, InvalidAllocation, InvalidInput, StillLocked
from .ledger import Chain, EventKind, Store

DEFAULT_TOTAL_SUPPLY = 1_000_000_000
DEFAULT_EMISSION_DIVISOR = 1000


class Pool(str, Enum):
    REWARDS = "REWARDS"
    GOVERNANCE = "GOVERNANCE"
    DEVELOPMENT = "DEVELOPMENT"


DEFAULT_POOL_FRACTIONS: dict[Pool, Fraction] = {
    Pool.REWARDS: Fraction(2, 5),
    Pool.GOVERNANCE: Fraction(3, 10),
    Pool.DEVELOPMENT: Fraction(3, 10),
}


class SlashReason(str, Enum):
    AUDIT_FAIL = "AUDIT_FAIL"
    EVIDENCE_FORGED = "EVIDENCE_FORGED"
    COLLUSION_CONFIRMED = "COLLUSION_CONFIRMED"


DEFAULT_SLASH_FRACTIONS: dict[SlashReason, Fraction] = {
    SlashReason.AUDIT_FAIL: Fraction(1, 20),
    SlashReason.EVIDENCE_FORGED: Fraction(1, 5),
    SlashReason.COLLUSION_CONFIRMED: Fraction(1, 10),
}


@dataclass
class StakeEntry:
    amount: int
    lock_start_epoch: int
    lock_epochs: int

    def unlock_epoch(self) -> int:
        return self.lock_start_epoch + self.lock_epochs

    def elapsed(self, epoch: int) -> int:
        """Lock epochs elapsed so far, floored at 1."""
        return max(1, epoch - self.lock_start_epoch)


def validate_pool_fractions(fractions: Mapping[Pool, Fraction]) -> dict[Pool, Fraction]:
    """The genesis split, refused unless each share is in [0, 1] and they sum to 1."""
    if any(not 0 <= share <= 1 for share in fractions.values()):
        raise InvalidAllocation("each pool fraction must be in [0, 1]")
    if sum(fractions.values(), Fraction(0)) != 1:
        raise InvalidAllocation("pool fractions must sum to exactly 1")
    return dict(fractions)


def genesis_pools(fractions: Mapping[Pool, Fraction], total_supply: int) -> dict[Pool, int]:
    """The pool balances that ``mint_genesis`` funds from valid ``fractions``."""
    pools = {pool: int(fractions.get(pool, Fraction(0)) * total_supply)  # floor
             for pool in Pool}
    # Flooring dust goes to REWARDS so the supply equation stays exact.
    pools[Pool.REWARDS] += total_supply - sum(pools.values())
    return pools


# op -> (the least amount its body may move, the refusal of one below it). A
# grant may be 0, as may a slash's burn; an unstake moves a stake entry held.
_LEAST_AMOUNT = {
    "grant": (0, "negative grant"), "transfer": (1, "transfer amount must be positive"),
    "pool_charge": (1, "charge amount must be positive"),
    "reward": (1, "reward amount must be positive"), "stake": (1, "stake amount must be positive")}


class TokenLedger(Store):
    def __init__(
        self,
        total_supply: int,
        pools: Mapping[Pool, int],
        chain: Optional[Chain] = None,
        *,
        emission: int = 0,
        slash_fractions: Optional[Mapping[SlashReason, Fraction]] = None,
    ):
        self.total_supply = total_supply
        self.pools: dict[Pool, int] = {p: int(pools.get(p, 0)) for p in Pool}
        self.balances: dict[str, int] = {}
        self.stakes: dict[str, list[StakeEntry]] = {}
        self.burned = 0
        self.chain = chain
        self.emission = emission
        self.slash_fractions = dict(slash_fractions or DEFAULT_SLASH_FRACTIONS)

    # --- the transition ---

    def apply(self, kind: EventKind, body: Mapping, epoch: int) -> None:
        """Apply one token event; the live methods and the chain fold share it.

        ``body`` is what its kind declares (``report.EVENT_SPECS``): the live
        methods build it so, and the fold checks it first. An amount below its
        op's least (``_LEAST_AMOUNT``), a stake locked for less than one epoch
        or from before epoch 0, a debit above the holder's balance, a draw
        above the pool's, the unstake of an entry not held, a burn above the
        holder's stake, or a mint_genesis that is not the first, has a negative
        amount or pools that do not sum to its supply raises before anything
        changes, so the supply equation holds after every event.
        """
        op = None if kind is EventKind.SLASH_APPLIED else body["op"]
        if op in _LEAST_AMOUNT and body["amount"] < _LEAST_AMOUNT[op][0]:
            raise InvalidInput(_LEAST_AMOUNT[op][1])
        if kind is EventKind.TOKENS_TRANSFERRED:
            if op == "reward" or op == "grant":  # the one draw from a pool
                pool = Pool.REWARDS if op == "reward" else Pool(body["pool"])
                amount = body["amount"]
                if self.pools[pool] < amount:
                    raise InsufficientTokens(f"{pool.value} pool below {amount}")
                self.pools[pool] -= amount
                self._credit(body["to"], amount)
            elif op == "pool_charge":
                self._debit(body["from"], body["amount"])
                self.pools[Pool(body["pool"])] += body["amount"]
            elif op == "transfer":
                self._debit(body["from"], body["amount"])
                self._credit(body["to"], body["amount"])
            else:  # mint_genesis
                supply, pools = body["total_supply"], {p: body["pools"][p.value] for p in Pool}
                if self.total_supply:
                    raise InvalidInput(f"field op: mint_genesis, but the supply of "
                                       f"{self.total_supply} was minted already")
                for name, amount in [("total_supply", supply),
                                     *((f"pools.{p.value}", n) for p, n in pools.items())]:
                    if amount < 0:
                        raise InvalidInput(f"field {name}: {amount} is negative")
                if sum(pools.values()) != supply:
                    raise InvalidInput(f"field pools: they hold {sum(pools.values())} "
                                       f"of a total_supply of {supply}")
                self.total_supply, self.pools, self.emission = supply, pools, body["emission"]
        elif kind is EventKind.STAKE_CHANGED:
            if body["lock_epochs"] < 1:
                raise InvalidInput("field lock_epochs: lock must be at least one epoch")
            if body["lock_start_epoch"] < 0:
                raise InvalidInput("field lock_start_epoch: must not be negative")
            holder = body["holder"]
            entry = StakeEntry(body["amount"], body["lock_start_epoch"], body["lock_epochs"])
            if op == "stake":
                self._debit(holder, entry.amount)
                self.stakes.setdefault(holder, []).append(entry)
            else:  # unstake: the first entry equal in value leaves
                if entry not in self.stakes.get(holder, ()):
                    raise InvalidInput(f"{holder!r} holds no such stake entry")
                self.stakes[holder].remove(entry)
                self._credit(holder, entry.amount)
        else:  # SLASH_APPLIED
            remaining, holder = body["burned"], body["holder"]
            if remaining < 0:
                raise InvalidInput("burned amount must not be negative")
            staked = self.staked_total(holder)
            if remaining > staked:
                raise InvalidInput(f"field burned: {remaining} exceeds the {staked} "
                                   f"that {holder!r} has staked")
            entries = self.stakes.get(holder, [])
            entries.sort(key=lambda e: (e.lock_start_epoch, e.lock_epochs))
            while remaining > 0 and entries:
                entry = entries[0]
                take = min(entry.amount, remaining)
                entry.amount -= take
                remaining -= take
                if entry.amount == 0:
                    entries.pop(0)
            self.burned += body["burned"]

    def _credit(self, holder: str, amount: int) -> None:
        self.balances[holder] = self.balances.get(holder, 0) + amount

    def _debit(self, holder: str, amount: int) -> None:
        balance = self.balances.get(holder)
        if balance is None or balance < amount:
            raise InsufficientTokens(f"{holder} balance below {amount}")
        self.balances[holder] = balance - amount

    # --- genesis ---

    @classmethod
    def mint_genesis(
        cls,
        fractions: Optional[Mapping[Pool, Fraction]] = None,
        *,
        total_supply: int = DEFAULT_TOTAL_SUPPLY,
        emission_divisor: int = DEFAULT_EMISSION_DIVISOR,
        chain: Optional[Chain] = None,
        slash_fractions: Optional[Mapping[SlashReason, Fraction]] = None,
        genesis_meta: Optional[dict] = None,
    ) -> "TokenLedger":
        """Fund the pools from nothing; the only supply-creating operation."""
        pools = genesis_pools(validate_pool_fractions(
            DEFAULT_POOL_FRACTIONS if fractions is None else fractions), total_supply)
        body = {
            "op": "mint_genesis",
            "total_supply": total_supply,
            "pools": {p.value: pools[p] for p in Pool},
            "emission": pools[Pool.REWARDS] // emission_divisor,
        }
        if genesis_meta:
            body.update(genesis_meta)
        ledger = cls(0, {}, chain, slash_fractions=slash_fractions)
        ledger._record(EventKind.TOKENS_TRANSFERRED, body, actor="genesis", epoch=0)
        return ledger

    # --- bookkeeping ---

    def staked_total(self, stakeholder: str) -> int:
        return sum(e.amount for e in self.stakes.get(stakeholder, []))

    def allocated(self) -> int:
        return (
            sum(self.pools.values())
            + sum(self.balances.values())
            + sum(self.staked_total(s) for s in self.stakes)
            + self.burned
        )

    def conserved(self) -> bool:
        return self.allocated() == self.total_supply

    def snapshot(self) -> dict:
        return {
            "total_supply": self.total_supply,
            "pools": {p.value: self.pools[p] for p in Pool},
            "balances": dict(sorted(self.balances.items())),
            "stakes": {
                holder: [
                    {"amount": e.amount, "lock_start_epoch": e.lock_start_epoch,
                     "lock_epochs": e.lock_epochs}
                    for e in entries
                ]
                for holder, entries in sorted(self.stakes.items())
                if entries
            },
            "burned": self.burned,
        }

    def conservation_checksum(self) -> str:
        return sha256(canonical_json_bytes(self.snapshot())).hex()

    # --- movements ---

    def grant(self, pool: Pool, to: str, amount: int, *, epoch: int = 0) -> None:
        """Pool-to-stakeholder distribution (initial funding paths)."""
        self._record(EventKind.TOKENS_TRANSFERRED,
                     {"op": "grant", "pool": pool.value, "to": to, "amount": amount},
                     actor="token-ledger", epoch=epoch)

    def transfer(self, frm: str, to: str, amount: int, *, epoch: int = 0) -> None:
        self._record(EventKind.TOKENS_TRANSFERRED,
                     {"op": "transfer", "from": frm, "to": to, "amount": amount},
                     actor=frm, epoch=epoch)

    def charge_to_pool(self, frm: str, pool: Pool, amount: int, *, epoch: int = 0,
                       reason: str = "", ref: str = "") -> None:
        """Debit a stakeholder into a pool (quadratic-vote costs land here)."""
        body = {"op": "pool_charge", "from": frm, "pool": pool, "amount": amount}
        if reason:
            body["reason"] = reason
        if ref:
            body["ref"] = ref
        self._record(EventKind.TOKENS_TRANSFERRED, body, actor=frm, epoch=epoch)

    # --- staking ---

    def stake(self, stakeholder: str, amount: int, lock_epochs: int, *, epoch: int = 0) -> StakeEntry:
        self._record(EventKind.STAKE_CHANGED,
                     {"holder": stakeholder, "op": "stake", "amount": amount,
                      "lock_start_epoch": epoch, "lock_epochs": lock_epochs},
                     actor=stakeholder, epoch=epoch)
        return self.stakes[stakeholder][-1]

    def unstake(self, stakeholder: str, entry_index: int, *, epoch: int) -> int:
        entries = self.stakes.get(stakeholder, [])
        if not 0 <= entry_index < len(entries):
            raise InvalidInput("no such stake entry")
        entry = entries[entry_index]
        if epoch < entry.unlock_epoch():
            raise StillLocked(
                f"locked until epoch {entry.unlock_epoch()}, now {epoch}"
            )
        self._record(EventKind.STAKE_CHANGED,
                     {"holder": stakeholder, "op": "unstake", "amount": entry.amount,
                      "lock_start_epoch": entry.lock_start_epoch,
                      "lock_epochs": entry.lock_epochs},
                     actor=stakeholder, epoch=epoch)
        return entry.amount

    # --- rewards ---

    def distribute_rewards(
        self,
        epoch: int,
        compliance_factors: Optional[Mapping[str, Fraction]] = None,
    ) -> dict[str, int]:
        """Emit at most ``self.emission`` from REWARDS, split by s*d*c weight.

        Stakeholders with no compliance factor count as pure investors
        (c = 1). Returns the realized payouts; defers (no-op) when nothing
        is claimable or the pool cannot cover the emission.
        """
        factors = dict(compliance_factors or {})
        if self.pools[Pool.REWARDS] < self.emission or self.emission == 0:
            return {}
        # Each weight s*d*c as an integer numerator over c's denominator;
        # scaling all of them to one common denominator keeps every ratio
        # w / total_weight, so each share is one integer division.
        scaled: list[tuple[str, int, int]] = []
        for holder in sorted(self.stakes):
            c = factors.get(holder, ONE)
            # 0 <= c <= 1 on the terms; a Fraction's denominator is positive.
            if not 0 <= c.numerator <= c.denominator:
                raise InvalidInput(f"compliance factor out of [0,1] for {holder}")
            sd = sum(e.amount * e.elapsed(epoch) for e in self.stakes[holder])
            weight = sd * c.numerator
            if weight > 0:
                scaled.append((holder, weight, c.denominator))
        common = lcm(*(den for _, _, den in scaled))
        weights = {holder: num * (common // den) for holder, num, den in scaled}
        total_weight = sum(weights.values())
        if total_weight == 0:
            return {}
        payouts: dict[str, int] = {}
        for holder, w in weights.items():
            share = self.emission * w // total_weight
            if share == 0:
                continue
            payouts[holder] = share
            self._record(EventKind.TOKENS_TRANSFERRED,
                         {"op": "reward", "to": holder, "amount": share},
                         actor="token-ledger", epoch=epoch)
        return payouts

    # --- slashing ---

    def slash(
        self,
        stakeholder: str,
        reason: SlashReason,
        *,
        fraction: Optional[Fraction] = None,
        epoch: int = 0,
    ) -> int:
        """Burn a fraction of the stake, oldest entries first."""
        frac = self.slash_fractions[reason] if fraction is None else fraction
        if not 0 < frac <= 1:
            raise InvalidInput("slash fraction must be in (0, 1]")
        staked = self.staked_total(stakeholder)
        to_burn = int(frac * staked)  # floor
        # to_burn <= staked, so this is the stake left once it is consumed.
        self._record(EventKind.SLASH_APPLIED,
                     {"holder": stakeholder, "reason": reason.value,
                      "fraction": str(frac), "burned": to_burn,
                      "remaining_stake": staked - to_burn},
                     actor="token-ledger", epoch=epoch)
        return to_burn
