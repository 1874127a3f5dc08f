"""Finite-supply token accounting.

All quantities are non-negative integers in base units and every operation
preserves, exactly:

    sum(pools) + sum(balances) + sum(stakes) + burned == total_supply

Reward shares are floored; remainders stay in the REWARDS pool. Slashing
burns floor(fraction * staked), consuming the oldest stake entries first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .encoding import canonical_json_bytes, sha256
from .errors import InsufficientTokens, InvalidAllocation, InvalidInput, StillLocked
from .ledger import Chain, EventKind

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


class TokenLedger:
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
        fractions = dict(DEFAULT_POOL_FRACTIONS if fractions is None else fractions)
        if sum(fractions.values(), Fraction(0)) != 1:
            raise InvalidAllocation("pool fractions must sum to exactly 1")
        pools: dict[Pool, int] = {}
        for pool in Pool:
            share = fractions.get(pool, Fraction(0)) * total_supply
            pools[pool] = int(share)  # floor
        # Flooring dust goes to REWARDS so the supply equation stays exact.
        pools[Pool.REWARDS] += total_supply - sum(pools.values())
        emission = pools[Pool.REWARDS] // emission_divisor
        ledger = cls(total_supply, pools, chain,
                     emission=emission, slash_fractions=slash_fractions)
        if chain is not None:
            body = {
                "op": "mint_genesis",
                "total_supply": total_supply,
                "pools": {p.value: pools[p] for p in Pool},
                "emission": emission,
            }
            if genesis_meta:
                body.update(genesis_meta)
            chain.append(EventKind.TOKENS_TRANSFERRED, body, actor="genesis", epoch=0)
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

    def _emit(self, body: dict, *, epoch: int, actor: str = "token-ledger") -> None:
        if self.chain is not None:
            self.chain.append(EventKind.TOKENS_TRANSFERRED, body, actor=actor, epoch=epoch)

    # --- movements ---

    def grant(self, pool: Pool, to: str, amount: int, *, epoch: int = 0) -> None:
        """Pool-to-stakeholder distribution (initial funding paths)."""
        if amount < 0:
            raise InvalidInput("negative grant")
        if self.pools[pool] < amount:
            raise InsufficientTokens(f"{pool.value} pool below {amount}")
        self.pools[pool] -= amount
        self.balances[to] = self.balances.get(to, 0) + amount
        self._emit({"op": "grant", "pool": pool.value, "to": to, "amount": amount},
                   epoch=epoch)

    def transfer(self, frm: str, to: str, amount: int, *, epoch: int = 0) -> None:
        if amount <= 0:
            raise InvalidInput("transfer amount must be positive")
        if self.balances.get(frm, 0) < amount:
            raise InsufficientTokens(f"{frm} balance below {amount}")
        self.balances[frm] -= amount
        self.balances[to] = self.balances.get(to, 0) + amount
        self._emit({"op": "transfer", "from": frm, "to": to, "amount": amount},
                   epoch=epoch, actor=frm)

    def charge_to_pool(self, frm: str, pool: Pool, amount: int, *, epoch: int = 0,
                       reason: str = "", ref: str = "") -> None:
        """Debit a stakeholder into a pool (quadratic-vote costs land here)."""
        if amount <= 0:
            raise InvalidInput("charge amount must be positive")
        if self.balances.get(frm, 0) < amount:
            raise InsufficientTokens(f"{frm} balance below {amount}")
        self.balances[frm] -= amount
        self.pools[pool] += amount
        body = {"op": "pool_charge", "from": frm, "pool": pool.value, "amount": amount}
        if reason:
            body["reason"] = reason
        if ref:
            body["ref"] = ref
        self._emit(body, epoch=epoch, actor=frm)

    # --- staking ---

    def stake(self, stakeholder: str, amount: int, lock_epochs: int, *, epoch: int = 0) -> StakeEntry:
        if amount <= 0:
            raise InvalidInput("stake amount must be positive")
        if lock_epochs < 1:
            raise InvalidInput("lock must be at least one epoch")
        if self.balances.get(stakeholder, 0) < amount:
            raise InsufficientTokens(f"{stakeholder} balance below {amount}")
        self.balances[stakeholder] -= amount
        entry = StakeEntry(amount=amount, lock_start_epoch=epoch, lock_epochs=lock_epochs)
        self.stakes.setdefault(stakeholder, []).append(entry)
        if self.chain is not None:
            self.chain.append(
                EventKind.STAKE_CHANGED,
                {"holder": stakeholder, "op": "stake", "amount": amount,
                 "lock_start_epoch": epoch, "lock_epochs": lock_epochs},
                actor=stakeholder, epoch=epoch,
            )
        return entry

    def unstake(self, stakeholder: str, entry_index: int, *, epoch: int) -> int:
        entries = self.stakes.get(stakeholder, [])
        if not 0 <= entry_index < len(entries):
            raise InvalidInput("no such stake entry")
        entry = entries[entry_index]
        if epoch < entry.unlock_epoch():
            raise StillLocked(
                f"locked until epoch {entry.unlock_epoch()}, now {epoch}"
            )
        entries.pop(entry_index)
        self.balances[stakeholder] = self.balances.get(stakeholder, 0) + entry.amount
        if self.chain is not None:
            self.chain.append(
                EventKind.STAKE_CHANGED,
                {"holder": stakeholder, "op": "unstake", "amount": entry.amount,
                 "lock_start_epoch": entry.lock_start_epoch,
                 "lock_epochs": entry.lock_epochs},
                actor=stakeholder, epoch=epoch,
            )
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
        weights: dict[str, Fraction] = {}
        for holder in sorted(self.stakes):
            c = factors.get(holder, Fraction(1))
            if not 0 <= c <= 1:
                raise InvalidInput(f"compliance factor out of [0,1] for {holder}")
            sd = sum(e.amount * e.elapsed(epoch) for e in self.stakes[holder])
            w = Fraction(sd) * c
            if w > 0:
                weights[holder] = w
        total_weight = sum(weights.values(), Fraction(0))
        if total_weight == 0:
            return {}
        payouts: dict[str, int] = {}
        for holder, w in weights.items():
            share = int(self.emission * w / total_weight)  # floor
            if share == 0:
                continue
            payouts[holder] = share
            self.pools[Pool.REWARDS] -= share
            self.balances[holder] = self.balances.get(holder, 0) + share
            self._emit({"op": "reward", "to": holder, "amount": share}, epoch=epoch)
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
        remaining = to_burn
        entries = self.stakes.get(stakeholder, [])
        entries.sort(key=lambda e: (e.lock_start_epoch, e.lock_epochs))
        while remaining > 0 and entries:
            entry = entries[0]
            take = min(entry.amount, remaining)
            entry.amount -= take
            remaining -= take
            if entry.amount == 0:
                entries.pop(0)
        self.burned += to_burn
        if self.chain is not None:
            self.chain.append(
                EventKind.SLASH_APPLIED,
                {"holder": stakeholder, "reason": reason.value,
                 "fraction": str(frac), "burned": to_burn,
                 "remaining_stake": self.staked_total(stakeholder)},
                actor="token-ledger", epoch=epoch,
            )
        return to_burn
