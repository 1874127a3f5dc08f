"""Exception hierarchy.

Every named failure mode raises a distinct class so callers (and tests) can
match on type instead of message text. All inherit from GovSimError.
"""


class GovSimError(Exception):
    """Base class for all govsim errors."""


# --- ledger ---

class EncodingError(GovSimError):
    """Payload bytes are not in canonical form."""

class QuorumNotMet(GovSimError):
    """``seal_all`` was given fewer authority keys than the chain's quorum."""

class UnknownAuthority(GovSimError):
    """``seal_all`` was given a key for an id that is not a registered sealing authority."""

class SignatureInvalid(GovSimError):
    """``seal_all`` was given a private key that does not derive its authority's public key."""

class EventInvalid(GovSimError):
    """A sealed event's body is not what its kind declares, or cannot be folded;
    ``phase_fault`` is the (height, reason) of an earlier event's bad phase stamp."""

    def __init__(self, height: int, reason: str, phase_fault: tuple[int, str] | None = None):
        super().__init__(f"at height {height}: {reason}")
        self.height, self.reason, self.phase_fault = height, reason, phase_fault


# --- identity ---

class DuplicateIdentity(GovSimError):
    """Public key already registered."""

class ProhibitedSystem(GovSimError):
    """Attempt to register a system at the prohibited risk tier."""

class UnknownStakeholder(GovSimError):
    """Referenced stakeholder id does not exist."""

class UnknownIdentity(GovSimError):
    """Referenced DID does not exist."""

class AccessDenied(GovSimError):
    """RBAC policy forbids the (role, action) pair, or the ownership rule fails."""

class NotFound(GovSimError):
    """No blob stored under the given content address."""

class TooLarge(GovSimError):
    """Blob exceeds the configured maximum size."""

class InvalidBlob(GovSimError):
    """Blob violates a store precondition (e.g. empty)."""


# --- governance ---

class NoVotingPower(GovSimError):
    """Total raw weighted power is zero."""

class InsufficientCandidates(GovSimError):
    """Fewer stakeholders with positive power than seats to fill."""

class AlreadyVoted(GovSimError):
    """Stakeholder already voted on this proposal."""

class InsufficientTokens(GovSimError):
    """Unstaked balance cannot cover the requested amount."""

class ProposalClosed(GovSimError):
    """Vote cast against a proposal that is no longer open."""

class AlreadyResolved(GovSimError):
    """Tally requested for an already-resolved proposal."""

class InvalidWeights(GovSimError):
    """Proposed vote weights violate the VoteWeights invariants."""


# --- compliance ---

class GovernanceRequired(GovSimError):
    """Rule registration without a passed RULE_UPDATE proposal."""

class InvalidRule(GovSimError):
    """Malformed predicate tree or undeclared metric reference."""

class MissingInput(GovSimError):
    """A rule references a metric absent from the supplied values."""

class DuplicateFeed(GovSimError):
    """Oracle feed already ingested for this (feed_id, epoch)."""

class UnknownOracle(GovSimError):
    """Feed signer is not a registered oracle authority."""

class InvalidPanel(GovSimError):
    """Dispute panel is even-sized, too small, or ineligible."""

class AlreadyDisputed(GovSimError):
    """Second dispute opened on the same assessment."""


# --- audit ---

class UnknownAccreditor(GovSimError):
    """Accrediting body is not registered."""

class InvalidScope(GovSimError):
    """Certification requested with an empty scope set."""

class UnassignableAudit(GovSimError):
    """A due system has no eligible auditor."""

class EvidenceForged(GovSimError):
    """Disclosed metrics and salt do not re-hash to the commitment."""

class ScopeViolation(GovSimError):
    """Auditor certification expired or does not cover the system's rule domains."""


# --- tokens ---

class InvalidAllocation(GovSimError):
    """Genesis pool fractions do not sum to exactly 1."""

class StillLocked(GovSimError):
    """Unstake attempted before the lock expires."""


# --- risk ---

class InvalidInput(GovSimError):
    """Numeric argument outside its documented range."""

class InsufficientHistory(GovSimError):
    """Forecast requested over an empty history."""

class TerminalState(GovSimError):
    """Incident advanced past its final state."""


# --- interop ---

class MalformedRecord(GovSimError):
    """Legacy row does not parse under the declared delimiter/column count."""

class ConversionError(GovSimError):
    """Legacy column value cannot be converted to its declared type."""

class UnsupportedDowngrade(GovSimError):
    """Message upgrade requested to a lower schema version."""

class UnsupportedFormat(GovSimError):
    """Unknown export format."""


# --- simctl ---

class ScenarioError(GovSimError):
    """A scenario, or another document read by ``encoding._Keys``, fails
    validation; message carries the offending path."""

class IoError(GovSimError):
    """Chain or report file missing, truncated, or unreadable."""
