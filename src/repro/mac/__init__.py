"""MAC layer: backoff policies, IdleSense baseline and the scheme kinds."""

from .backoff import (
    BackoffPolicy,
    FixedWindowBackoff,
    PPersistentBackoff,
    RandomResetBackoff,
    StandardExponentialBackoff,
)
from .batched import (
    BatchedDcfBank,
    BatchedIdleSenseBank,
    BatchedPPersistentBank,
    BatchedPolicyBank,
    BatchedRandomResetBank,
)
from .idlesense import DEFAULT_TARGET_IDLE_SLOTS, IdleSenseBackoff
from .ntuning import NEstimatingPersistentBackoff
from .schemes import (
    SCHEME_KINDS,
    Scheme,
    SchemeKind,
    fixed_p_persistent_scheme,
    fixed_randomreset_scheme,
    idlesense_scheme,
    n_estimating_scheme,
    scheme_kind,
    standard_80211_scheme,
    tora_csma_scheme,
    wtop_csma_scheme,
)

__all__ = [
    "BackoffPolicy",
    "BatchedDcfBank",
    "BatchedIdleSenseBank",
    "BatchedPPersistentBank",
    "BatchedPolicyBank",
    "BatchedRandomResetBank",
    "FixedWindowBackoff",
    "PPersistentBackoff",
    "RandomResetBackoff",
    "StandardExponentialBackoff",
    "DEFAULT_TARGET_IDLE_SLOTS",
    "IdleSenseBackoff",
    "NEstimatingPersistentBackoff",
    "SCHEME_KINDS",
    "Scheme",
    "SchemeKind",
    "fixed_p_persistent_scheme",
    "fixed_randomreset_scheme",
    "idlesense_scheme",
    "n_estimating_scheme",
    "scheme_kind",
    "standard_80211_scheme",
    "tora_csma_scheme",
    "wtop_csma_scheme",
]
