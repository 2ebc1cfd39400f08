"""Privacy-preserving smart-meter billing with cryptographic commitments.

Reproduces the approach of "Private Memoirs of a Smart Meter"
(Molina-Markham et al., BuildSys'10, ref. [29]) and its follow-up on
low-cost microcontrollers (FC'12, ref. [30]), which Sec. III-C summarizes:
the meter keeps fine-grained readings local, publishes only *commitments*
to them, and answers billing queries with a verifiable proof — so the
utility can check the bill without ever seeing the consumption profile
that NIOM/NILM would mine.

Construction: Pedersen commitments over the order-q subgroup of Z_p* for a
safe prime p (the RFC 3526 1536-bit MODP group).  For reading m with
blinding r, ``C = g^m h^r mod p``.  Commitments are

* *hiding* — C is uniform regardless of m, so published commitments leak
  nothing (no occupancy, no appliances);
* *additively homomorphic* — ``prod C_i^{t_i} = g^{sum t_i m_i} h^{sum t_i r_i}``,
  so a time-of-use bill ``B = sum t_i m_i`` can be verified by opening only
  the aggregate;
* *binding* — a meter cannot open the aggregate to a different (cheaper)
  bill without solving discrete log.

A Schnorr proof (Fiat-Shamir) of knowledge of an opening is included for
spot-check audits of individual intervals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace

# RFC 3526, 1536-bit MODP group: p is a safe prime (p = 2q + 1)
_P_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
)
P = int(_P_HEX, 16)
Q = (P - 1) // 2


def _hash_to_group(label: bytes) -> int:
    """Derive a subgroup element with unknown discrete log (square of a hash)."""
    digest = b""
    counter = 0
    while len(digest) < 256:
        digest += hashlib.sha256(label + counter.to_bytes(4, "big")).digest()
        counter += 1
    value = int.from_bytes(digest, "big") % P
    return pow(value, 2, P)  # squaring lands in the order-q subgroup


#: Subgroup generators: 4 = 2^2 generates the order-q subgroup, and h is
#: derived from a hash so nobody knows its discrete log to base g.
G = 4
H = _hash_to_group(b"repro-pedersen-h")


def commit(value: int, blinding: int) -> int:
    """The Pedersen commitment ``g^value h^blinding mod p``."""
    if not 0 <= value < Q:
        raise ValueError("value out of range")
    return (pow(G, value, P) * pow(H, blinding % Q, P)) % P


@dataclass(frozen=True)
class Commitment:
    """A published commitment to one metering interval."""

    index: int
    value_c: int


@dataclass(frozen=True)
class BillProof:
    """Meter's response to a billing query: the bill and aggregate blinding."""

    bill: int
    aggregate_blinding: int


@dataclass(frozen=True)
class OpeningProof:
    """Schnorr proof of knowledge of (value, blinding) for one commitment."""

    commitment_t: int
    response_value: int
    response_blinding: int


class PrivateMeter:
    """The meter side: holds readings locally, publishes only commitments."""

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = np.random.default_rng(rng)
        self._readings: list[int] = []
        self._blindings: list[int] = []
        self.commitments: list[Commitment] = []

    def _random_scalar(self) -> int:
        # 256 random bits is far beyond the statistical-hiding requirement
        words = self._rng.integers(0, 2**32, size=8, dtype=np.uint64)
        value = 0
        for w in words:
            value = (value << 32) | int(w)
        return value % Q

    def record(self, reading_wh: int) -> Commitment:
        """Record one interval's consumption; publish its commitment."""
        if reading_wh < 0:
            raise ValueError("readings cannot be negative")
        blinding = self._random_scalar()
        c = commit(int(reading_wh), blinding)
        commitment = Commitment(index=len(self._readings), value_c=c)
        self._readings.append(int(reading_wh))
        self._blindings.append(blinding)
        self.commitments.append(commitment)
        return commitment

    def record_trace(self, trace: PowerTrace) -> list[Commitment]:
        """Commit to every interval of a power trace (Wh per interval)."""
        wh = trace.values * trace.period_s / 3600.0
        return [self.record(int(round(v))) for v in wh]

    def billing_response(self, tariffs: list[int]) -> BillProof:
        """Answer a time-of-use billing query over all recorded intervals.

        ``tariffs[i]`` is the (integer) price weight of interval i; the
        response reveals only the total bill, not any reading.
        """
        if len(tariffs) != len(self._readings):
            raise ValueError("tariff vector length mismatch")
        if any(t < 0 for t in tariffs):
            raise ValueError("tariffs cannot be negative")
        bill = sum(t * m for t, m in zip(tariffs, self._readings))
        blinding = sum(t * r for t, r in zip(tariffs, self._blindings)) % Q
        return BillProof(bill=bill, aggregate_blinding=blinding)

    def prove_opening(self, index: int) -> OpeningProof:
        """Schnorr proof of knowledge of the opening of commitment ``index``.

        Reveals *that* the meter knows a valid opening without revealing
        the reading — used for audits.
        """
        m, r = self._readings[index], self._blindings[index]
        k_m, k_r = self._random_scalar(), self._random_scalar()
        t = (pow(G, k_m, P) * pow(H, k_r, P)) % P
        challenge = _fiat_shamir(self.commitments[index].value_c, t)
        return OpeningProof(
            commitment_t=t,
            response_value=(k_m + challenge * m) % Q,
            response_blinding=(k_r + challenge * r) % Q,
        )


def _fiat_shamir(commitment: int, t: int) -> int:
    payload = b"|".join(str(x).encode() for x in (P, G, H, commitment, t))
    return int.from_bytes(hashlib.sha256(payload).digest(), "big") % Q


class UtilityVerifier:
    """The utility side: verifies bills and audits from public data only."""

    def verify_bill(
        self,
        commitments: list[Commitment],
        tariffs: list[int],
        proof: BillProof,
    ) -> bool:
        """Check ``prod C_i^{t_i} == g^bill h^blinding``."""
        if len(commitments) != len(tariffs):
            raise ValueError("commitments/tariffs length mismatch")
        aggregate = 1
        for commitment, tariff in zip(commitments, tariffs):
            aggregate = (aggregate * pow(commitment.value_c, tariff, P)) % P
        expected = (pow(G, proof.bill, P) * pow(H, proof.aggregate_blinding, P)) % P
        return aggregate == expected

    def verify_opening(self, commitment: Commitment, proof: OpeningProof) -> bool:
        """Check a Schnorr opening-knowledge proof."""
        challenge = _fiat_shamir(commitment.value_c, proof.commitment_t)
        left = (
            pow(G, proof.response_value, P) * pow(H, proof.response_blinding, P)
        ) % P
        right = (proof.commitment_t * pow(commitment.value_c, challenge, P)) % P
        return left == right
