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


@dataclass(frozen=True)
class PedersenParams:
    """Public commitment parameters (p, q, g, h)."""

    p: int = P
    q: int = Q
    g: int = 4  # 4 = 2^2 is a generator of the order-q subgroup
    h: int = _hash_to_group(b"repro-pedersen-h")

    def commit(self, value: int, blinding: int) -> int:
        if not 0 <= value < self.q:
            raise ValueError("value out of range")
        return (pow(self.g, value, self.p) * pow(self.h, blinding % self.q, self.p)) % self.p


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
        self.params = PedersenParams()
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
        return value % self.params.q

    def record(self, reading_wh: int) -> Commitment:
        """Record one interval's consumption; publish its commitment."""
        if reading_wh < 0:
            raise ValueError("readings cannot be negative")
        blinding = self._random_scalar()
        c = self.params.commit(int(reading_wh), blinding)
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
        blinding = sum(t * r for t, r in zip(tariffs, self._blindings)) % self.params.q
        return BillProof(bill=bill, aggregate_blinding=blinding)

    def prove_opening(self, index: int) -> OpeningProof:
        """Schnorr proof of knowledge of the opening of commitment ``index``.

        Reveals *that* the meter knows a valid opening without revealing
        the reading — used for audits.
        """
        params = self.params
        m, r = self._readings[index], self._blindings[index]
        k_m, k_r = self._random_scalar(), self._random_scalar()
        t = (pow(params.g, k_m, params.p) * pow(params.h, k_r, params.p)) % params.p
        challenge = _fiat_shamir(params, self.commitments[index].value_c, t)
        return OpeningProof(
            commitment_t=t,
            response_value=(k_m + challenge * m) % params.q,
            response_blinding=(k_r + challenge * r) % params.q,
        )


def _fiat_shamir(params: PedersenParams, commitment: int, t: int) -> int:
    payload = b"|".join(
        str(x).encode() for x in (params.p, params.g, params.h, commitment, t)
    )
    return int.from_bytes(hashlib.sha256(payload).digest(), "big") % params.q


class UtilityVerifier:
    """The utility side: verifies bills and audits from public data only."""

    def __init__(self) -> None:
        self.params = PedersenParams()

    def verify_bill(
        self,
        commitments: list[Commitment],
        tariffs: list[int],
        proof: BillProof,
    ) -> bool:
        """Check ``prod C_i^{t_i} == g^bill h^blinding``."""
        if len(commitments) != len(tariffs):
            raise ValueError("commitments/tariffs length mismatch")
        params = self.params
        aggregate = 1
        for commitment, tariff in zip(commitments, tariffs):
            aggregate = (aggregate * pow(commitment.value_c, tariff, params.p)) % params.p
        expected = (
            pow(params.g, proof.bill, params.p)
            * pow(params.h, proof.aggregate_blinding, params.p)
        ) % params.p
        return aggregate == expected

    def verify_opening(self, commitment: Commitment, proof: OpeningProof) -> bool:
        """Check a Schnorr opening-knowledge proof."""
        params = self.params
        challenge = _fiat_shamir(params, commitment.value_c, proof.commitment_t)
        left = (
            pow(params.g, proof.response_value, params.p)
            * pow(params.h, proof.response_blinding, params.p)
        ) % params.p
        right = (
            proof.commitment_t * pow(commitment.value_c, challenge, params.p)
        ) % params.p
        return left == right
