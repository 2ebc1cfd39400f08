"""Streaming HMM/FHMM decoding: filtering plus bounded-lag smoothing.

Batch NILM decoding is *smoothing*: every label conditions on the whole
trace (Viterbi, or forward-backward posteriors).  A live observer cannot
wait for the whole trace; the streaming decoders here run the forward
recursion incrementally (:func:`repro.ml.kernels.forward_filter_chunk`)
and emit labels under one of two disciplines:

* **filtering** (``lag=0``) — label sample ``t`` from ``alpha_hat[t]``,
  the posterior given observations up to ``t``, emitted the moment the
  sample arrives;
* **bounded-lag smoothing** (``lag=L > 0``) — hold a sample back until
  ``L`` further samples have arrived, then label it from a backward pass
  over a ``2L`` look-ahead window.  Labels stream out ``L`` samples
  behind the feed but recover most of the accuracy full smoothing gets.

Chunk-size invariance is exact in both modes: the forward recursion is
the sequential kernel (bitwise chunk-invariant by construction), the
emission rows and scaling shifts are row-local, and the bounded-lag
emission schedule depends only on the *total sample count*, never on
where chunk boundaries fall.  The per-sample normalizers and shifts are
accumulated and summed once at :meth:`finalize`, so the reported
log-likelihood is also bitwise chunk-invariant (an incremental ``+=``
would reassociate the sum differently per chunking).

What is *not* exact is filtering/bounded-lag versus batch smoothing —
that gap is inherent to online inference, is documented here, and is
pinned by tolerance tests in ``tests/test_stream.py``:

* with ``lag >= n`` the finalize-time backward pass reduces to the batch
  forward-backward, and posteriors match ``kernels.estep_loop`` gammas
  bitwise;
* with modest lag (>= a few typical dwell times) label agreement with
  batch smoothing is high (>= 0.95 on the tested workloads);
* FHMM streamed labels are posterior argmaxes, compared against batch
  *Viterbi* paths (>= 0.9 agreement tested) — MAP-per-sample and MAP-path
  are different estimators, another documented gap.
"""

from __future__ import annotations

import numpy as np

from ..ml import FactorialHMM, GaussianHMM
from ..ml import kernels
from ..obs import TELEMETRY
from .source import StreamClock


class StreamingHMMDecoder:
    """Incremental Gaussian-HMM state decoding over a power feed.

    Parameters
    ----------
    hmm:
        A fitted (or hand-parameterized) single-feature :class:`GaussianHMM`
        over raw power samples.
    lag:
        Smoothing lag ``L`` in samples.  ``0`` emits pure filtering labels;
        larger values hold each label back ``L`` samples and smooth it over
        a ``2L`` window.  ``lag >= len(stream)`` reproduces batch smoothing
        exactly.
    keep_history:
        Keep every forward row (``alpha_hat``) and normalizer for test
        introspection via :attr:`alpha_history`.  Off by default — the
        decoder then holds only the O(lag) live window plus the O(n)
        normalizer/shift scalars needed for the final log-likelihood.
    """

    def __init__(
        self, hmm: GaussianHMM, lag: int = 0, keep_history: bool = False
    ) -> None:
        hmm._check_fitted()
        if hmm.means_.shape[1] != 1:
            raise ValueError("streaming decoder requires a single-feature HMM")
        if lag < 0:
            raise ValueError("lag must be >= 0")
        self.hmm = hmm
        self.lag = int(lag)
        self.keep_history = keep_history
        self._alpha_prev: np.ndarray | None = None
        self._total = 0
        self._emit = 0  # samples labeled so far
        k = hmm.n_states
        self._alpha_buf = np.empty((0, k))  # rows [emit, total)
        self._b_buf = np.empty((0, k))
        self._c_buf = np.empty(0)
        self._c_chunks: list[np.ndarray] = []
        self._shift_chunks: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []
        self._alpha_history: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Stream protocol
    # ------------------------------------------------------------------
    def open(self, clock: StreamClock) -> None:
        self._clock = clock

    def push(self, values: np.ndarray) -> np.ndarray:
        """Consume a chunk; return the labels it released (may be empty)."""
        values = np.asarray(values, dtype=float)
        if len(values) == 0:
            return np.empty(0, dtype=int)
        X = values.reshape(-1, 1)
        # Row-local emissions and shifts: each row depends only on its own
        # sample, so the (b, shift) values are chunking-independent.
        log_b = self.hmm._emission_logprob(X)
        shift = log_b.max(axis=1)
        b = np.exp(log_b - shift[:, None])
        alpha, c = kernels.forward_filter_chunk(
            self.hmm.startprob_, self.hmm.transmat_, b, self._alpha_prev
        )
        self._alpha_prev = alpha[-1].copy()
        self._total += len(values)
        self._c_chunks.append(c)
        self._shift_chunks.append(shift)
        if self.keep_history:
            self._alpha_history.append(alpha.copy())
        self._alpha_buf = np.concatenate([self._alpha_buf, alpha])
        self._b_buf = np.concatenate([self._b_buf, b])
        self._c_buf = np.concatenate([self._c_buf, c])
        out = self._emit_ready()
        TELEMETRY.count("stream.hmm.samples", len(values))
        return out

    def finalize(self) -> np.ndarray:
        """Label the held-back tail with the exact suffix backward pass."""
        # beta = 1 at the true last sample is the batch boundary condition,
        # so the final block is smoothed exactly as a batch pass smooths it.
        return self._flush()

    def resync(self, gap_samples: int = 0) -> np.ndarray:
        """Treat a feed discontinuity as a segment boundary.

        The held-back samples are labeled with a backward pass whose
        ``beta = 1`` boundary sits at the last pre-gap sample — exactly
        the end-of-stream condition, so the pre-gap segment is smoothed
        as if it were a complete trace rather than silently decoded
        across the gap.  The forward recursion then restarts from the
        model's ``startprob_`` at the next sample.  Returns the labels
        the flush released.
        """
        del gap_samples  # labels are indexed by consumed sample, not clock
        released = self._flush()
        self._alpha_prev = None
        return released

    @property
    def labels(self) -> np.ndarray:
        """Every label emitted so far, in sample order."""
        if not self._labels:
            return np.empty(0, dtype=int)
        return np.concatenate(self._labels)

    @property
    def alpha_history(self) -> np.ndarray:
        """All forward rows (requires ``keep_history=True``)."""
        if not self.keep_history:
            raise RuntimeError("constructed with keep_history=False")
        if not self._alpha_history:
            return np.empty((0, self.hmm.n_states))
        return np.concatenate(self._alpha_history)

    def log_likelihood(self) -> float:
        """Log-likelihood of everything pushed so far.

        Summed once over the stored per-sample normalizers and shifts, in
        index order — the same reduction the batch pass performs — so the
        value is bitwise chunk-invariant.
        """
        if not self._c_chunks:
            return 0.0
        c = np.concatenate(self._c_chunks)
        shift = np.concatenate(self._shift_chunks)
        return float(np.log(c).sum() + shift.sum())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit_ready(self) -> np.ndarray:
        """Emit every label whose look-ahead window is now full."""
        if self.lag == 0:
            # filtering: argmax of the forward posterior, immediately
            pending = self._total - self._emit
            labels = np.argmax(self._alpha_buf[:pending], axis=1)
            self._labels.append(labels)
            self._advance(pending)
            self._emit = self._total
            return labels
        released: list[np.ndarray] = []
        # Block schedule: the block [emit, emit + L) is released the moment
        # total >= emit + 2L.  Both the trigger and the smoothing window
        # [emit, emit + 2L) are functions of sample counts only, so the
        # schedule — and every released label — is chunking-independent.
        while self._total - self._emit >= 2 * self.lag:
            labels = self._smooth_block(2 * self.lag)[: self.lag]
            released.append(labels)
            self._labels.append(labels)
            self._advance(self.lag)
            self._emit += self.lag
        if released:
            return np.concatenate(released)
        return np.empty(0, dtype=int)

    def _flush(self) -> np.ndarray:
        """Label every held-back sample, with beta = 1 at the last one."""
        pending = self._total - self._emit
        if pending <= 0:
            return np.empty(0, dtype=int)
        labels = self._smooth_block(pending)
        self._labels.append(labels)
        self._advance(pending)
        self._emit = self._total
        return labels

    def _smooth_block(self, window: int) -> np.ndarray:
        """Backward pass over buffer rows [0, window), beta = 1 at its end.

        :func:`kernels.backward_scaled_loop` over that window; the
        resulting posteriors are ``alpha * beta`` argmaxes.  Normalization
        of gamma is skipped — argmax over a row is unchanged by a positive
        row scale.
        """
        beta = kernels.backward_scaled_loop(
            self.hmm.transmat_, self._b_buf[:window], self._c_buf[:window]
        )
        return np.argmax(self._alpha_buf[:window] * beta, axis=1)

    def _advance(self, n: int) -> None:
        self._alpha_buf = self._alpha_buf[n:]
        self._b_buf = self._b_buf[n:]
        self._c_buf = self._c_buf[n:]

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "lag": self.lag,
            "alpha_prev": None
            if self._alpha_prev is None
            else self._alpha_prev.copy(),
            "total": self._total,
            "emit": self._emit,
            "alpha_buf": self._alpha_buf.copy(),
            "b_buf": self._b_buf.copy(),
            "c_buf": self._c_buf.copy(),
            "c_chunks": [c.copy() for c in self._c_chunks],
            "shift_chunks": [s.copy() for s in self._shift_chunks],
            "labels": [l.copy() for l in self._labels],
        }

    def load_state(self, state: dict) -> None:
        if state["lag"] != self.lag:
            raise ValueError("state was saved with different parameters")
        ap = state["alpha_prev"]
        self._alpha_prev = None if ap is None else np.asarray(ap).copy()
        self._total = int(state["total"])
        self._emit = int(state["emit"])
        self._alpha_buf = np.asarray(state["alpha_buf"]).copy()
        self._b_buf = np.asarray(state["b_buf"]).copy()
        self._c_buf = np.asarray(state["c_buf"]).copy()
        self._c_chunks = [np.asarray(c).copy() for c in state["c_chunks"]]
        self._shift_chunks = [
            np.asarray(s).copy() for s in state["shift_chunks"]
        ]
        self._labels = [np.asarray(l).copy() for l in state["labels"]]


class StreamingFHMMDecoder:
    """Incremental factorial-HMM disaggregation over an aggregate feed.

    Runs the same filtering / bounded-lag machinery as
    :class:`StreamingHMMDecoder` on the FHMM's *joint* state space, then
    maps each emitted joint label to per-chain states and per-chain power
    estimates (the chain's emission mean, clipped at zero, exactly as the
    batch :meth:`~repro.ml.FactorialHMM.disaggregate` maps them).
    """

    def __init__(self, fhmm: FactorialHMM, lag: int = 0) -> None:
        self.fhmm = fhmm
        # An adapter HMM over the joint space lets the scalar decoder drive
        # the recursion; emissions are overridden below because the FHMM's
        # joint emission density is its own (aggregate-sum) form.
        joint = GaussianHMM(fhmm.n_joint_states)
        joint.startprob_ = fhmm._startprob
        joint.transmat_ = fhmm._transmat
        joint.means_ = fhmm._means.reshape(-1, 1)
        joint.variances_ = fhmm._variances.reshape(-1, 1)
        joint._emission_logprob = lambda X: fhmm._emission_logprob(X[:, 0])
        self._decoder = StreamingHMMDecoder(joint, lag=lag)

    def open(self, clock: StreamClock) -> None:
        self._decoder.open(clock)

    def push(self, values: np.ndarray) -> np.ndarray:
        """Consume a chunk; return released per-chain states ``(m, n_chains)``."""
        joint_labels = self._decoder.push(values)
        TELEMETRY.count("stream.fhmm.samples", len(np.atleast_1d(values)))
        return self.fhmm._joint_states[joint_labels]

    def finalize(self) -> np.ndarray:
        return self.fhmm._joint_states[self._decoder.finalize()]

    def resync(self, gap_samples: int = 0) -> np.ndarray:
        """Segment-boundary flush at a discontinuity (see the HMM decoder)."""
        return self.fhmm._joint_states[self._decoder.resync(gap_samples)]

    @property
    def states(self) -> np.ndarray:
        """All released per-chain states so far, shape ``(m, n_chains)``."""
        return self.fhmm._joint_states[self._decoder.labels]

    def powers(self) -> np.ndarray:
        """Per-chain power estimates for the released samples."""
        states = self.states
        n, m = states.shape
        out = np.empty((n, m))
        for j, chain in enumerate(self.fhmm.chains):
            out[:, j] = chain.means_[states[:, j], 0]
        return np.maximum(out, 0.0)

    def log_likelihood(self) -> float:
        return self._decoder.log_likelihood()

    def state_dict(self) -> dict:
        return self._decoder.state_dict()

    def load_state(self, state: dict) -> None:
        self._decoder.load_state(state)


# ---------------------------------------------------------------------------
# Hand-built model constructors for online attacks
# ---------------------------------------------------------------------------
def two_state_power_hmm() -> GaussianHMM:
    """A hand-parameterized idle/active HMM over raw power samples.

    Streaming evaluation needs a model *before* the trace exists, so the
    online decoder attack uses fixed, physically motivated parameters
    rather than Baum-Welch (which is inherently batch).  State 0 is idle
    (background load, 150 W with a 120 W std), state 1 active (900 W with
    a 500 W std); each stays put from one sample to the next with
    probability 0.97.
    """
    stay = 0.97
    hmm = GaussianHMM(2)
    return hmm.set_parameters(
        startprob=np.array([0.6, 0.4]),
        transmat=np.array([[stay, 1.0 - stay], [1.0 - stay, stay]]),
        means=np.array([[150.0], [900.0]]),
        variances=np.array([[120.0**2], [500.0**2]]),
    )


#: On-power (W) of the appliances the online NILM adversary knows.
_SIGNATURE_APPLIANCE_W = {"fridge": 150.0, "heater": 1500.0, "oven": 2200.0}


def signature_fhmm() -> FactorialHMM:
    """A factorial HMM from known on-power signatures.

    Models the online NILM adversary of the paper's threat model: the
    attacker knows typical appliance wattages (public spec sheets) and
    composes two-state (off/on) chains without any training trace, each
    staying put from one sample to the next with probability 0.98.  A
    constant 120 W chain absorbs the always-on background load, and the
    model's noise variance is 2500 W^2.
    """
    stay = 0.98
    chains = []
    base = GaussianHMM(1)
    base.set_parameters(
        startprob=np.array([1.0]),
        transmat=np.array([[1.0]]),
        means=np.array([[120.0]]),
        variances=np.array([[50.0**2]]),
    )
    chains.append(base)
    for watts in _SIGNATURE_APPLIANCE_W.values():
        chain = GaussianHMM(2)
        chain.set_parameters(
            startprob=np.array([0.8, 0.2]),
            transmat=np.array([[stay, 1.0 - stay], [1.0 - stay, stay]]),
            means=np.array([[0.0], [watts]]),
            variances=np.array([[25.0**2], [(0.1 * watts) ** 2 + 1.0]]),
        )
        chains.append(chain)
    return FactorialHMM(chains, noise_var=2500.0)
