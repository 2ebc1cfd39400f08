"""Vectorized numerical kernels behind the HMM family.

This module is the repository's hot-path kernel library: the inner
recurrences that dominated tier-1 wall clock (per-timestep Python loops in
the HMM forward/backward/Viterbi passes and the FHMM joint-space
construction, found via ``repro fleet --telemetry/--profile`` — see
``docs/PERFORMANCE.md``) rewritten as batched numpy operations.

Every vectorized kernel here ships next to its pre-vectorization loop
implementation (the ``*_loop`` functions, kept verbatim from the original
code).  The loop versions are the *reference semantics*: equivalence tests
(``tests/test_kernel_equivalence.py``) pin each kernel to its reference —
bitwise-identical where the arithmetic permits (Viterbi paths, joint-chain
parameters, Gaussian log-densities), documented-tolerance-identical where
reassociation is inherent (the scan-based forward/backward pass) — and
the same file holds the >= 3x speedup floors on HMM fit+decode and FHMM
joint-space decode, so the headline speedups are regression-tested, not
anecdotal.  ``perfbench/`` measures what they buy end to end.

Equivalence contracts
---------------------
* :func:`log_gaussian` — bitwise equal to :func:`log_gaussian_loop`
  (same reductions over the same axes, same operation order).
* :func:`viterbi` — returns bitwise-identical state paths to
  :func:`viterbi_loop`: the per-step score values are computed with the
  same additions, ``max`` is exact, and backtracking recomputes exactly
  the ``argmax`` the reference stored, so tie-breaking matches too.
* :func:`joint_chain_params` — bitwise equal to
  :func:`joint_chain_params_loop`: the Kronecker folds multiply/add the
  per-chain factors in the same left-to-right order the loops did.
* :func:`estep` — the scan path is tolerance-identical to
  :func:`estep_loop` (posterior/transition statistics agree to ~1e-12;
  log-likelihood to ~1e-9 relative): a matrix-product prefix scan
  necessarily reassociates the floating-point recurrence.  Dispatch
  between scan and loop depends only on array *shapes*, never values, so
  results stay deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

from ..obs import TELEMETRY

#: Probabilities below this are treated as zero in log/normalization guards.
LOG_EPS = 1e-300

#: Elementwise budget for scan/broadcast temporaries: kernels that would
#: allocate more than this many float64 elements fall back to their loop
#: implementation instead of thrashing memory (dispatch is shape-based, so
#: it is deterministic for a given workload).
SCAN_MAX_ELEMENTS = 8_000_000

#: Sequences shorter than this gain nothing from the scan's batched
#: matmuls; the loop reference is used directly.
SCAN_MIN_SAMPLES = 16

_TINY = 1e-300


# ---------------------------------------------------------------------------
# Gaussian emission log-densities
# ---------------------------------------------------------------------------
def log_gaussian(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Log density of each row of X under each diagonal Gaussian.

    Returns an ``(n_samples, n_states)`` matrix.  Bitwise-identical to
    :func:`log_gaussian_loop`: the constant term and the quadratic form are
    reduced over the feature axis with the same pairwise summation the
    per-state loop performed.
    """
    n, d = X.shape
    k = len(means)
    if n * k * d > SCAN_MAX_ELEMENTS:
        return log_gaussian_loop(X, means, variances)
    # (a + b) + c with the loop's exact association:
    #   a = d*log(2*pi), b = sum_j log(var_kj), c = sum_j diff^2/var
    const = d * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1)
    diff = X[:, None, :] - means[None, :, :]
    quad = (diff * diff / variances[None, :, :]).sum(axis=2)
    return -0.5 * (const[None, :] + quad)


def log_gaussian_loop(
    X: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Reference per-state loop for :func:`log_gaussian` (pre-vectorization)."""
    n, d = X.shape
    k = len(means)
    out = np.empty((n, k))
    for j in range(k):
        var = variances[j]
        diff = X - means[j]
        out[:, j] = -0.5 * (
            d * np.log(2.0 * np.pi) + np.log(var).sum() + (diff * diff / var).sum(axis=1)
        )
    return out


# ---------------------------------------------------------------------------
# Forward/backward (Baum-Welch E-step)
# ---------------------------------------------------------------------------
def forward_scaled_loop(
    startprob: np.ndarray, transmat: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference scaled forward pass (pre-vectorization loop).

    Returns ``(alpha_hat, c)`` where every ``alpha_hat`` row sums to one
    and ``c[t]`` is the per-step normalizer.
    """
    n, k = b.shape
    alpha = np.empty((n, k))
    c = np.empty(n)
    a = transmat
    alpha[0] = startprob * b[0]
    c[0] = max(alpha[0].sum(), LOG_EPS)
    alpha[0] /= c[0]
    for t in range(1, n):
        alpha[t] = (alpha[t - 1] @ a) * b[t]
        c[t] = max(alpha[t].sum(), LOG_EPS)
        alpha[t] /= c[t]
    return alpha, c


def backward_scaled_loop(
    transmat: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Reference scaled backward pass; also the streamed HMM smoother."""
    n, k = b.shape
    beta = np.empty((n, k))
    beta[-1] = 1.0
    a = transmat
    for t in range(n - 2, -1, -1):
        beta[t] = (a @ (b[t + 1] * beta[t + 1])) / c[t + 1]
    return beta


def forward_filter_chunk(
    startprob: np.ndarray,
    transmat: np.ndarray,
    b: np.ndarray,
    alpha_prev: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward recursion over one chunk, resumable across chunks.

    ``alpha_prev`` is the last normalized forward row of the preceding
    chunk (``None`` at stream start).  Feeding a sequence through this
    kernel chunk by chunk — any chunking, including one sample at a time —
    produces **bitwise-identical** ``(alpha_hat, c)`` values to a single
    :func:`forward_scaled_loop` call over the whole sequence: every step
    performs the same ``(alpha @ a) * b[t]`` / ``sum`` / divide in the
    same order, and no cross-step reassociation is introduced.  (The
    Hillis-Steele scan in :func:`_estep_scan` deliberately is *not* used
    here: its reassociation varies with sequence length, which would make
    streamed values depend on the chunk size.)

    This is the filtering primitive of the streaming decoders: ``alpha_hat[t]``
    is the state posterior given observations up to ``t`` only.
    """
    n, k = b.shape
    alpha = np.empty((n, k))
    c = np.empty(n)
    a = transmat
    if alpha_prev is None:
        alpha[0] = startprob * b[0]
    else:
        alpha[0] = (alpha_prev @ a) * b[0]
    c[0] = max(alpha[0].sum(), LOG_EPS)
    alpha[0] /= c[0]
    for t in range(1, n):
        alpha[t] = (alpha[t - 1] @ a) * b[t]
        c[t] = max(alpha[t].sum(), LOG_EPS)
        alpha[t] /= c[t]
    TELEMETRY.count("stream.forward_chunk")
    return alpha, c


def estep_loop(
    startprob: np.ndarray,
    transmat: np.ndarray,
    b: np.ndarray,
    want_xi: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Reference E-step: sequential forward/backward + sufficient statistics.

    Returns ``(gamma, xi_sum, ll)``: per-sample state posteriors, summed
    transition pseudo-counts (``None`` unless ``want_xi``), and the
    log-likelihood of the (shift-scaled) observation sequence.
    """
    alpha, c = forward_scaled_loop(startprob, transmat, b)
    beta = backward_scaled_loop(transmat, b, c)
    ll = float(np.log(c).sum())
    gamma = alpha * beta
    gamma /= np.maximum(gamma.sum(axis=1, keepdims=True), LOG_EPS)
    xi_sum = None
    if want_xi and len(b) > 1:
        # xi[t, i, j] ∝ alpha[t, i] a[i, j] b[t+1, j] beta[t+1, j];
        # with scaled alpha/beta the normalizer per t is c[t+1]
        bb = b[1:] * beta[1:]
        xi_sum = (alpha[:-1] / c[1:, None]).T @ bb * transmat
    elif want_xi:
        xi_sum = np.zeros_like(transmat)
    return gamma, xi_sum, ll


def estep(
    startprob: np.ndarray,
    transmat: np.ndarray,
    b: np.ndarray,
    want_xi: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Forward/backward E-step over scaled emissions ``b``.

    Dispatches to the scan kernel when the workload is large enough to
    amortize the batched matmuls and small enough to hold the
    ``(n-1, k, k)`` window-product tensors; otherwise runs the exact
    reference loop.  See the module docstring for the equivalence
    contract between the two paths.
    """
    n, k = b.shape
    if n < SCAN_MIN_SAMPLES or (n - 1) * k * k > SCAN_MAX_ELEMENTS:
        TELEMETRY.count("hmm.estep_fallback")
        return estep_loop(startprob, transmat, b, want_xi=want_xi)
    TELEMETRY.count("hmm.estep_scan")
    return _estep_scan(startprob, transmat, b, want_xi=want_xi)


def _prefix_products(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products ``P[t] = M[0] @ ... @ M[t]`` by doubling.

    Returns ``(P, logs)`` where every ``P[t]`` is max-normalized and
    ``logs[t]`` accumulates the log of the factored-out scale, so the true
    product is ``P[t] * exp(logs[t])`` — the scan's answer to the
    underflow the sequential pass handled with per-step rescaling.
    """
    m = len(M)
    P = M.copy()
    logs = np.zeros(m)
    _renormalize(P, logs, 0, force=True)
    d = 1
    while d < m:
        prod = np.matmul(P[:-d], P[d:])
        logs[d:] = logs[:-d] + logs[d:]
        P[d:] = prod
        _renormalize(P, logs, d)
        d *= 2
    return P, logs


def _suffix_products(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive suffix products ``Q[t] = M[t] @ ... @ M[-1]`` by doubling."""
    m = len(M)
    Q = M.copy()
    logs = np.zeros(m)
    _renormalize(Q, logs, 0, force=True)
    d = 1
    while d < m:
        prod = np.matmul(Q[:-d], Q[d:])
        logs[:-d] = logs[:-d] + logs[d:]
        Q[:-d] = prod
        _renormalize(Q, logs, 0)
        d *= 2
    return Q, logs


#: Lazy-renormalization triggers: window products are rescaled to max 1
#: only once some matrix's largest entry leaves ``[_RENORM_THRESHOLD,
#: _RENORM_MAX]``.  Checking the maxima is much cheaper than
#: unconditionally dividing and logging every pass.  Both directions are
#: needed: emission-scaled step matrices are substochastic, so raw
#: products only shrink (underflow), but after a rescale the *largest*
#: matrix maxima square with every doubling pass (1 -> k -> k^3 -> ...)
#: and can overflow while the smallest still sits above the underflow
#: trigger.  With both guards a pass multiplies matrices whose maxima are
#: at most ``_RENORM_MAX``, so products stay below ``k * _RENORM_MAX**2``,
#: comfortably inside float64 range.
_RENORM_THRESHOLD = 1e-100
_RENORM_MAX = 1e100


def _renormalize(
    P: np.ndarray, logs: np.ndarray, start: int, force: bool = False
) -> None:
    """Scale matrices ``P[t]`` (t >= start) to max 1, folding into logs.

    Skipped (cheaply) while every matrix maximum is still comfortably
    inside the float64 safe band, unless ``force`` is set.
    """
    m = len(P)
    if start >= m:
        return
    flat = P[start:].reshape(m - start, -1)
    ncols = flat.shape[1]
    if ncols <= 16:
        # numpy's axis-reductions pay ~100x per-row overhead when the
        # reduced axis is tiny; folding whole columns through np.maximum
        # computes the identical row maxima in a handful of O(m) passes.
        norm = flat[:, 0].copy()
        for c in range(1, ncols):
            np.maximum(norm, flat[:, c], out=norm)
    else:
        norm = flat.max(axis=1)
    if (
        not force
        and norm.min() > _RENORM_THRESHOLD
        and norm.max() < _RENORM_MAX
    ):
        return
    norm = np.maximum(norm, _TINY)
    P[start:] /= norm[:, None, None]
    logs[start:] += np.log(norm)


def _estep_scan(
    startprob: np.ndarray,
    transmat: np.ndarray,
    b: np.ndarray,
    want_xi: bool,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Scan-based E-step: log-depth batched matmuls instead of a t-loop.

    The forward recurrence ``alpha[t] = alpha[t-1] @ (A * b[t])`` is an
    ordered product of per-step matrices ``M[t] = A * b[t+1]``; prefix and
    suffix products of the ``M`` sequence are computed with a
    Hillis-Steele doubling scan (O(log n) batched ``matmul`` passes), from
    which the scaled forward/backward variables, the posteriors, the
    summed transition statistics, and the log-likelihood all follow with
    no per-timestep Python work.
    """
    n, k = b.shape
    alpha0 = startprob * b[0]
    s0 = max(alpha0.sum(), LOG_EPS)
    a0 = alpha0 / s0
    if n == 1:
        gamma = a0[None, :].copy()
        xi = np.zeros_like(transmat) if want_xi else None
        return gamma, xi, float(np.log(s0))

    M = transmat[None, :, :] * b[1:, None, :]  # (n-1, k, k)
    P, plogs = _prefix_products(M)

    # forward: alpha_hat[t] = normalized a0 @ (M[1..t] product)
    alpha_rest = np.matmul(a0, P)  # (n-1, k)
    row = np.maximum(alpha_rest.sum(axis=1), LOG_EPS)
    alpha_hat = np.empty((n, k))
    alpha_hat[0] = a0
    alpha_hat[1:] = alpha_rest / row[:, None]
    ll = float(np.log(s0) + np.log(row[-1]) + plogs[-1])

    # backward: beta[t] ∝ (M[t+1..n-1] product) @ 1  (row sums of suffixes)
    Q, _ = _suffix_products(M)
    beta_hat = np.empty((n, k))
    beta_hat[-1] = 1.0
    beta_rows = Q.sum(axis=2)
    beta_hat[:-1] = beta_rows / np.maximum(
        beta_rows.max(axis=1, keepdims=True), _TINY
    )

    gamma = alpha_hat * beta_hat
    gamma /= np.maximum(gamma.sum(axis=1, keepdims=True), LOG_EPS)

    xi_sum = None
    if want_xi:
        # xi[t,i,j] ∝ alpha_hat[t,i] A[i,j] b[t+1,j] beta_hat[t+1,j]; each
        # t-slice is normalized explicitly (per-t scales are arbitrary), so
        # only the (k, k) total is ever materialized.
        bb = b[1:] * beta_hat[1:]
        z = np.einsum("ti,ij,tj->t", alpha_hat[:-1], transmat, bb)
        z = np.maximum(z, LOG_EPS)
        xi_sum = np.einsum("ti,tj->ij", alpha_hat[:-1] / z[:, None], bb) * transmat
    return gamma, xi_sum, ll


# ---------------------------------------------------------------------------
# Viterbi decoding
# ---------------------------------------------------------------------------
#: Joint spaces at or above this size use the bound-pruned forward sweep;
#: smaller models use the plain dense sweep (pruning bookkeeping would cost
#: more than the k*k arithmetic it saves).
VITERBI_PRUNE_MIN_STATES = 16


def viterbi(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Most likely state path; bitwise-identical to :func:`viterbi_loop`.

    For large state spaces (the FHMM joint space) three changes make this
    fast without changing a single comparison:

    * the forward sweep keeps only the per-step score vector ``delta[t]``,
      never the ``(n, k, k)`` score tensor or the backpointer table;
    * provably-losing rows are pruned before the dense ``k*k`` add — see
      :func:`_viterbi_deltas_pruned`; the pruning is exact, so the
      ``delta`` sequence is bitwise-unchanged;
    * backpointers are recomputed *along the surviving path only* during
      backtracking — ``argmax(delta[t] + log_a[:, s])`` over ``k`` values
      per step — which reproduces exactly the ``argmax`` the reference
      stored for every ``(t, j)``, including first-index tie-breaking.

    Small models fall through to the reference loop unchanged: their cost
    is per-call overhead, which none of the reformulations measured in
    ``docs/PERFORMANCE.md`` beat.
    """
    n, k = log_b.shape
    if k < VITERBI_PRUNE_MIN_STATES:
        # Small models are dominated by per-call overhead, not arithmetic;
        # measurements (docs/PERFORMANCE.md) show no numpy reformulation
        # beats the reference loop there, so it is used as-is.
        return viterbi_loop(log_pi, log_a, log_b)
    delta = _viterbi_deltas_pruned(log_pi, log_a, log_b)
    states = np.empty(n, dtype=int)
    s = int(delta[n - 1].argmax())
    states[n - 1] = s
    # recompute the argmax along the surviving path only — k values per
    # step instead of the reference's (n, k) backpointer table
    log_aT = np.ascontiguousarray(log_a.T)
    for t in range(n - 2, -1, -1):
        s = int(np.argmax(delta[t] + log_aT[s]))
        states[t] = s
    return states


def _viterbi_deltas_pruned(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> np.ndarray:
    """Per-step Viterbi scores with exact bound-based row pruning.

    ``delta_new[j] = max_i(delta[i] + log_a[i, j])`` rarely needs every
    row ``i``: with sticky transitions the score vector is sharply peaked,
    so almost all rows lose in *every* column.  Let ``i0 = argmax delta``
    and ``D[i] = max_j(log_a[i, j] - log_a[i0, j])`` (a per-``i0``
    constant, cached across steps).  If ``delta[i] + D[i] < delta[i0]``
    then for every column ``j``::

        delta[i] + log_a[i, j] < delta[i0] + log_a[i0, j] <= delta_new[j]

    i.e. row ``i`` is *strictly* below an attained candidate everywhere —
    it can affect neither the max value nor any tie — so the max over the
    surviving rows is bitwise-identical to the full sweep.  Only the
    survivors (typically a handful out of hundreds of joint states) pay
    the dense add; a fallback runs the full sweep when pruning keeps more
    than a third of the rows.
    """
    n, k = log_b.shape
    delta = np.empty((n, k))
    delta[0] = log_pi + log_b[0]
    bound_cache: dict[int, np.ndarray] = {}
    full = np.empty((k, k))
    for t in range(1, n):
        prev = delta[t - 1]
        i0 = int(prev.argmax())
        D = bound_cache.get(i0)
        if D is None:
            np.subtract(log_a, log_a[i0], out=full)
            D = full.max(axis=1)
            bound_cache[i0] = D
        rows = np.flatnonzero(prev + D >= prev[i0])
        if len(rows) * 3 > k:
            np.add(log_a, prev[:, None], out=full)
            np.max(full, axis=0, out=delta[t])
        else:
            sub = log_a[rows] + prev[rows, None]
            np.max(sub, axis=0, out=delta[t])
        delta[t] += log_b[t]
    return delta


def viterbi_loop(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> np.ndarray:
    """Reference Viterbi with a full backpointer table (pre-vectorization)."""
    n, k = log_b.shape
    delta = log_pi + log_b[0]
    backptr = np.zeros((n, k), dtype=int)
    for t in range(1, n):
        scores = delta[:, None] + log_a
        backptr[t] = scores.argmax(axis=0)
        delta = scores.max(axis=0) + log_b[t]
    states = np.empty(n, dtype=int)
    states[-1] = int(delta.argmax())
    for t in range(n - 2, -1, -1):
        states[t] = backptr[t + 1, states[t + 1]]
    return states


# ---------------------------------------------------------------------------
# Factorial-HMM joint parameter construction
# ---------------------------------------------------------------------------
def joint_chain_params(
    startprobs: list[np.ndarray],
    transmats: list[np.ndarray],
    means: list[np.ndarray],
    variances: list[np.ndarray],
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense joint parameters for independent chains, via Kronecker folds.

    Inputs are per-chain 1-D state parameters (single-feature chains) and
    row-stochastic transition matrices; the joint state order is
    ``itertools.product`` order (chain 0 slowest).  Bitwise-identical to
    :func:`joint_chain_params_loop`: each fold multiplies/adds the chain
    factors left-to-right, exactly as the per-combo loops did.

    Returns ``(startprob, transmat, joint_means, joint_variances)``.
    """
    joint_means = np.zeros(1)
    joint_vars = np.zeros(1)
    startprob = np.ones(1)
    transmat = np.ones((1, 1))
    for pi_c, a_c, mu_c, var_c in zip(startprobs, transmats, means, variances):
        joint_means = np.add.outer(joint_means, mu_c).ravel()
        joint_vars = np.add.outer(joint_vars, var_c).ravel()
        startprob = np.multiply.outer(startprob, pi_c).ravel()
        transmat = np.kron(transmat, a_c)
    joint_vars = noise_var + joint_vars
    startprob = startprob / startprob.sum()
    transmat = transmat / transmat.sum(axis=1, keepdims=True)
    return startprob, transmat, joint_means, joint_vars


def joint_chain_params_loop(
    startprobs: list[np.ndarray],
    transmats: list[np.ndarray],
    means: list[np.ndarray],
    variances: list[np.ndarray],
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference per-combo loops for :func:`joint_chain_params`."""
    import itertools

    joint = list(itertools.product(*[range(len(p)) for p in startprobs]))
    k = len(joint)
    out_means = np.empty(k)
    out_vars = np.empty(k)
    startprob = np.empty(k)
    for idx, combo in enumerate(joint):
        out_means[idx] = sum(float(m[s]) for m, s in zip(means, combo))
        out_vars[idx] = noise_var + sum(
            float(v[s]) for v, s in zip(variances, combo)
        )
        startprob[idx] = float(
            np.prod([p[s] for p, s in zip(startprobs, combo)])
        )
    startprob /= startprob.sum()
    transmat = np.ones((k, k))
    for i, combo_i in enumerate(joint):
        for j, combo_j in enumerate(joint):
            p = 1.0
            for a, si, sj in zip(transmats, combo_i, combo_j):
                p *= float(a[si, sj])
            transmat[i, j] = p
    transmat /= transmat.sum(axis=1, keepdims=True)
    return startprob, transmat, out_means, out_vars
