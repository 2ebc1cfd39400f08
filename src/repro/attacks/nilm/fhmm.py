"""Conventional FHMM-based NILM: the Fig. 2 baseline.

Follows the REDD methodology of Kolter & Johnson (ref. [19]): each tracked
appliance is modeled as a hidden Markov chain over power levels, *learned
from training data* (sub-metered traces of each appliance, e.g. an
instrumented training week), and disaggregation runs exact Viterbi over the
factorial combination of the chains on the metered aggregate.

The contrast with PowerPlay is the paper's point: the FHMM must (i) learn
its models from data rather than starting from known load physics, and
(ii) explain the *whole* aggregate, so unmodeled background activity
(lighting, microwave, TV) and meter noise corrupt its state estimates —
especially for small loads whose power is within the noise of bigger ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...ml import FactorialHMM, GaussianHMM, fit_appliance_chain
from ...timeseries import PowerTrace
from .common import DisaggregationResult


#: States of an appliance chain ``states_per_appliance`` does not name.
_DEFAULT_STATES = 2
#: Meter plus unmodeled-load variance of the factorial model (W^2).
_NOISE_VAR = 2500.0


@dataclass(frozen=True)
class FHMMConfig:
    """Training knobs for the FHMM baseline: power levels per appliance
    chain (two, on and off, for an appliance not listed)."""

    states_per_appliance: dict[str, int] | None = None

    def n_states(self, name: str) -> int:
        if self.states_per_appliance and name in self.states_per_appliance:
            return self.states_per_appliance[name]
        return _DEFAULT_STATES


class FHMMDisaggregator:
    """Train on sub-metered appliance traces, decode aggregates."""

    def __init__(self, config: FHMMConfig | None = None, rng=None) -> None:
        self.config = config or FHMMConfig()
        self._rng = np.random.default_rng(rng)
        self.chains_: dict[str, GaussianHMM] = {}
        self._fhmm: FactorialHMM | None = None

    def fit(self, training_traces: dict[str, PowerTrace]) -> "FHMMDisaggregator":
        """Learn one chain per appliance from its training trace."""
        if not training_traces:
            raise ValueError("need at least one appliance to train on")
        self.chains_ = {}
        for name, trace in training_traces.items():
            self.chains_[name] = fit_appliance_chain(
                trace.values,
                n_states=self.config.n_states(name),
                rng=self._rng.integers(2**31),
            )
        self._fhmm = FactorialHMM(list(self.chains_.values()), noise_var=_NOISE_VAR)
        return self

    def disaggregate(self, metered: PowerTrace) -> DisaggregationResult:
        """Viterbi-decode the aggregate into per-appliance power."""
        if self._fhmm is None:
            raise RuntimeError("FHMMDisaggregator is not fitted")
        powers = self._fhmm.disaggregate(metered.values.reshape(-1, 1))
        estimates = {
            name: PowerTrace(powers[:, j], metered.period_s, metered.start_s, "W")
            for j, name in enumerate(self.chains_)
        }
        return DisaggregationResult(estimates)
