"""repro — Private Memoirs of IoT Devices (ICDCS 2018), reproduced.

A complete implementation of the attacks, defenses, and substrates from
Chen, Bovornkeeratiroj, Irwin & Shenoy, "Private Memoirs of IoT Devices:
Safeguarding User Privacy in the IoT Era":

- :mod:`repro.home` — smart-home energy simulation (appliances, occupants,
  smart meters);
- :mod:`repro.solar` — PV generation, weather, and the SunSpot/Weatherman
  localization and SunDance disaggregation attacks;
- :mod:`repro.attacks` — NIOM occupancy detection, NILM (PowerPlay and
  FHMM), and behavioral profiling;
- :mod:`repro.defenses` — CHPr, battery load-hiding, differential privacy,
  ZKP billing, local services, and obfuscation baselines;
- :mod:`repro.netpriv` — IoT LAN traffic, device fingerprinting,
  compromised-device threats, and the smart gateway;
- :mod:`repro.core` — the evaluation pipeline and the user-controllable
  privacy knob;
- :mod:`repro.fleet` — parallel multi-home fleet simulation with result
  caching and population-level attack/defense reports;
- :mod:`repro.claims` — declarative privacy claims evaluated against
  sweep/netpriv/stream artifacts into certification reports;
- :mod:`repro.ml` / :mod:`repro.timeseries` — the from-scratch ML and
  time-series substrates everything rests on;
- :mod:`repro.datasets` — seeded datasets for every figure.

Quickstart::

    from repro.core import run_pipeline
    result = run_pipeline(rng=0)
    print(result.baseline.privacy.worst_case_mcc)
    for name, point in result.defenses.items():
        print(name, point.summary())
"""

__version__ = "1.0.0"

from . import attacks, claims, core, datasets, defenses, fleet, home, ml, netpriv, solar, timeseries

__all__ = [
    "attacks",
    "claims",
    "core",
    "datasets",
    "defenses",
    "fleet",
    "home",
    "ml",
    "netpriv",
    "solar",
    "timeseries",
    "__version__",
]
