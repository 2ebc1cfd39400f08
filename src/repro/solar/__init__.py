"""Solar substrate and location-privacy attacks.

Forward direction: astronomically correct PV generation under a coherent
synthetic weather field.  Inverse direction: the SunSpot (solar signature)
and Weatherman (weather signature) localization attacks of Fig. 5 and the
SunDance net-meter disaggregation of Sec. II-B.
"""

from .disaggregation import DisaggregationEstimate, SunDance
from .generation import PVArrayConfig, SolarSite, fig5_sites, simulate_generation
from .geo import EARTH_RADIUS_KM, LatLon, haversine_km
from .irradiance import (
    clearsky_ghi_w_m2,
    day_of_year,
    declination_rad,
    equation_of_time_minutes,
    solar_time_hours,
    sun_position,
)
from .sunspot import (
    DayObservation,
    LocalizationResult,
    SunSpot,
    extract_day_observations,
)
from .weather import (
    Octave,
    WeatherField,
    WeatherStation,
    WeatherStationDB,
)
from .weatherman import CloudProxy, Weatherman, cloud_proxy_from_generation

__all__ = [
    "DisaggregationEstimate",
    "SunDance",
    "PVArrayConfig",
    "SolarSite",
    "fig5_sites",
    "simulate_generation",
    "EARTH_RADIUS_KM",
    "LatLon",
    "haversine_km",
    "clearsky_ghi_w_m2",
    "day_of_year",
    "declination_rad",
    "equation_of_time_minutes",
    "solar_time_hours",
    "sun_position",
    "DayObservation",
    "LocalizationResult",
    "SunSpot",
    "extract_day_observations",
    "Octave",
    "WeatherField",
    "WeatherStation",
    "WeatherStationDB",
    "CloudProxy",
    "Weatherman",
    "cloud_proxy_from_generation",
]
