"""Seeded synthetic datasets and trace I/O."""

from .builders import (
    fig1_dataset,
    fig2_dataset,
    fig5_dataset,
    fig6_dataset,
    population_dataset,
)
from .io import dump_json, load_trace_csv, save_rows_csv, save_trace_csv

__all__ = [
    "fig1_dataset",
    "fig2_dataset",
    "fig5_dataset",
    "fig6_dataset",
    "population_dataset",
    "dump_json",
    "load_trace_csv",
    "save_rows_csv",
    "save_trace_csv",
]
