"""From-scratch machine-learning substrate.

The offline environment has no scikit-learn, so the classifiers and sequence
models the paper's attacks depend on are implemented here: Gaussian HMMs
(NIOM, appliance chains), a factorial HMM (the conventional NILM baseline of
Fig. 2), k-means (feature clustering), CART trees and the random forest
built from them (the Sec. IV device fingerprinter), and logistic regression
(the adaptive occupancy attacker).
"""

from .fhmm import FactorialHMM, fit_appliance_chain
from .forest import RandomForestClassifier
from .hmm import GaussianHMM
from .kmeans import KMeans
from .logistic import LogisticRegression
from .metrics import (
    BinaryCounts,
    accuracy,
    binary_counts,
    f1_score,
    macro_f1,
    mcc,
    precision,
    recall,
)
from .preprocessing import StandardScaler, check_features, check_xy
from .tree import DecisionTreeClassifier

__all__ = [
    "FactorialHMM",
    "fit_appliance_chain",
    "RandomForestClassifier",
    "GaussianHMM",
    "KMeans",
    "LogisticRegression",
    "BinaryCounts",
    "accuracy",
    "binary_counts",
    "f1_score",
    "macro_f1",
    "mcc",
    "precision",
    "recall",
    "StandardScaler",
    "check_features",
    "check_xy",
    "DecisionTreeClassifier",
]
