"""Predicting the hospital level a patient will choose for an outpatient visit.

The package turns raw claims-style records into per-visit feature vectors
(continuity-of-care indices, provider votes, incident flags), trains small
feed-forward classifiers with an optional autoencoder representation,
scores them with one-vs-rest macro metrics, and explains predictions with
Shapley values. A synthetic cohort generator and a CLI tie the stages
together end to end.
"""

__version__ = "0.1.0"
