"""Reference implementations the differential tests compare against.

Slow, straightforward twins of product paths in ``src/repro`` (the
per-VPC executor, lowering, per-row placer, per-round schedule
composition, predictor build, per-point predictor and verifier walk) plus the
cycle-by-cycle pipeline and RM-bus simulators.  Nothing under ``src/`` imports them.
"""
