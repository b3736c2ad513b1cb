"""Monitored-federation benchmark: four workloads, a wall-clock layer budget.

Run ``python -m bench --seed 7`` from the repository root; see
``bench/README.md`` for the workloads, the metric glossary and the rules
for changing this directory.
"""
