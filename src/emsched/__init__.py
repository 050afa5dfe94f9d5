"""Online energy scheduling with battery storage and deferrable loads.

Drift-plus-penalty control of a grid-connected microgrid: each slot the
controller schedules newly arrived flexible loads, sets battery charge and
discharge, and splits renewable supply, using only current prices and queue
backlogs. Companion oracles replay the same decisions against brute-force
grid searches and short-frame look-ahead optima to check the published
performance and feasibility guarantees.
"""
