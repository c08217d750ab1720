"""The repo's wall-clock benchmark (see README.md in this directory).

Four workloads, a small set of end-to-end metrics every workload
reports, and a per-layer trace taken from outside the program: nothing
under ``src/`` knows this package exists.
"""
