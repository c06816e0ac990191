"""The repo benchmark: six named workloads measured from outside.

``BENCHMARK.json`` at the repo root is the contract; ``README.md`` here
says what every workload and metric is for.  Nothing in this package is
imported by ``src/repro``: layers are timed by shims installed around
their public callables (:mod:`.shims`) and removed afterwards.
"""
