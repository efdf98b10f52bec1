"""Benchmark of the ``memchannel`` command-line entry point.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one seeded workload through ``memchannel.cli.parse_config`` and
``memchannel.cli.run`` and prints one JSON result as its last line.  See
``WORKLOADS.md`` for why each workload exists.
"""
