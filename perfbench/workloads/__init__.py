"""One module per workload; each exposes ``run(seed, seconds, trace, tiny)``."""

WORKLOADS = ("acc_drive", "odd_catalog", "lossy_link", "inproc_bus")
