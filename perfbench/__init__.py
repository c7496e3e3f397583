"""The repository benchmark: workloads, cold-process runner and layer trace."""
