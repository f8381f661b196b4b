"""The two-clock LinuxFP benchmark (see bench/README.md)."""
