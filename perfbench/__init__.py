"""The repo benchmark (see README.md): workloads, layer tracer, CLI."""
