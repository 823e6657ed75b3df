"""End-to-end benchmark of the SmartML service (see ``perfbench/README.md``)."""
