"""Directed fuzzing scheduler with multi-distance metrics and a campaign simulator."""
