"""Discrete-time simulator for SLA-backed IPTV bandwidth reservation."""

__version__ = "0.1.0"
