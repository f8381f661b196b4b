"""Placeholders with nothing behind them (see ``flowcache.py``)."""
