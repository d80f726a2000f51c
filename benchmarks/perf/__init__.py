"""Executor parity and fast-over-reference ratio floors
(``test_executor_floors.py``); absolute numbers come from ``darmbench/``.
"""
