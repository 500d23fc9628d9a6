"""Empty: a run does all its work in its own thread, with no map.

The module stays only because the benchmark's tracer
(``perfbench/spans.py``, ``install``) imports it; nothing in the package
does.
"""
