"""Reference implementations the fast paths in ``repro`` are tested against.

Each module keeps the plain composition a fast path replaced, plus an
``install(monkeypatch)`` that swaps it into every model built while the
patch is active.
"""
