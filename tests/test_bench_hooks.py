"""The bench tracer wraps package functions by module attribute; a
refactor that renames or drops one of them would silently leave a
per-layer metric at 0. Nothing here changes what the tracer does."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_hook_and_restores_them():
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
