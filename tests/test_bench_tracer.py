"""The benchmark's tracer (bench/spans.py) wraps functions of the program by
name.  Installing it must find every one of them, and uninstalling it must
put each original back, so that a renamed or deleted function fails here
instead of breaking `bench/run.py --trace 1`."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert {(owner, attr) for owner, attr, _ in spans.SPANS} <= {
        (owner, attr) for owner, attr, _ in patched}
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
