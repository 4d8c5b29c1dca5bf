"""The benchmark's layer spans find every name they wrap, and put it back."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_install_wraps_every_site_and_uninstall_restores_it():
    sites = [(owner, attr) for _, owner_attrs, _ in spans.SPANS for owner, attr in owner_attrs]
    before = [owner.__dict__[attr] for owner, attr in sites]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(sites, before))
