"""The end-to-end ledger's wrap points exist.

``benchmarks.e2e.ledger`` times each layer by wrapping named entry
points (the analytics compiler's ``replay``/``observe``, the kernels
imported into ``repro.service.engine``, the engine, runtime and planner
verbs).  Moving or renaming one breaks ``--trace`` runs; this test makes
it break the unit suite too.
"""

from benchmarks.e2e.ledger import LAYERS, Ledger


def test_ledger_installs_and_uninstalls_every_wrap_point():
    ledger = Ledger()
    try:
        ledger.install()
        patches = list(ledger._patches)
    finally:
        ledger.uninstall()
    expected = sum(
        len(names) for targets in LAYERS.values() for _m, _c, names in targets
    )
    assert len(patches) == expected == 54
    assert not ledger._patches
    for owner, name, original in patches:
        assert vars(owner)[name] is original
