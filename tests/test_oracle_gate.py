"""False claims fed to the ``--verify-sod`` rows: which rows see them.

Each claim is a deliberately wrong ``Decomposition`` (built with
``dataclasses.replace``) or a ``sod`` verdict patched on the module, which
``models`` calls through.  The table lists, per claim, the rows that FAIL on
each of the catalog extractions; the honest claim fails none.  A row that
never fails on a false claim checks nothing (mutation adequacy: DeMillo,
Lipton and Sayward 1978, "Hints on test data selection").

Known gaps, cells that should fail and do not yet, each with the ROADMAP
item that closes it:

- A koszul node's label shifted by +e_0 fails no row: koszul-replay reads
  only ``node.label``, and the Koszul identity holds at any label (item 12).
- ``transfer_is_invertible`` negated passes transfer-dichotomy on
  a1-half-line: the lattice test is compared with the oracle on point
  fibers only (items 8 and 4).  ``GAPS`` below holds this cell.
- On an honest decomposition every semiorthogonality entry's transfer is
  ``None`` on these models, so semiorthogonality-oracle computes no
  cohomology for them (item 8).  Setting ``transferred = None`` in that
  row's entry loop is caught only by the "span +e0 added" cells, whose
  false entries are the only ones that reach the cohomology branch.
"""

from dataclasses import replace

import pytest

from torsod import models, sod

MODELS = ("a1-half", "a2-third", "a1-half-line")
FF, SO, TD, CI = ("fully-faithful-oracle", "semiorthogonality-oracle",
                  "transfer-dichotomy", "count-identity")


def _add_shifted_span(sign):
    def claim(dec):
        first = dec.spans[0]
        label = (first.label[0] + sign,) + first.label[1:]
        return replace(dec, spans=dec.spans + (replace(first, label=label),))
    return claim


def _always_certified(monkeypatch):
    monkeypatch.setattr(sod, "fiber_transfer_vanishes", lambda ctx, k: True)


def _negated_lattice_verdict(monkeypatch):
    verdict = sod.transfer_is_invertible
    monkeypatch.setattr(sod, "transfer_is_invertible",
                        lambda ctx, k: not verdict(ctx, k))


# claim -> (decomposition tamper, sod patch, rows that fail)
TABLE = {
    "honest": (None, None, set()),
    "span +e0 added": (_add_shifted_span(1), None, {FF, SO, CI}),
    "span -e0 added": (_add_shifted_span(-1), None, {CI}),
    "block duplicated": (
        lambda dec: replace(dec, blocks=dec.blocks + dec.blocks[:1]),
        None, {CI}),
    "block dropped": (lambda dec: replace(dec, blocks=dec.blocks[1:]),
                      None, {CI}),
    "span dropped": (lambda dec: replace(dec, spans=dec.spans[1:]),
                     None, {CI}),
    "fiber_transfer_vanishes always True": (None, _always_certified, {TD}),
    "transfer_is_invertible negated": (None, _negated_lattice_verdict, {TD}),
}

# (claim, model) -> rows in TABLE that do not fail yet; see the docstring.
GAPS = {("transfer_is_invertible negated", "a1-half-line"): {TD}}


@pytest.fixture(scope="module")
def models_under_test():
    out = {}
    for name in MODELS:
        pair = models.canned_example(name)
        out[name] = (pair, sod.decompose(pair.datum), models.fiber_model(pair))
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("claim", sorted(TABLE))
def test_false_claim_fails_its_rows(claim, model, models_under_test,
                                    monkeypatch):
    tamper, patch, rows = TABLE[claim]
    pair, dec, fiber = models_under_test[model]
    if tamper is not None:
        dec = tamper(dec)
    if patch is not None:
        patch(monkeypatch)
    checks = (
        models.fully_faithful_oracle_check(pair, dec),
        models.semiorthogonality_oracle_check(pair, dec, fiber),
        models.transfer_dichotomy_check(pair, dec, 2, fiber),
        models.count_identity_check(dec),
    )
    assert [c.name for c in checks] == [FF, SO, TD, CI]
    failed = {c.name for c in checks if not c.ok}
    assert failed == rows - GAPS.get((claim, model), set())
