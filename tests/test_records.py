"""The result records: immutable, keyword- and position-constructed, with a
Name(field=value, ...) repr and same-type equality, as they were when
they were dataclasses."""

import pytest

from pureres.bott import BottOutcome, DetScan, PushforwardProfile, det_bott_scan
from pureres.exactness import Certificate, SchurRealization
from pureres.resolutions import (
    BettiRow,
    BettiTable,
    DetSetup,
    DualityReport,
    ModuleProfile,
    betti_F,
)

SCOPE_NOTE = (
    "finite certificate: graded slices verified up to k_max; behaviour "
    "beyond is covered only by the Euler polynomial identity"
)

# (record, module, required fields in positional order, then the defaulted
# fields with their defaults)
RECORDS = [
    (DetSetup, "resolutions", ["s", "dim_f", "dim_g", "lambda_det"], {}),
    (
        BettiRow,
        "resolutions",
        ["i", "twist", "weight", "rank"],
        {"weight2": None, "vanishing": False},
    ),
    (BettiTable, "resolutions", ["kind", "d", "rows"], {"params": {}, "truncated_at": None}),
    (
        ModuleProfile,
        "resolutions",
        ["d", "hf", "top_degree", "socle_weight", "socle_dim"],
        {},
    ),
    (
        DualityReport,
        "resolutions",
        ["d", "is_symmetric"],
        {"ranks_palindromic": None, "complements_match": None, "rectangle": None, "witnesses": ()},
    ),
    (BottOutcome, "bott", ["vanishes", "trace"], {"h_degree": None, "weight": None}),
    (PushforwardProfile, "bott", ["kind", "w0"], {"w1": None}),
    (DetScan, "bott", ["d", "dim_f", "dim_g", "outcomes", "assignments"], {}),
    (
        SchurRealization,
        "exactness",
        ["lam", "m", "symmetrizer", "pivots", "solve", "denom", "at_pivots"],
        {},
    ),
    (
        Certificate,
        "exactness",
        [
            "d", "m", "k_range", "dsquared_ok", "slices_exact", "minimality_ok",
            "euler_identity_ok", "hf_match_ok",
        ],
        {"alinearity_ok": True, "equivariance_ok": True, "failures": [], "scope_note": SCOPE_NOTE},
    ),
]
IDS = [rec.__name__ for rec, _, _, _ in RECORDS]


def sample(required):
    """A distinct value per required field."""
    return {f: (j, f) for j, f in enumerate(required)}


@pytest.mark.parametrize("rec, module, required, defaults", RECORDS, ids=IDS)
class TestRecordContract:
    def test_name_and_module(self, rec, module, required, defaults):
        assert rec.__module__ == f"pureres.{module}"
        assert rec.__qualname__ == rec.__name__

    def test_keyword_construction_and_defaults(self, rec, module, required, defaults):
        kw = sample(required)
        r = rec(**kw)
        for f, v in {**kw, **defaults}.items():
            assert getattr(r, f) == v, f
        with pytest.raises(TypeError):
            rec(**{f: v for f, v in kw.items() if f != required[-1]})

    def test_positional_order(self, rec, module, required, defaults):
        kw = sample(required)
        full = {**kw, **{f: ("other", f) for f in defaults}}
        assert rec(*full.values()) == rec(**full)
        assert rec(*kw.values()) == rec(**kw)

    def test_repr(self, rec, module, required, defaults):
        kw = sample(required)
        fields = ", ".join(f"{f}={v!r}" for f, v in {**kw, **defaults}.items())
        assert repr(rec(**kw)) == f"{rec.__name__}({fields})"

    def test_immutable(self, rec, module, required, defaults):
        r = rec(**sample(required))
        for f in [*required, *defaults]:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
        with pytest.raises(AttributeError):
            r.extra = None

    def test_same_type_equality(self, rec, module, required, defaults):
        kw = sample(required)
        assert rec(**kw) == rec(**kw)
        assert not rec(**kw) != rec(**kw)
        assert rec(**kw) != rec(**{**kw, required[0]: "changed"})


def test_repr_goldens():
    assert repr(betti_F((0, 1, 3))) == (
        "BettiTable(kind='F', d=(0, 1, 3), rows=("
        "BettiRow(i=0, twist=0, weight=(1,), rank=2, weight2=None, vanishing=False), "
        "BettiRow(i=1, twist=1, weight=(2,), rank=3, weight2=None, vanishing=False), "
        "BettiRow(i=2, twist=3, weight=(2, 2), rank=1, weight2=None, vanishing=False)), "
        "params={'m': 2}, truncated_at=None)"
    )
    assert repr(det_bott_scan((0, 1, 3))) == (
        "DetScan(d=(0, 1, 3), dim_f=2, dim_g=3, outcomes=("
        "(0, BottOutcome(vanishes=False, trace=(2, 0), h_degree=0, weight=(1, 0))), "
        "(1, BottOutcome(vanishes=False, trace=(2, 1), h_degree=0, weight=(1, 1))), "
        "(2, BottOutcome(vanishes=True, trace=(2, 2), h_degree=None, weight=None)), "
        "(3, BottOutcome(vanishes=False, trace=(2, 3), h_degree=1, weight=(2, 2)))), "
        "assignments={0: (0, 0, (1, 0)), 1: (1, 0, (1, 1)), 2: (3, 1, (2, 2))})"
    )


def test_betti_table_equality_and_hash_ignore_params():
    rows = (BettiRow(i=0, twist=0, weight=(), rank=1),)
    a = BettiTable(kind="F", d=(0, 1), rows=rows, params={"m": 1})
    b = BettiTable(kind="F", d=(0, 1), rows=rows, params={"other": 2})
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != BettiTable(kind="F", d=(0, 1), rows=rows, truncated_at=1)
    assert betti_F((0, 3, 4, 7)) == betti_F((0, 3, 4, 7))
    assert len({betti_F((0, 3, 4, 7)), betti_F((0, 3, 4, 7))}) == 1


def test_default_containers_are_fresh():
    a = BettiTable(kind="F", d=(0, 1), rows=())
    b = BettiTable(kind="F", d=(0, 1), rows=())
    assert a.params == {} and a.params is not b.params
    args = ((0, 1), 1, (0, 3), True, {}, True, True, True)
    c, e = Certificate(*args), Certificate(*args)
    assert c.failures == [] and c.failures is not e.failures
    c.failures.append("x")
    assert e.failures == []
