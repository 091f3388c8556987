import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arkslice.errors import (
    BadNaan,
    DuplicateName,
    InvalidRange,
    InvariantViolation,
    MalformedPid,
)
from arkslice.pid_grammar import (
    PidQuery,
    RangeSelector,
    RangeTerm,
    effective_key_set,
    parse_pid,
    serialize_pid,
    split_ark,
)


class TestParse:
    def test_single_range(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@13332~13400")
        assert q == PidQuery(
            naan="57460",
            dataset="AMPds",
            sensors=("DWE",),
            measurements=("V",),
            selector=RangeSelector.of(RangeTerm(13332, 13400)),
        )

    def test_wildcard(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@*")
        assert q.selector.wildcard
        assert q.selector.terms == ()

    def test_multi_sensor_multi_measurement(self):
        q = parse_pid("ark:/57460/AMPds.HPE+DWE+WOE.V+I@*")
        assert q.sensors == ("HPE", "DWE", "WOE")
        assert q.measurements == ("V", "I")

    def test_multiple_ranges(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@13332~13400+24300~25500")
        assert q.selector.terms == (
            RangeTerm(13332, 13400),
            RangeTerm(24300, 25500),
        )

    def test_exclusion(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@_24300~25500")
        assert q.selector.terms == (RangeTerm(24300, 25500, exclude=True),)

    def test_single_timestamp_shorthand(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@42")
        assert q.selector.terms == (RangeTerm(42, 42),)
        # Canonical form expands the shorthand.
        assert serialize_pid(q).endswith("@42~42")

    def test_reversed_bounds(self):
        with pytest.raises(InvalidRange):
            parse_pid("ark:/57460/AMPds.DWE.V@13400~13332")

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidRange):
            parse_pid("ark:/57460/AMPds.DWE.V@-5~10")

    def test_non_integer_bound(self):
        with pytest.raises(InvalidRange):
            parse_pid("ark:/57460/AMPds.DWE.V@a~10")

    def test_bad_naan(self):
        with pytest.raises(BadNaan):
            parse_pid("ark:/57a60/AMPds.DWE.V@*")

    def test_duplicate_sensor(self):
        with pytest.raises(DuplicateName):
            parse_pid("ark:/57460/AMPds.DWE+DWE.V@*")

    def test_duplicate_measurement(self):
        with pytest.raises(DuplicateName):
            parse_pid("ark:/57460/AMPds.DWE.V+V@*")

    @pytest.mark.parametrize("bad", [
        "",
        "ark:57460/AMPds.DWE.V@*",
        "ark:/57460/AMPds.DWE.V",
        "ark:/57460/AMPds.DWE@*",
        "ark:/57460/AMPds.DWE.V@",
        "ark:/57460/AMPds.DWE.V.extra@*",
        "ark:/57460/AMPds..V@*",
        "ark:/57460/AMP~ds.DWE.V@*",
        "ark:/57460",
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedPid):
            parse_pid(bad)

    @pytest.mark.parametrize("pid, error", [
        pytest.param("ark:/57460/AMPds.DWE.V@13332\n", InvalidRange, id="point"),
        pytest.param("ark:/57460/AMPds.DWE.V@1~2\n", InvalidRange, id="range-end"),
        pytest.param("ark:/57460/AMPds.DWE\n.V@*", MalformedPid, id="sensor"),
        pytest.param("ark:/57460/AMPds\n.DWE.V@*", MalformedPid, id="dataset"),
        pytest.param("ark:/57460/AMPds.DWE.V\n@*", MalformedPid, id="measurement"),
        pytest.param("ark:/57460\n/AMPds.DWE.V@*", BadNaan, id="naan"),
    ])
    def test_trailing_newline_is_refused(self, pid, error):
        # A token is its whole string: a final newline would give one
        # slice a second PID.
        with pytest.raises(error):
            parse_pid(pid)

    @pytest.mark.parametrize("bad", ["", "57460/0000", "ark:/57460", "ark:/57460/"])
    def test_split_ark(self, bad):
        # Only the shape is checked: the NAAN and body come back verbatim.
        assert split_ark("ark:/5x/0000/a/b") == ("5x", "0000/a/b")
        with pytest.raises(MalformedPid):
            split_ark(bad)


class TestSerialize:
    def test_round_trip_example(self):
        text = "ark:/57460/AMPds.DWE.V@13332~13400"
        assert serialize_pid(parse_pid(text)) == text

    def test_wildcard_suffix(self):
        q = parse_pid("ark:/57460/AMPds.DWE.V@*")
        assert serialize_pid(q).endswith("@*")

    def test_two_terms(self):
        q = PidQuery(
            naan="57460", dataset="AMPds", sensors=("DWE",),
            measurements=("V",),
            selector=RangeSelector.of(
                RangeTerm(13332, 13400), RangeTerm(24300, 25500)
            ),
        )
        assert serialize_pid(q) == "ark:/57460/AMPds.DWE.V@13332~13400+24300~25500"

    def test_invariant_violation(self):
        q = PidQuery(naan="57460", dataset="AMPds", sensors=(),
                     measurements=("V",))
        with pytest.raises(InvariantViolation):
            serialize_pid(q)

    def test_reversed_term_rejected(self):
        q = PidQuery(
            naan="57460", dataset="AMPds", sensors=("DWE",),
            measurements=("V",),
            selector=RangeSelector.of(RangeTerm(10, 5)),
        )
        with pytest.raises(InvariantViolation):
            serialize_pid(q)

    GOOD = dict(naan="57460", dataset="AMPds", sensors=("DWE",),
                measurements=("V",), selector=RangeSelector.of(RangeTerm(1, 2)))

    @pytest.mark.parametrize("change", [
        {"naan": "57x60"},
        {"naan": ""},
        {"dataset": "AM.Pds"},
        {"sensors": ("DWE", "H@E")},
        {"measurements": ("V I",)},
        {"sensors": ()},
        {"sensors": ("DWE", "DWE")},
        {"measurements": ("V", "I", "V")},
        {"selector": RangeSelector(terms=(RangeTerm(1, 2),), wildcard=True)},
        {"selector": RangeSelector()},
        {"selector": RangeSelector.of(RangeTerm(1, 2), RangeTerm(9, 3))},
        {"selector": RangeSelector.of(RangeTerm(-5, 3))},
    ], ids=["non-digit-naan", "empty-naan", "bad-dataset", "bad-sensor",
            "bad-measurement", "no-sensors", "duplicate-sensor",
            "duplicate-measurement", "wildcard-with-terms",
            "no-terms", "reversed-term", "negative-start"])
    def test_query_the_grammar_cannot_express_is_refused(self, change):
        q = PidQuery(**{**self.GOOD, **change})
        with pytest.raises(InvariantViolation):
            serialize_pid(q)

    @pytest.mark.parametrize("change, reason", [
        ({"sensors": ("DWE", "DWE")}, "repeated sensor"),
        ({"selector": RangeSelector.of(RangeTerm(9, 3))}, "reversed bounds 9~3"),
        ({"selector": RangeSelector(terms=(RangeTerm(1, 2),), wildcard=True)},
         "parses to another query"),
    ])
    def test_refusal_names_the_reason(self, change, reason):
        with pytest.raises(InvariantViolation, match=reason):
            serialize_pid(PidQuery(**{**self.GOOD, **change}))


class TestEffectiveKeySet:
    DOMAIN = list(range(1, 11))

    def test_wildcard_identity(self):
        assert effective_key_set(RangeSelector.all_rows(), self.DOMAIN) == self.DOMAIN

    def test_inclusive(self):
        sel = RangeSelector.of(RangeTerm(3, 5))
        assert effective_key_set(sel, self.DOMAIN) == [3, 4, 5]

    def test_exclusive(self):
        sel = RangeSelector.of(RangeTerm(3, 5, exclude=True))
        assert effective_key_set(sel, self.DOMAIN) == [1, 2, 6, 7, 8, 9, 10]

    def test_mixed(self):
        sel = RangeSelector.of(RangeTerm(1, 10), RangeTerm(3, 5, exclude=True))
        assert effective_key_set(sel, self.DOMAIN) == [1, 2, 6, 7, 8, 9, 10]

    def test_empty_result(self):
        sel = RangeSelector.of(RangeTerm(100, 200))
        assert effective_key_set(sel, self.DOMAIN) == []


# --- randomized properties ---

names = st.text(
    alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8
)
naans = st.text(alphabet=string.digits, min_size=1, max_size=6)


@st.composite
def selectors(draw):
    if draw(st.booleans()):
        return RangeSelector.all_rows()
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 10**6))
        b = draw(st.integers(0, 10**6))
        terms.append(RangeTerm(min(a, b), max(a, b), draw(st.booleans())))
    return RangeSelector(terms=tuple(terms))


@st.composite
def queries(draw):
    sensors = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    measurements = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return PidQuery(
        naan=draw(naans),
        dataset=draw(names),
        sensors=tuple(sensors),
        measurements=tuple(measurements),
        selector=draw(selectors()),
    )


domains = st.lists(
    st.integers(0, 500), min_size=0, max_size=80, unique=True
).map(sorted)


@given(queries())
def test_round_trip_property(q):
    assert parse_pid(serialize_pid(q)) == q


@given(domains, st.integers(0, 500), st.integers(0, 500))
def test_exclusion_complement(domain, a, b):
    lo, hi = min(a, b), max(a, b)
    incl = effective_key_set(RangeSelector.of(RangeTerm(lo, hi)), domain)
    excl = effective_key_set(RangeSelector.of(RangeTerm(lo, hi, True)), domain)
    assert sorted(incl + excl) == domain
    assert not set(incl) & set(excl)


@given(domains)
def test_wildcard_identity_property(domain):
    assert effective_key_set(RangeSelector.all_rows(), domain) == domain


@given(selectors(), domains, st.randoms())
@settings(max_examples=200)
def test_term_order_insensitive(sel, domain, rnd):
    if sel.wildcard:
        return
    shuffled = list(sel.terms)
    rnd.shuffle(shuffled)
    permuted = RangeSelector(terms=tuple(shuffled))
    assert effective_key_set(sel, domain) == effective_key_set(permuted, domain)


@given(selectors(), domains)
def test_monotone_subset(sel, domain):
    out = effective_key_set(sel, domain)
    assert out == sorted(set(out))
    assert set(out) <= set(domain)
