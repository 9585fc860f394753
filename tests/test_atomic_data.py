"""Line-table loading, crossover derivation, and feature arithmetic."""

import itertools

import pytest
from hypothesis import given, settings, strategies

from saslock.atomic_data import (
    Isotope,
    LineTable,
    TransitionLine,
    derive_crossovers,
    find_feature,
    load_line_data,
    parse_line_data,
    pump_repump_separation,
    serialize_line_data,
    transitions,
)
from saslock.errors import LineDataError, UnknownFeatureError


def make_line(detuning, strength=1.0, isotope="Rb87", f_ground=2, label="F'=1"):
    return TransitionLine(
        isotope=isotope,
        f_ground=f_ground,
        f_excited_label=label,
        detuning=detuning,
        strength=strength,
        gamma_natural=6.0666e6,
    )


MINI_FILE = """\
format=rb-lines/1
carrier_hz=3.84e14
source=test fixture
Rb87, {ab87}, 1.443160648e-25, 2, F'=1, -4.0e8, 0.1, 6.0e6
Rb87, {ab87}, 1.443160648e-25, 2, F'=2, -2.5e8, 0.2, 6.0e6
Rb87, {ab87}, 1.443160648e-25, 2, F'=3, 0.0, 0.7, 6.0e6
Rb85, {ab85}, 1.409993199e-25, 3, F'=4, 1.1e9, 0.5, 6.0e6
Rb85, {ab85}, 1.409993199e-25, 2, F'=2, 4.0e9, 0.3, 6.0e6
Rb87, {ab87}, 1.443160648e-25, 1, F'=1, 6.4e9, 0.2, 6.0e6
"""


class TestLoading:
    def test_bundled_abundances(self, table):
        assert table.isotope("Rb85").abundance == pytest.approx(0.72)
        assert table.isotope("Rb87").abundance == pytest.approx(0.28)

    def test_bundled_has_four_manifolds(self, table):
        assert set(table.manifolds()) == {
            ("Rb87", 2), ("Rb87", 1), ("Rb85", 3), ("Rb85", 2),
        }

    def test_abundance_sum_violation(self):
        text = MINI_FILE.format(ab87=0.5, ab85=0.6)
        with pytest.raises(LineDataError, match="sum"):
            parse_line_data(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LineDataError, match="not found"):
            load_line_data(tmp_path / "nope.txt")

    def test_unknown_format_version(self):
        with pytest.raises(LineDataError, match="unsupported format"):
            parse_line_data("format=rb-lines/999\n")

    def test_parse_error_carries_line_number(self):
        text = MINI_FILE.format(ab87=0.28, ab85=0.72) + "Rb87, not-a-number\n"
        with pytest.raises(LineDataError, match="line 10"):
            parse_line_data(text)

    def test_unsorted_rejected(self):
        good = MINI_FILE.format(ab87=0.28, ab85=0.72)
        lines = good.splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        with pytest.raises(LineDataError, match="sorted"):
            parse_line_data("\n".join(lines))

    def test_duplicate_rejected(self):
        good = MINI_FILE.format(ab87=0.28, ab85=0.72).splitlines()
        good.insert(4, good[3])
        with pytest.raises(LineDataError, match="duplicate"):
            parse_line_data("\n".join(good))

    def test_load_is_pure_function_of_bytes(self, table):
        text = serialize_line_data(table)
        assert parse_line_data(text) == parse_line_data(text)

    def test_round_trip_identity(self, table):
        text = serialize_line_data(table)
        again = parse_line_data(text)
        assert again == LineTable(
            carrier_hz=table.carrier_hz,
            isotopes=table.isotopes,
            lines=table.lines,
            source_note=table.source_note,
        )
        assert serialize_line_data(again) == text


# Every manifold a line table must hold.
REQUIRED_MANIFOLDS = [("Rb85", 2), ("Rb85", 3), ("Rb87", 1), ("Rb87", 2)]


@strategies.composite
def random_tables(draw):
    finite = strategies.floats(allow_nan=False, allow_infinity=False)
    positive = strategies.one_of(
        strategies.floats(min_value=5e-324, allow_infinity=False),
        strategies.sampled_from([5e-324, 1e-300, 1e300, 0.1]),
    )
    detunings = sorted(draw(strategies.lists(
        strategies.one_of(finite, strategies.sampled_from([-0.0, 5e-324, 1e300, -1e-300])),
        min_size=4, max_size=16, unique=True,
    )))
    manifolds = draw(strategies.permutations(
        REQUIRED_MANIFOLDS
        + draw(strategies.lists(strategies.sampled_from(REQUIRED_MANIFOLDS),
                                min_size=len(detunings) - 4, max_size=len(detunings) - 4))
    ))
    ab85 = draw(strategies.floats(min_value=0.0, max_value=1.0))
    isotopes = (Isotope("Rb85", ab85, draw(positive)), Isotope("Rb87", 1.0 - ab85, draw(positive)))
    lines = tuple(
        TransitionLine(iso, f_ground, f"F'={draw(strategies.integers(0, 5))}", detuning,
                       draw(positive), draw(positive))
        for detuning, (iso, f_ground) in zip(detunings, manifolds)
    )
    note = draw(strategies.text(alphabet="abcXYZ019 (),;:.-'", max_size=30)).strip()
    return LineTable(draw(finite), isotopes, lines, note)


class TestLineDataRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(random_tables())
    def test_round_trip_exact(self, table):
        text = serialize_line_data(table)
        again = parse_line_data(text)
        assert again == table
        assert serialize_line_data(again) == text


class TestTransitions:
    def test_rb87_f2_has_three_lines(self, table):
        lines = transitions(table, "Rb87", 2)
        assert len(lines) == 3
        assert [ln.f_excited_label for ln in lines] == ["F'=1", "F'=2", "F'=3"]

    def test_rb87_f1_disjoint_from_f2(self, table):
        f1 = {ln.name for ln in transitions(table, "Rb87", 1)}
        f2 = {ln.name for ln in transitions(table, "Rb87", 2)}
        assert len(f1) == 3
        assert not f1 & f2

    def test_rb85_f3_has_three_lines(self, table):
        assert len(transitions(table, "Rb85", 3)) == 3

    def test_sorted_by_detuning(self, table):
        for iso, fg in table.manifolds():
            lines = transitions(table, iso, fg)
            assert all(a.detuning < b.detuning for a, b in zip(lines, lines[1:]))

    def test_unknown_manifold(self, table):
        with pytest.raises(UnknownFeatureError):
            transitions(table, "Rb87", 9)


class TestCrossovers:
    def test_three_lines_three_crossovers(self, table):
        crossovers = derive_crossovers(transitions(table, "Rb87", 2))
        assert len(crossovers) == 3
        assert all(c.is_crossover for c in crossovers)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pair_count(self, n):
        lines = [make_line(detuning=1e6 * i, label=f"F'={i}") for i in range(n)]
        assert len(derive_crossovers(lines)) == n * (n - 1) // 2

    def test_midpoint_exact(self):
        a, b = make_line(-3.0e8, label="F'=1"), make_line(1.0e8, label="F'=2")
        (co,) = derive_crossovers([a, b])
        assert co.detuning == (a.detuning + b.detuning) / 2.0
        assert co.f_excited_label == "co(1,2)"

    def test_strictly_between_parents(self, table):
        for iso, fg in table.manifolds():
            lines = transitions(table, iso, fg)
            for a, b in itertools.combinations(lines, 2):
                (co,) = derive_crossovers([a, b])
                lo, hi = sorted((a.detuning, b.detuning))
                assert lo < co.detuning < hi

    def test_co23_matches_file_midpoint(self, table):
        lines = {ln.f_excited_label: ln for ln in transitions(table, "Rb87", 2)}
        co = find_feature(table, "Rb87:F2->co(2,3)")
        assert co.detuning == (lines["F'=2"].detuning + lines["F'=3"].detuning) / 2.0

    def test_strength_rule_with_enhancement(self):
        a, b = make_line(0.0, 0.2, label="F'=1"), make_line(1e8, 0.6, label="F'=2")
        (co,) = derive_crossovers([a, b], enhancement=2.5)
        assert co.strength == pytest.approx((0.2 + 0.6) / 2 * 2.5)

    def test_mixed_manifolds_rejected(self):
        a = make_line(0.0, f_ground=2)
        b = make_line(1e8, f_ground=1, label="F'=2")
        with pytest.raises(LineDataError, match="mixed"):
            derive_crossovers([a, b])

    def test_crossover_inputs_rejected(self, table):
        crossovers = derive_crossovers(transitions(table, "Rb87", 2))
        with pytest.raises(LineDataError, match="direct"):
            derive_crossovers(crossovers)


class TestPumpRepump:
    def test_default_separation_in_expected_band(self, table):
        sep = pump_repump_separation(table)
        assert 6.4e9 <= sep <= 6.7e9

    def test_same_feature_gives_zero(self, table):
        assert pump_repump_separation(
            table, "Rb87:F2->co(2,3)", "Rb87:F2->co(2,3)"
        ) == 0.0

    def test_lines_within_a_manifold_are_close(self, table):
        for iso, fg in table.manifolds():
            lines = transitions(table, iso, fg)
            for a, b in itertools.combinations(lines, 2):
                assert pump_repump_separation(table, a.name, b.name) < 1.0e9

    def test_unknown_feature(self, table):
        with pytest.raises(UnknownFeatureError):
            pump_repump_separation(table, "Rb87:F2->co(2,3)", "Rb87:F9->F'=1")


class TestValidationTypes:
    def test_isotope_invariants(self):
        with pytest.raises(LineDataError):
            Isotope("Rb86", 0.5, 1e-25)
        with pytest.raises(LineDataError):
            Isotope("Rb87", 0.5, -1e-25)
        with pytest.raises(LineDataError):
            Isotope("Rb87", 1.5, 1e-25)

    def test_line_invariants(self):
        with pytest.raises(LineDataError):
            make_line(0.0, strength=0.0)
        with pytest.raises(LineDataError):
            TransitionLine("Rb87", 2, "F'=1", 0.0, 1.0, 0.0)
