"""Rubidium D2 line data: loading, validation, and derived features.

The bundled table stores the twelve direct hyperfine transitions of the two
natural isotopes. All optical frequencies are kept as detunings (Hz) from a
configured carrier (default: the Rb87 F=2 -> F'=3 line) so that doubles never
carry 384 THz offsets; the absolute carrier lives only in table metadata.

Crossover resonances are not stored; they are derived per manifold as the
pairwise midpoints of the direct lines, with strength equal to the parent
mean times a configurable enhancement factor.

File format ``rb-lines/1`` (plain text, ``#`` comments)::

    format=rb-lines/1
    carrier_hz=<float>
    source=<free text>
    <isotope>, <abundance>, <mass_kg>, <f_ground>, <f_excited_label>, \
        <detuning_hz>, <strength>, <gamma_natural_hz>

Records must be sorted ascending by detuning. Crossover labels like
``co(2,3)`` keep their comma; fields are split at commas outside parentheses.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from pathlib import Path

from .errors import LineDataError, UnknownFeatureError

FORMAT_VERSION = "rb-lines/1"
ISOTOPE_NAMES = frozenset({"Rb85", "Rb87"})

DEFAULT_PUMP_FEATURE = "Rb87:F2->co(2,3)"
DEFAULT_REPUMP_FEATURE = "Rb87:F1->co(1,2)"


@dataclass(frozen=True)
class Isotope:
    name: str
    abundance: float
    mass: float  # kg

    def __post_init__(self):
        if self.name not in ISOTOPE_NAMES:
            raise LineDataError(f"unknown isotope {self.name!r}")
        if not 0.0 <= self.abundance <= 1.0:
            raise LineDataError(f"abundance {self.abundance} outside [0, 1]")
        if not self.mass > 0:
            raise LineDataError(f"mass must be > 0, got {self.mass}")


@dataclass(frozen=True)
class TransitionLine:
    isotope: str
    f_ground: int
    f_excited_label: str  # "F'=3" for direct lines, "co(2,3)" for crossovers
    detuning: float       # Hz from the table carrier
    strength: float       # relative weight, > 0
    gamma_natural: float  # natural FWHM, Hz
    is_crossover: bool = False

    def __post_init__(self):
        if not self.strength > 0:
            raise LineDataError(f"strength must be > 0, got {self.strength}")
        if not self.gamma_natural > 0:
            raise LineDataError(f"gamma_natural must be > 0, got {self.gamma_natural}")

    @property
    def manifold(self):
        return (self.isotope, self.f_ground)

    @property
    def name(self):
        """Stable feature name, e.g. ``Rb87:F2->F'=3`` or ``Rb87:F2->co(2,3)``."""
        return f"{self.isotope}:F{self.f_ground}->{self.f_excited_label}"


@dataclass(frozen=True)
class LineTable:
    carrier_hz: float
    isotopes: tuple
    lines: tuple
    source_note: str = ""

    def isotope(self, name):
        for iso in self.isotopes:
            if iso.name == name:
                return iso
        raise UnknownFeatureError(f"isotope {name!r} not in table")

    def manifolds(self):
        """Distinct (isotope, f_ground) pairs, ordered by first appearance in detuning."""
        seen = []
        for line in self.lines:
            if line.manifold not in seen:
                seen.append(line.manifold)
        return seen


def _split_record(text):
    """Split a record at commas that are not inside parentheses."""
    fields, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            fields.append(text[start:i].strip())
            start = i + 1
    fields.append(text[start:].strip())
    return fields


def load_line_data(path) -> LineTable:
    """Parse and validate a ``rb-lines/1`` file.

    Raises LineDataError (with line number where applicable) on syntax
    problems, unknown format versions, abundance-sum violations, unsorted or
    duplicate records, or a missing ground-state manifold.
    """
    path = Path(path)
    if not path.is_file():
        raise LineDataError("file not found", path=path)
    text = path.read_text(encoding="utf-8")
    return parse_line_data(text, source=str(path))


def parse_line_data(text, source="<string>") -> LineTable:
    carrier_hz = None
    source_note = ""
    fmt_seen = False
    raw = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and not fmt_seen:
            key, _, value = line.partition("=")
            if key.strip() != "format":
                raise LineDataError(
                    f"expected 'format={FORMAT_VERSION}' header, got {line!r}",
                    path=source, lineno=lineno,
                )
            if value.strip() != FORMAT_VERSION:
                raise LineDataError(
                    f"unsupported format version {value.strip()!r}", path=source, lineno=lineno
                )
            fmt_seen = True
            continue
        if not fmt_seen:
            raise LineDataError("missing format header", path=source, lineno=lineno)
        meta_key = line.partition("=")[0].strip()
        if "=" in line and meta_key in ("carrier_hz", "source"):
            value = line.partition("=")[2]
            if meta_key == "carrier_hz":
                try:
                    carrier_hz = float(value)
                except ValueError:
                    raise LineDataError(f"bad carrier_hz {value!r}", path=source, lineno=lineno)
            else:
                source_note = value.strip()
            continue

        fields = _split_record(line)
        if len(fields) != 8:
            raise LineDataError(
                f"expected 8 fields, got {len(fields)}", path=source, lineno=lineno
            )
        iso_name, abundance, mass, f_ground, label, detuning, strength, gamma = fields
        try:
            rec = TransitionLine(
                isotope=iso_name,
                f_ground=int(f_ground),
                f_excited_label=label,
                detuning=float(detuning),
                strength=float(strength),
                gamma_natural=float(gamma),
                is_crossover=label.startswith("co("),
            )
            iso = Isotope(name=iso_name, abundance=float(abundance), mass=float(mass))
        except (ValueError, LineDataError) as exc:
            raise LineDataError(f"bad record: {exc}", path=source, lineno=lineno) from None
        if not (rec.detuning == rec.detuning and abs(rec.detuning) != float("inf")):
            raise LineDataError("detuning not finite", path=source, lineno=lineno)
        raw.append((lineno, iso, rec))

    if not fmt_seen:
        raise LineDataError("missing format header", path=source)
    if not raw:
        raise LineDataError("no transition records", path=source)
    if carrier_hz is None:
        raise LineDataError("missing carrier_hz metadata", path=source)

    # Per-isotope abundance/mass must be given consistently on every record.
    isotopes = {}
    for lineno, iso, rec in raw:
        prev = isotopes.setdefault(iso.name, iso)
        if (prev.abundance, prev.mass) != (iso.abundance, iso.mass):
            raise LineDataError(
                f"inconsistent abundance/mass for {iso.name}", path=source, lineno=lineno
            )

    total = sum(iso.abundance for iso in isotopes.values())
    if abs(total - 1.0) > 1e-9:
        raise LineDataError(f"isotope abundances sum to {total!r}, expected 1", path=source)

    lines = [rec for _, _, rec in raw]
    for (ln_a, _, a), (ln_b, _, b) in zip(raw, raw[1:]):
        if b.detuning == a.detuning:
            raise LineDataError("duplicate detuning", path=source, lineno=ln_b)
        if b.detuning < a.detuning:
            raise LineDataError("records not sorted ascending by detuning", path=source, lineno=ln_b)

    table = LineTable(
        carrier_hz=carrier_hz,
        isotopes=tuple(sorted(isotopes.values(), key=lambda i: i.name)),
        lines=tuple(lines),
        source_note=source_note,
    )
    required = {("Rb87", 1), ("Rb87", 2), ("Rb85", 2), ("Rb85", 3)}
    missing = required - set(table.manifolds())
    if missing:
        raise LineDataError(f"missing ground-state manifolds: {sorted(missing)}", path=source)
    return table


def serialize_line_data(table: LineTable) -> str:
    """Inverse of parse_line_data; floats use repr so round trips are exact."""
    iso_by_name = {iso.name: iso for iso in table.isotopes}
    out = [f"format={FORMAT_VERSION}", f"carrier_hz={table.carrier_hz!r}"]
    if table.source_note:
        out.append(f"source={table.source_note}")
    for line in table.lines:
        iso = iso_by_name[line.isotope]
        out.append(
            f"{line.isotope}, {iso.abundance!r}, {iso.mass!r}, {line.f_ground}, "
            f"{line.f_excited_label}, {line.detuning!r}, {line.strength!r}, "
            f"{line.gamma_natural!r}"
        )
    return "\n".join(out) + "\n"


def bundled_line_data_path():
    """Path of the line table shipped with the package."""
    return resources.files("saslock").joinpath("data/rb_d2_lines.txt")


def load_default_line_data() -> LineTable:
    return parse_line_data(
        bundled_line_data_path().read_text(encoding="utf-8"), source="bundled:rb_d2_lines.txt"
    )


def transitions(table: LineTable, isotope, f_ground):
    """Direct (non-crossover) lines of one manifold, sorted by detuning."""
    out = [
        ln
        for ln in table.lines
        if ln.manifold == (isotope, f_ground) and not ln.is_crossover
    ]
    if not out:
        raise UnknownFeatureError(f"no manifold ({isotope}, F={f_ground}) in table")
    return sorted(out, key=lambda ln: ln.detuning)


def _excited_number(label):
    if not label.startswith("F'="):
        raise LineDataError(f"cannot derive crossover label from {label!r}")
    return label[3:]


def derive_crossovers(lines, enhancement=1.0):
    """One crossover per unordered pair of direct lines from one manifold.

    The crossover sits exactly at the parents' midpoint; its strength is the
    parent mean scaled by `enhancement`.
    """
    if not lines:
        return []
    manifolds = {ln.manifold for ln in lines}
    if len(manifolds) != 1:
        raise LineDataError(f"mixed manifolds in crossover derivation: {sorted(manifolds)}")
    if any(ln.is_crossover for ln in lines):
        raise LineDataError("crossover derivation expects direct lines only")
    if len({ln.detuning for ln in lines}) != len(lines):
        raise LineDataError("duplicate lines in crossover derivation")
    if not enhancement > 0:
        raise ValueError(f"enhancement must be > 0, got {enhancement}")

    out = []
    for a, b in combinations(sorted(lines, key=lambda ln: ln.detuning), 2):
        label = f"co({_excited_number(a.f_excited_label)},{_excited_number(b.f_excited_label)})"
        out.append(
            TransitionLine(
                isotope=a.isotope,
                f_ground=a.f_ground,
                f_excited_label=label,
                detuning=(a.detuning + b.detuning) / 2.0,
                strength=(a.strength + b.strength) / 2.0 * enhancement,
                gamma_natural=(a.gamma_natural + b.gamma_natural) / 2.0,
                is_crossover=True,
            )
        )
    return sorted(out, key=lambda ln: ln.detuning)


def parse_manifold_name(name):
    """Split ``Rb87:F2`` into (isotope, f_ground)."""
    isotope, _, f_part = name.partition(":")
    if f_part.startswith("F"):
        try:
            return isotope, int(f_part[1:])
        except ValueError:
            pass
    raise UnknownFeatureError(f"malformed manifold name {name!r}; expected like 'Rb87:F2'")


def parse_feature_name(name):
    """Split ``Rb87:F2->co(2,3)`` into (isotope, f_ground, excited_label)."""
    manifold, arrow, label = name.partition("->")
    if not arrow:
        raise UnknownFeatureError(f"malformed feature name {name!r}")
    return (*parse_manifold_name(manifold), label)


def find_feature(table: LineTable, name) -> TransitionLine:
    """Resolve a feature name to a line, deriving crossovers on demand."""
    isotope, f_ground, label = parse_feature_name(name)
    candidates = transitions(table, isotope, f_ground)
    if label.startswith("co("):
        candidates = derive_crossovers(candidates)
    for ln in candidates:
        if ln.f_excited_label == label:
            return ln
    raise UnknownFeatureError(f"feature {name!r} not in table")


def manifold_features(table: LineTable, isotope, f_ground, enhancement=1.0):
    """Direct lines plus derived crossovers of a manifold, sorted by detuning."""
    direct = transitions(table, isotope, f_ground)
    return sorted(
        direct + derive_crossovers(direct, enhancement=enhancement),
        key=lambda ln: ln.detuning,
    )


def pump_repump_separation(
    table: LineTable,
    pump_feature=DEFAULT_PUMP_FEATURE,
    repump_feature=DEFAULT_REPUMP_FEATURE,
):
    """|detuning(pump) - detuning(repump)| in Hz."""
    pump = find_feature(table, pump_feature)
    repump = find_feature(table, repump_feature)
    return abs(pump.detuning - repump.detuning)
