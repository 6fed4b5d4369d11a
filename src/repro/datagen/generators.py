"""Synthetic table generators with ground truth.

Every generator returns a :class:`GeneratedTable`: the relation itself, the
embedded dependencies that genuinely hold through partial values (the ground
truth for Table 7's precision/recall), validation oracles (the ground truth
for Table 8), and the cells that the generator deliberately dirtied together
with their correct values (the ground truth for the error-detection
experiments).

All generation is deterministic in the seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Sequence

from ..constraints.base import CellRef
from ..dataset.relation import Relation
from ..dataset.schema import AttributeRole, Schema, Attribute
from . import pools

DependencyKey = tuple[tuple[str, ...], tuple[str, ...]]


@dataclasses.dataclass
class GeneratedTable:
    """A synthetic table plus everything needed to evaluate against it."""

    name: str
    repository: str
    description: str
    relation: Relation
    true_dependencies: set[DependencyKey]
    oracles: dict[str, dict[str, str]]
    error_cells: dict[CellRef, str]

    @property
    def row_count(self) -> int:
        return self.relation.row_count

    @property
    def column_count(self) -> int:
        return len(self.relation.schema)

    def clean_relation(self) -> Relation:
        """The relation with every dirtied cell restored to its true value."""
        clean = self.relation.copy()
        for cell, original in self.error_cells.items():
            clean.set_cell(cell.row_id, cell.attribute, original)
        return clean


def dependency(lhs: Sequence[str] | str, rhs: str) -> DependencyKey:
    """Canonical embedded-dependency key helper for ground-truth lists."""
    lhs_tuple = (lhs,) if isinstance(lhs, str) else tuple(lhs)
    return (tuple(sorted(lhs_tuple)), (rhs,))


# ---------------------------------------------------------------------------
# Low-level value factories
# ---------------------------------------------------------------------------


def _person(rng: random.Random, unisex_fraction: float = 0.02) -> tuple[str, str]:
    """A (full name, gender) pair; a small fraction of names are unisex."""
    if rng.random() < unisex_fraction:
        first = rng.choice(pools.UNISEX_FIRST_NAMES)
        gender = rng.choice(pools.GENDERS)
    elif rng.random() < 0.5:
        first = rng.choice(pools.MALE_FIRST_NAMES)
        gender = "M"
    else:
        first = rng.choice(pools.FEMALE_FIRST_NAMES)
        gender = "F"
    last = rng.choice(pools.LAST_NAMES)
    if rng.random() < 0.15:
        middle = rng.choice("ABCDEFGHJKLMNPRSTW")
        return f"{first} {middle}. {last}", gender
    return f"{first} {last}", gender


def _person_last_first(rng: random.Random) -> tuple[str, str]:
    """``Last, First M.`` formatted names (Table 3's Full Name column)."""
    full, gender = _person(rng)
    parts = full.split(" ")
    first = parts[0]
    last = parts[-1]
    middle = f" {parts[1]}" if len(parts) == 3 else ""
    return f"{last}, {first}{middle}", gender


def _zip_city_state(rng: random.Random) -> tuple[str, str, str]:
    prefix = rng.choice(list(pools.ZIP_PREFIXES))
    city, state = pools.ZIP_PREFIXES[prefix]
    return f"{prefix}{rng.randint(0, 99):02d}", city, state


def _phone_for(rng: random.Random, area_code: Optional[str] = None) -> tuple[str, str]:
    if area_code is None:
        area_code = rng.choice(list(pools.AREA_CODES))
    state = pools.AREA_CODES[area_code]
    return f"{area_code}{rng.randint(0, 9_999_999):07d}", state


def _employee_id(rng: random.Random) -> tuple[str, str]:
    prefix = rng.choice(list(pools.EMPLOYEE_ID_PREFIXES))
    department = pools.EMPLOYEE_ID_PREFIXES[prefix]
    return f"{prefix}-{rng.randint(1, 9)}-{rng.randint(100, 999)}", department


def _grant_id(rng: random.Random) -> tuple[str, str]:
    prefix = rng.choice(list(pools.GRANT_PROGRAMS))
    program = pools.GRANT_PROGRAMS[prefix]
    return f"{prefix}-{rng.randint(2010, 2023)}-{rng.randint(1000, 9999)}", program


def _course(rng: random.Random) -> tuple[str, str, str]:
    prefix = rng.choice(list(pools.COURSE_DEPARTMENTS))
    department = pools.COURSE_DEPARTMENTS[prefix]
    number = rng.randint(1, 4) * 100 + rng.randint(0, 99)
    level = "Undergraduate" if number < 300 else "Graduate"
    return f"{prefix}-{number}", department, level


def _typo(rng: random.Random, value: str) -> str:
    """Character-level perturbation used for the generator's natural dirt."""
    if not value:
        return "?"
    index = rng.randrange(len(value))
    kind = rng.choice(("drop", "dup", "sub", "case"))
    if kind == "drop" and len(value) > 2:
        return value[:index] + value[index + 1 :]
    if kind == "dup":
        return value[: index + 1] + value[index] + value[index + 1 :]
    if kind == "case" and value[index].isalpha():
        swapped = value[index].lower() if value[index].isupper() else value[index].upper()
        return value[:index] + swapped + value[index + 1 :]
    replacement = rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
    return value[:index] + replacement + value[index + 1 :]


def _dirty(
    rng: random.Random,
    relation: Relation,
    attribute: str,
    rate: float,
    replacement: Optional[Callable[[random.Random, str], str]] = None,
    swap_pool: Optional[Sequence[str]] = None,
) -> dict[CellRef, str]:
    """Corrupt ``rate`` of the non-empty cells of one column, returning the
    map from corrupted cell to its original value."""
    errors: dict[CellRef, str] = {}
    candidates = relation.non_empty_rows(attribute)
    count = int(round(rate * relation.row_count))
    if count == 0 or not candidates:
        return errors
    rng.shuffle(candidates)
    for row_id in candidates[:count]:
        original = relation.cell(row_id, attribute)
        if swap_pool:
            alternatives = [value for value in swap_pool if value != original]
            new_value = rng.choice(alternatives) if alternatives else _typo(rng, original)
        elif replacement is not None:
            new_value = replacement(rng, original)
        else:
            new_value = _typo(rng, original)
        if new_value == original:
            new_value = original + "x"
        relation.set_cell(row_id, attribute, new_value)
        errors[CellRef(row_id, attribute)] = original
    return errors


def _scaled(base: int, scale: float) -> int:
    return max(40, int(base * scale))


# ---------------------------------------------------------------------------
# GOV repository (data.gov archetypes): T1–T5
# ---------------------------------------------------------------------------


def build_gov_contacts(rows: int = 800, seed: int = 1, dirt_rate: float = 0.02) -> GeneratedTable:
    """T1 — government contact directory: full name, gender, phone, state, agency."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            [
                "full_name",
                "gender",
                "phone",
                "state",
                Attribute("agency", AttributeRole.QUALITATIVE),
            ],
            name="T1_gov_contacts",
        )
    )
    batch: list[list[str]] = []
    for _ in range(rows):
        name, gender = _person_last_first(rng)
        phone, state = _phone_for(rng)
        agency = rng.choice(list(pools.AGENCIES))
        batch.append([name, gender, phone, state, agency])
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(_dirty(rng, relation, "gender", dirt_rate, swap_pool=pools.GENDERS))
    errors.update(_dirty(rng, relation, "state", dirt_rate, swap_pool=pools.STATES))
    return GeneratedTable(
        name="T1",
        repository="GOV",
        description="Contact directory: first name determines gender, phone area code determines state",
        relation=relation,
        true_dependencies={
            dependency("full_name", "gender"),
            dependency("phone", "state"),
        },
        oracles={
            "first_name_gender": pools.first_name_gender_oracle(),
            "area_code_state": pools.area_code_state_oracle(),
        },
        error_cells=errors,
    )


def build_gov_addresses(rows: int = 600, seed: int = 2, dirt_rate: float = 0.02) -> GeneratedTable:
    """T2 — address registry: zip determines city and state via its prefix."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["zip", "city", "state", "street"], name="T2_gov_addresses")
    )
    cities = sorted({city for city, _ in pools.ZIP_PREFIXES.values()})
    batch: list[list[str]] = []
    for _ in range(rows):
        zip_code, city, state = _zip_city_state(rng)
        street = f"{rng.randint(1, 9999)} {rng.choice(pools.LAST_NAMES)} St"
        batch.append([zip_code, city, state, street])
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(_dirty(rng, relation, "city", dirt_rate))
    errors.update(_dirty(rng, relation, "state", dirt_rate, swap_pool=pools.STATES))
    return GeneratedTable(
        name="T2",
        repository="GOV",
        description="Addresses: zip prefix determines city and state",
        relation=relation,
        true_dependencies={
            dependency("zip", "city"),
            dependency("zip", "state"),
            dependency("city", "state"),
            dependency("city", "zip"),
        },
        oracles={
            "zip_prefix_city": pools.zip_prefix_city_oracle(),
            "zip_prefix_state": pools.zip_prefix_state_oracle(),
            "city_state": {city: state for _p, (city, state) in pools.ZIP_PREFIXES.items()},
        },
        error_cells=errors,
    )


def build_gov_employees(rows: int = 450, seed: int = 3, dirt_rate: float = 0.02) -> GeneratedTable:
    """T3 — employee register: the employee-ID prefix determines the department
    (the paper's introductory ``F-9-107`` example)."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["employee_id", "department", "grade", "building"], name="T3_gov_employees")
    )
    batch: list[list[str]] = []
    for _ in range(rows):
        employee_id, department = _employee_id(rng)
        grade = rng.choice(list(pools.SALARY_GRADES))
        building = pools.DEPARTMENT_BUILDINGS.get(department, "Annex")
        batch.append([employee_id, department, grade, building])
    relation.append_rows(batch)
    errors = _dirty(
        rng, relation, "department", dirt_rate,
        swap_pool=sorted(set(pools.EMPLOYEE_ID_PREFIXES.values())),
    )
    return GeneratedTable(
        name="T3",
        repository="GOV",
        description="Employees: ID prefix letter determines department",
        relation=relation,
        true_dependencies={
            dependency("employee_id", "department"),
            dependency("department", "employee_id"),
            dependency("department", "building"),
            dependency("employee_id", "building"),
        },
        oracles={"id_prefix_department": dict(pools.EMPLOYEE_ID_PREFIXES)},
        error_cells=errors,
    )


def build_gov_facilities(rows: int = 500, seed: int = 4, dirt_rate: float = 0.02) -> GeneratedTable:
    """T4 — facility registry: fax area code determines the state."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["facility", "fax", "state", "facility_type"], name="T4_gov_facilities")
    )
    facility_types = ("Laboratory", "Office", "Warehouse", "Data Center")
    batch: list[list[str]] = []
    for index in range(rows):
        fax, state = _phone_for(rng)
        facility = f"Facility {index:04d}"
        batch.append([facility, fax, state, rng.choice(facility_types)])
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "state", dirt_rate, swap_pool=pools.STATES)
    return GeneratedTable(
        name="T4",
        repository="GOV",
        description="Facilities: fax area code determines state",
        relation=relation,
        true_dependencies={dependency("fax", "state")},
        oracles={"area_code_state": pools.area_code_state_oracle()},
        error_cells=errors,
    )


def build_gov_grants(rows: int = 450, seed: int = 5, dirt_rate: float = 0.02) -> GeneratedTable:
    """T5 — grants: grant-ID prefix determines the program; amount is a
    quantitative column the profiler must drop."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            [
                "grant_id",
                "program",
                "agency",
                Attribute("amount", AttributeRole.QUANTITATIVE),
                "year",
            ],
            name="T5_gov_grants",
        )
    )
    batch: list[list[str]] = []
    for _ in range(rows):
        grant_id, program = _grant_id(rng)
        agency = rng.choice(list(pools.AGENCIES))
        amount = f"{rng.randint(10, 500) * 1000}"
        year = grant_id.split("-")[1]
        batch.append([grant_id, program, agency, amount, year])
    relation.append_rows(batch)
    errors = _dirty(
        rng, relation, "program", dirt_rate,
        swap_pool=sorted(pools.GRANT_PROGRAMS.values()),
    )
    return GeneratedTable(
        name="T5",
        repository="GOV",
        description="Grants: grant-ID prefix determines program; year embedded in the ID",
        relation=relation,
        true_dependencies={
            dependency("grant_id", "program"),
            dependency("program", "grant_id"),
            dependency("grant_id", "year"),
        },
        oracles={"grant_prefix_program": dict(pools.GRANT_PROGRAMS)},
        error_cells=errors,
    )


# ---------------------------------------------------------------------------
# CHE repository (ChEMBL archetypes): T6–T10
# ---------------------------------------------------------------------------


def build_che_compounds(rows: int = 700, seed: int = 6, dirt_rate: float = 0.015) -> GeneratedTable:
    """T6 — compounds: CHEMBL identifiers, molecule types, development phase."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            ["molregno", "chembl_id", "molecule_type", "max_phase", "therapeutic_flag"],
            name="T6_che_compounds",
        )
    )
    batch: list[list[str]] = []
    for index in range(rows):
        molregno = str(100000 + index)
        chembl_id = f"CHEMBL{100000 + index}"
        molecule_type = rng.choice(pools.MOLECULE_TYPES)
        max_phase = str(rng.randint(0, 4))
        flag = "1" if max_phase == "4" or rng.random() < 0.2 else "0"
        batch.append([molregno, chembl_id, molecule_type, max_phase, flag])
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "chembl_id", dirt_rate)
    return GeneratedTable(
        name="T6",
        repository="CHE",
        description="Compounds: molregno embedded in the CHEMBL identifier",
        relation=relation,
        true_dependencies={
            dependency("molregno", "chembl_id"),
            dependency("chembl_id", "molregno"),
        },
        oracles={},
        error_cells=errors,
    )


def build_che_targets(rows: int = 500, seed: int = 7, dirt_rate: float = 0.02) -> GeneratedTable:
    """T7 — protein targets: the pref_name family prefix determines the
    protein class description (the paper's T10 example)."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["target_id", "pref_name", "protein_class_desc", "organism"], name="T7_che_targets")
    )
    organisms = ("Homo sapiens", "Rattus norvegicus", "Mus musculus")
    batch: list[list[str]] = []
    for index in range(rows):
        family = rng.choice(list(pools.PROTEIN_FAMILIES))
        subtype = rng.choice(("alpha", "beta", "gamma", "delta", "1", "2A", "3B", "4"))
        pref_name = f"{family} {subtype}"
        protein_class = f"{pools.PROTEIN_FAMILIES[family]} {subtype.lower()}"
        batch.append(
            [f"CHEMBL{200000 + index}", pref_name, protein_class, rng.choice(organisms)]
        )
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "protein_class_desc", dirt_rate)
    return GeneratedTable(
        name="T7",
        repository="CHE",
        description="Targets: pref_name family prefix determines protein class",
        relation=relation,
        true_dependencies={
            dependency("pref_name", "protein_class_desc"),
            dependency("protein_class_desc", "pref_name"),
        },
        oracles={"family_protein_class": dict(pools.PROTEIN_FAMILIES)},
        error_cells=errors,
    )


def build_che_assays(rows: int = 600, seed: int = 8, dirt_rate: float = 0.02) -> GeneratedTable:
    """T8 — assays: the assay type code determines its description."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["assay_id", "assay_type", "assay_desc", "confidence_score"], name="T8_che_assays")
    )
    batch: list[list[str]] = []
    for index in range(rows):
        code = rng.choice(list(pools.ASSAY_TYPES))
        description = f"{pools.ASSAY_TYPES[code]} assay {rng.randint(1, 30)}"
        batch.append(
            [f"A{300000 + index}", code, description, str(rng.randint(1, 9))]
        )
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "assay_desc", dirt_rate)
    return GeneratedTable(
        name="T8",
        repository="CHE",
        description="Assays: assay type code determines the description prefix",
        relation=relation,
        true_dependencies={
            dependency("assay_type", "assay_desc"),
            dependency("assay_desc", "assay_type"),
        },
        oracles={"assay_type_desc": dict(pools.ASSAY_TYPES)},
        error_cells=errors,
    )


def build_che_activities(rows: int = 800, seed: int = 9, dirt_rate: float = 0.02) -> GeneratedTable:
    """T9 — activities: the standard type determines the measurement units;
    the numeric value column is quantitative."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            [
                "activity_id",
                "standard_type",
                "standard_units",
                Attribute("standard_value", AttributeRole.QUANTITATIVE),
                "assay_chembl_id",
            ],
            name="T9_che_activities",
        )
    )
    batch: list[list[str]] = []
    for index in range(rows):
        standard_type = rng.choice(list(pools.STANDARD_TYPES))
        units = pools.STANDARD_TYPES[standard_type]
        value = f"{rng.uniform(0.1, 10000):.2f}"
        batch.append(
            [str(400000 + index), standard_type, units, value, f"CHEMBL{rng.randint(300000, 300400)}"]
        )
    relation.append_rows(batch)
    errors = _dirty(
        rng, relation, "standard_units", dirt_rate,
        swap_pool=sorted(set(pools.STANDARD_TYPES.values())),
    )
    return GeneratedTable(
        name="T9",
        repository="CHE",
        description="Activities: standard type determines units",
        relation=relation,
        true_dependencies={dependency("standard_type", "standard_units")},
        oracles={"standard_type_units": dict(pools.STANDARD_TYPES)},
        error_cells=errors,
    )


def build_che_docs(rows: int = 450, seed: int = 10, dirt_rate: float = 0.02) -> GeneratedTable:
    """T10 — documents: journal determines its ISSN; DOIs embed the year."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["doc_id", "journal", "issn", "year", "doi"], name="T10_che_docs")
    )
    batch: list[list[str]] = []
    for index in range(rows):
        journal = rng.choice(list(pools.JOURNALS))
        issn = pools.JOURNALS[journal]
        year = str(rng.randint(2005, 2019))
        doi = f"10.{rng.randint(1000, 9999)}/{year}.{rng.randint(100, 999)}"
        batch.append([f"D{500000 + index}", journal, issn, year, doi])
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "issn", dirt_rate)
    return GeneratedTable(
        name="T10",
        repository="CHE",
        description="Documents: journal determines ISSN, DOI embeds the publication year",
        relation=relation,
        true_dependencies={
            dependency("journal", "issn"),
            dependency("issn", "journal"),
            dependency("doi", "year"),
        },
        oracles={"journal_issn": dict(pools.JOURNALS)},
        error_cells=errors,
    )


# ---------------------------------------------------------------------------
# UDW repository (university data warehouse archetypes): T11–T15
# ---------------------------------------------------------------------------


def build_udw_students(rows: int = 900, seed: int = 11, dirt_rate: float = 0.02) -> GeneratedTable:
    """T11 — students: first name determines gender, email domain determines campus."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            ["student_id", "full_name", "gender", "email", "campus", "major"],
            name="T11_udw_students",
        )
    )
    majors = sorted(pools.COURSE_DEPARTMENTS.values())
    batch: list[list[str]] = []
    for index in range(rows):
        name, gender = _person(rng)
        domain = rng.choice(list(pools.EMAIL_DOMAINS))
        campus = pools.EMAIL_DOMAINS[domain]
        user = name.split(" ")[0].lower() + str(rng.randint(1, 999))
        batch.append(
            [f"S{100000 + index}", name, gender, f"{user}@{domain}", campus, rng.choice(majors)]
        )
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(_dirty(rng, relation, "gender", dirt_rate, swap_pool=pools.GENDERS))
    errors.update(_dirty(rng, relation, "campus", dirt_rate, swap_pool=sorted(pools.EMAIL_DOMAINS.values())))
    return GeneratedTable(
        name="T11",
        repository="UDW",
        description="Students: first name determines gender, email domain determines campus",
        relation=relation,
        true_dependencies={
            dependency("full_name", "gender"),
            dependency("email", "campus"),
        },
        oracles={
            "first_name_gender": pools.first_name_gender_oracle(),
            "email_domain_campus": dict(pools.EMAIL_DOMAINS),
        },
        error_cells=errors,
    )


def build_udw_courses(rows: int = 450, seed: int = 12, dirt_rate: float = 0.02) -> GeneratedTable:
    """T12 — courses: the course-code prefix determines the department and
    the course number band determines the level."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(["course_code", "department", "level", "credits"], name="T12_udw_courses")
    )
    batch: list[list[str]] = []
    for _ in range(rows):
        code, department, level = _course(rng)
        batch.append([code, department, level, str(rng.randint(1, 4))])
    relation.append_rows(batch)
    errors = _dirty(
        rng, relation, "department", dirt_rate,
        swap_pool=sorted(pools.COURSE_DEPARTMENTS.values()),
    )
    return GeneratedTable(
        name="T12",
        repository="UDW",
        description="Courses: course-code prefix determines department",
        relation=relation,
        true_dependencies={
            dependency("course_code", "department"),
            dependency("department", "course_code"),
            dependency("course_code", "level"),
        },
        oracles={"course_prefix_department": dict(pools.COURSE_DEPARTMENTS)},
        error_cells=errors,
    )


def build_udw_staff(rows: int = 500, seed: int = 13, dirt_rate: float = 0.02) -> GeneratedTable:
    """T13 — staff: name determines gender, office phone determines state,
    department determines building."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            ["staff_id", "full_name", "gender", "department", "office_phone", "state", "building"],
            name="T13_udw_staff",
        )
    )
    departments = sorted(pools.DEPARTMENT_BUILDINGS)
    batch: list[list[str]] = []
    for index in range(rows):
        name, gender = _person_last_first(rng)
        department = rng.choice(departments)
        phone, state = _phone_for(rng)
        building = pools.DEPARTMENT_BUILDINGS[department]
        batch.append(
            [f"E{20000 + index}", name, gender, department, phone, state, building]
        )
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(_dirty(rng, relation, "gender", dirt_rate, swap_pool=pools.GENDERS))
    errors.update(_dirty(rng, relation, "building", dirt_rate))
    return GeneratedTable(
        name="T13",
        repository="UDW",
        description="Staff: name determines gender, phone area code determines state, department determines building",
        relation=relation,
        true_dependencies={
            dependency("full_name", "gender"),
            dependency("office_phone", "state"),
            dependency("department", "building"),
        },
        oracles={
            "first_name_gender": pools.first_name_gender_oracle(),
            "area_code_state": pools.area_code_state_oracle(),
            "department_building": dict(pools.DEPARTMENT_BUILDINGS),
        },
        error_cells=errors,
    )


def build_udw_alumni(rows: int = 800, seed: int = 14, dirt_rate: float = 0.02) -> GeneratedTable:
    """T14 — alumni: name determines gender, zip determines city and state."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            ["alum_id", "full_name", "gender", "grad_year", "zip", "city", "state"],
            name="T14_udw_alumni",
        )
    )
    batch: list[list[str]] = []
    for index in range(rows):
        name, gender = _person(rng)
        zip_code, city, state = _zip_city_state(rng)
        batch.append(
            [f"AL{30000 + index}", name, gender, str(rng.randint(1980, 2020)), zip_code, city, state]
        )
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(_dirty(rng, relation, "gender", dirt_rate, swap_pool=pools.GENDERS))
    errors.update(_dirty(rng, relation, "city", dirt_rate))
    errors.update(_dirty(rng, relation, "state", dirt_rate, swap_pool=pools.STATES))
    return GeneratedTable(
        name="T14",
        repository="UDW",
        description="Alumni: name determines gender, zip prefix determines city and state",
        relation=relation,
        true_dependencies={
            dependency("full_name", "gender"),
            dependency("zip", "city"),
            dependency("zip", "state"),
            dependency("city", "state"),
            dependency("city", "zip"),
        },
        oracles={
            "first_name_gender": pools.first_name_gender_oracle(),
            "zip_prefix_city": pools.zip_prefix_city_oracle(),
            "zip_prefix_state": pools.zip_prefix_state_oracle(),
        },
        error_cells=errors,
    )


def build_udw_payroll(rows: int = 500, seed: int = 15, dirt_rate: float = 0.02) -> GeneratedTable:
    """T15 — payroll: employee-ID prefix determines department, fax area code
    determines state; salary is quantitative."""
    rng = random.Random(seed)
    relation = Relation(
        Schema(
            [
                "employee_id",
                "department",
                "grade",
                Attribute("salary", AttributeRole.QUANTITATIVE),
                "fax",
                "state",
            ],
            name="T15_udw_payroll",
        )
    )
    batch: list[list[str]] = []
    for _ in range(rows):
        employee_id, department = _employee_id(rng)
        grade = rng.choice(list(pools.SALARY_GRADES))
        low, high = pools.SALARY_GRADES[grade]
        salary = str(rng.randint(low, high))
        fax, state = _phone_for(rng)
        batch.append([employee_id, department, grade, salary, fax, state])
    relation.append_rows(batch)
    errors: dict[CellRef, str] = {}
    errors.update(
        _dirty(rng, relation, "department", dirt_rate,
               swap_pool=sorted(set(pools.EMPLOYEE_ID_PREFIXES.values())))
    )
    errors.update(_dirty(rng, relation, "state", dirt_rate, swap_pool=pools.STATES))
    return GeneratedTable(
        name="T15",
        repository="UDW",
        description="Payroll: employee-ID prefix determines department, fax area code determines state",
        relation=relation,
        true_dependencies={
            dependency("employee_id", "department"),
            dependency("fax", "state"),
        },
        oracles={
            "id_prefix_department": dict(pools.EMPLOYEE_ID_PREFIXES),
            "area_code_state": pools.area_code_state_oracle(),
        },
        error_cells=errors,
    )


# ---------------------------------------------------------------------------
# Focused helper tables used by examples and the controlled experiments
# ---------------------------------------------------------------------------


def build_zip_state_table(rows: int = 920, seed: int = 42) -> GeneratedTable:
    """A clean Zip -> State table mirroring the controlled evaluation of
    Section 5.3 (924 records, 27 states in the original)."""
    rng = random.Random(seed)
    relation = Relation(Schema(["zip", "state"], name="ZipState"))
    batch: list[list[str]] = []
    for _ in range(rows):
        zip_code, _city, state = _zip_city_state(rng)
        batch.append([zip_code, state])
    relation.append_rows(batch)
    return GeneratedTable(
        name="ZipState",
        repository="GOV",
        description="Controlled-evaluation table: zip prefix determines state",
        relation=relation,
        true_dependencies={dependency("zip", "state")},
        oracles={"zip_prefix_state": pools.zip_prefix_state_oracle()},
        error_cells={},
    )


def build_name_gender_table(rows: int = 600, seed: int = 43, dirt_rate: float = 0.0) -> GeneratedTable:
    """A Full Name -> Gender table in ``Last, First`` format (Table 3 / 8)."""
    rng = random.Random(seed)
    relation = Relation(Schema(["full_name", "gender"], name="NameGender"))
    batch: list[list[str]] = []
    for _ in range(rows):
        name, gender = _person_last_first(rng)
        batch.append([name, gender])
    relation.append_rows(batch)
    errors = _dirty(rng, relation, "gender", dirt_rate, swap_pool=pools.GENDERS)
    return GeneratedTable(
        name="NameGender",
        repository="UDW",
        description="Full name (Last, First) determines gender through the first-name token",
        relation=relation,
        true_dependencies={dependency("full_name", "gender")},
        oracles={"first_name_gender": pools.first_name_gender_oracle()},
        error_cells=errors,
    )
