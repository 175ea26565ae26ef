"""`exactnum.record` against the standard library's frozen dataclasses.

Every latfix record class gets a twin from `dataclasses.make_dataclass`
with the same fields and defaults.  Real instances must have the repr,
`==`, `!=` and hash of their twins, every one of them hashable, and
rebuild from their fields.  They are those the seven gallery cases and
one seed-0 pass of the `fixspace` and `cyclicity` benchmark pools
construct, plus a short probe, a semigroup check and a unit-circle
count, which reach the records no command of those passes builds.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from latfix import conegeom, cyclicity, fixlattice, opcore, seqspace
from latfix.cli import gallery
from latfix.conegeom import core, simplex
from latfix.exactnum import polynomials
from latfix.exactnum.polynomials import QPolynomial
from latfix.exactnum.rational import QMatrix
from latfix.exactnum.record import FrozenRecordError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (cyclicity, fixlattice, opcore, seqspace, core, simplex, polynomials)
RECORDS = tuple(
    dict.fromkeys(
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and "__record_fields__" in vars(cls)
        and cls.__module__ == module.__name__
    )
)


def _twin(cls: type) -> type:
    specs = []
    for name in cls.__record_fields__:
        spec = (name, cls.__annotations__[name])
        if name in vars(cls):
            spec += (dataclasses.field(default=vars(cls)[name]),)
        specs.append(spec)
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _as_twin(x):
    """The twin instance holding the same attribute values as x."""
    t = object.__new__(TWINS[type(x)])
    t.__dict__.update(x.__dict__)
    return t


def _init_kwargs(x) -> dict:
    return {name: getattr(x, name) for name in type(x).__record_fields__}


@pytest.fixture(scope="module")
def instances():
    """Every record instance the runs of the module docstring construct,
    and the module constants, by class."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    made = {cls: [] for cls in RECORDS}
    for module in MODULES:
        for value in vars(module).values():
            if type(value) in made:
                made[type(value)].append(value)

    def recording(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made[cls].append(self)

        return __init__

    with pytest.MonkeyPatch.context() as mp:
        for cls in RECORDS:
            mp.setattr(cls, "__init__", recording(cls))
        for case_id in gallery.GALLERY_IDS:
            gallery.run_gallery(case_id)
        for workload in ("fixspace", "cyclicity"):
            run, _ = workloads.OPERATIONS[workload]
            for data in workloads.make_pool(workload, 0):
                run(data)
        cyclicity.probe_random_contractions(4, seed=0)
        cyclicity.semigroup_imaginary_check(QMatrix([[-2, 1], [1, -2]]))
        polynomials.unit_circle_root_count(QPolynomial.from_ints((-1, 0, 0, 0, 1), 1))
    return {cls: objs for cls, objs in made.items() if objs}


def test_every_record_class_is_found():
    assert len(RECORDS) == 26
    assert all(not hasattr(cls, "__dataclass_fields__") for cls in RECORDS)


def test_the_runs_reach_every_record_class(instances):
    assert set(instances) == set(RECORDS)


def test_repr_and_hash_match_the_twin(instances):
    for objs in instances.values():
        for x in objs:
            t = _as_twin(x)
            assert repr(x) == repr(t)
            assert hash(x) == hash(t)


def test_equality_matches_the_twin(instances):
    for objs in instances.values():
        pairs = [(x, x) for x in objs] + list(zip(objs, objs[1:])) + [(objs[0], x) for x in objs]
        for x, y in pairs:
            tx, ty = _as_twin(x), _as_twin(y)
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)


def test_init_rebuilds_an_equal_instance(instances):
    for cls, objs in instances.items():
        for x in objs:
            kwargs = _init_kwargs(x)
            by_keyword = cls(**kwargs)
            by_position = cls(*kwargs.values())
            assert by_keyword == x and by_position == x and repr(by_keyword) == repr(x)
            assert TWINS[cls](**kwargs) == _as_twin(x)
            assert hash(by_keyword) == hash(x)


def test_subspace_pivots_are_set_on_construction_but_not_a_field(instances):
    assert "pivots" not in conegeom.Subspace.__record_fields__
    a = next(s for s in instances[conegeom.Subspace] if s.basis)
    b = conegeom.Subspace(**_init_kwargs(a))
    assert "pivots" in vars(b) and b.pivots == a.pivots
    object.__setattr__(b, "pivots", (-1,))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "pivots" not in repr(a)
    assert _as_twin(a) == _as_twin(b)
    with pytest.raises(TypeError):
        conegeom.Subspace(**_init_kwargs(a), pivots=a.pivots)
    with pytest.raises(TypeError):
        conegeom.Subspace(*_init_kwargs(a).values(), a.pivots)


def test_subspace_classification_is_a_per_object_cache(instances):
    subspaces = list({id(s): s for s in instances[conegeom.Subspace] if s.basis}.values())
    assert len(subspaces) >= 2
    assert "classification" not in conegeom.Subspace.__record_fields__
    assert len({id(s.classification) for s in subspaces}) == len(subspaces)
    a = subspaces[0]
    rebuilt = conegeom.Subspace(**_init_kwargs(a))
    assert "classification" in vars(a) and "classification" not in vars(rebuilt)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert repr(rebuilt) == repr(a) and "classification" not in repr(a)
    assert rebuilt.classification == a.classification
    assert rebuilt.classification is not a.classification


def test_missing_argument_is_a_type_error():
    with pytest.raises(TypeError):
        cyclicity.DimensionEstimate(1, 2)
    with pytest.raises(TypeError):
        TWINS[cyclicity.DimensionEstimate](1, 2)


def test_defaults_fill_trailing_fields():
    trace = fixlattice.TransfiniteTrace((), "Unbounded")
    twin = TWINS[fixlattice.TransfiniteTrace]((), "Unbounded")
    assert repr(trace) == repr(twin)
    assert (trace.fixed_point, trace.limit_steps, trace.evidence) == (None, None, ())


def test_assignment_and_deletion_raise(instances):
    x = instances[cyclicity.DimensionEstimate][0]
    with pytest.raises(AttributeError) as caught:
        x.order = x.order + 1
    assert isinstance(caught.value, FrozenRecordError)
    with pytest.raises(AttributeError):
        del x.order
    with pytest.raises(AttributeError):
        x.new_attribute = 1
    assert _as_twin(x) == TWINS[type(x)](**_init_kwargs(x))


def test_eq_against_another_class_is_not_implemented(instances):
    x = instances[cyclicity.DimensionEstimate][0]
    assert x.__eq__(_as_twin(x)) is NotImplemented
    assert x.__eq__(object()) is NotImplemented
    assert x != _as_twin(x)
    assert opcore.SUP_NORM.__eq__(x) is NotImplemented
