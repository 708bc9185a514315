import json
from fractions import Fraction

import pytest

import simact.serialize as ser
from simact.equivalence import GraphWitness, PairWitness
from simact.measure import Adaptation, StepMeasure
from simact.sampling import markov_table, random_action, random_good_measure, trial_rng
from simact.sim import CylinderTable, Partition, Window
from simact.transform import DyadicSet, IntervalPermutation

F = Fraction


def test_measure_round_trip():
    mu = StepMeasure((F(0), F(1, 3)), (F(1, 2), F(7, 8)), ((F(1, 2), F(1, 4)),))
    assert ser.load_measure(ser.dump_measure(mu)) == mu
    for trial in range(5):
        nu = random_good_measure(trial_rng(0, trial))
        assert ser.load_measure(ser.dump_measure(nu)) == nu


def test_measure_dump_refuses_polynomial_pieces():
    from simact.measure import convolve, uniform_on

    smooth = convolve(uniform_on(0, F(1, 2)), uniform_on(0, F(1, 2)))
    with pytest.raises(ValueError):
        ser.dump_measure(smooth)


def test_adaptation_round_trip():
    h = Adaptation(((F(0), F(0)), (F(1, 3), F(1, 4)), (F(2, 3), F(5, 6))))
    assert ser.load_adaptation(ser.dump_adaptation(h)) == h


def test_permutation_and_dyadic_round_trip():
    t = IntervalPermutation(4, (2, 0, 3, 1))
    assert ser.load_permutation(ser.dump_permutation(t)) == t
    s = DyadicSet(3, 0b10110001)
    assert ser.load_dyadic(ser.dump_dyadic(s)) == s
    # mask character i covers cell i
    assert ser.dump_dyadic(DyadicSet.from_indices(2, [0, 3]))["mask"] == "1001"


def test_action_round_trip():
    act = random_action(trial_rng(1, 0), d=2, n=6)
    assert ser.load_action(ser.dump_action(act)) == act


def test_table_round_trip():
    t = markov_table(trial_rng(2, 0), p=3, w=2)
    assert ser.load_table(ser.dump_table(t)) == t


def test_dumps_are_json_safe():
    objs = [
        ser.dump_measure(random_good_measure(trial_rng(3, 0))),
        ser.dump_action(random_action(trial_rng(3, 1), d=1, n=8)),
        ser.dump_table(markov_table(trial_rng(3, 2), p=2, w=2)),
        ser.dump_witness(GraphWitness((PairWitness((0,), (1,), (1, 0), F(1, 8)),))),
    ]
    for obj in objs:
        assert json.loads(json.dumps(obj)) == obj


@pytest.mark.parametrize(
    "loader,broken",
    [
        (ser.load_measure, {}),
        (ser.load_measure, {"pieces": [{"from": "0"}]}),
        (ser.load_measure, {"pieces": [{"from": "0", "density": "0.5"}]}),
        (ser.load_adaptation, {"knots": [["0", "0"], ["1/2"]]}),
        (ser.load_adaptation, {"knots": "nope"}),
        (ser.load_permutation, {"n": 2, "perm": [0, "1"]}),
        (ser.load_permutation, {"n": 3, "perm": [0, 1]}),
        (ser.load_dyadic, {"level": 2, "mask": "101"}),
        (ser.load_dyadic, {"level": 1, "mask": "2x"}),
        (ser.load_action, {"d": 2, "n": 2, "generators": [[0, 1]]}),
        (ser.load_action, {"d": 1, "n": 2, "generators": [[0, 1, 2]]}),
        (ser.load_table, {"d": 1, "w": 2, "cuts": ["0"], "masses": {"0": "1"}}),
        (ser.load_table, {"d": 1, "w": 1, "cuts": ["0"], "masses": {"a": "1"}}),
    ],
)
def test_loaders_reject_malformed_input(loader, broken):
    with pytest.raises(ValueError):
        loader(broken)


# JSON true and false load as Python bools, which are ints
@pytest.mark.parametrize(
    "loader,doc,message",
    [
        (ser.load_permutation, {"n": True, "perm": [0]}, "permutation: field 'n' has the wrong type"),
        (ser.load_permutation, {"n": 2, "perm": [True, False]}, "permutation: perm entries must be integers"),
        (ser.load_dyadic, {"level": True, "mask": "01"}, "dyadic set: field 'level' has the wrong type"),
        (ser.load_action, {"d": True, "n": 2, "generators": [[1, 0]]}, "action: field 'd' has the wrong type"),
        (ser.load_action, {"d": 1, "n": True, "generators": [[0]]}, "action: field 'n' has the wrong type"),
        (ser.load_action, {"d": 1, "n": 2, "generators": [[True, False]]}, "action generator 0: expected a list of integers"),
        (ser.load_table, {"d": True, "w": 2, "cuts": ["0"], "masses": {"0,0": "1"}}, "table: field 'd' has the wrong type"),
        (ser.load_table, {"d": 1, "w": True, "cuts": ["0"], "masses": {"0": "1"}}, "table: field 'w' has the wrong type"),
    ],
)
def test_loaders_refuse_booleans_as_integers(loader, doc, message):
    with pytest.raises(ValueError) as e:
        loader(doc)
    assert str(e.value) == message


def test_read_json_file_wraps_decode_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        ser.read_json_file(str(bad))
    good = tmp_path / "good.json"
    good.write_text('{"x": 1}', encoding="utf-8")
    assert ser.read_json_file(str(good)) == {"x": 1}
