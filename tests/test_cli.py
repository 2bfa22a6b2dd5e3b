import json

import numpy as np
import pytest

import rdmlab as rl
from rdmlab import bench
from rdmlab.cli import main
from rdmlab.serialize import (
    format_distribution,
    format_policy,
    mdp_from_json,
    parse_distribution,
    parse_policy,
)


def test_fixtures_subcommand_passes(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "PASS overall" in out


def test_gen_instance_writes_loadable_mdp(tmp_path, capsys):
    out = tmp_path / "mdp.json"
    expert_out = tmp_path / "expert.txt"
    code = main([
        "gen-instance", "--seed", "3", "--states", "3", "--actions", "2",
        "--horizon", "4", "--out", str(out), "--expert-out", str(expert_out),
    ])
    assert code == 0
    mdp = mdp_from_json(out.read_text())
    assert rl.validate_mdp(mdp) == []
    policy = parse_policy(expert_out.read_text())
    assert isinstance(policy, rl.MarkovianPolicy)


def test_eval_policy_prints_distribution(tmp_path, capsys):
    mdp_path = tmp_path / "mdp.json"
    pol_path = tmp_path / "expert.txt"
    main(["gen-instance", "--seed", "5", "--rho", "0.5", "--out", str(mdp_path),
          "--expert-out", str(pol_path)])
    capsys.readouterr()
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", "0.5"]) == 0
    out = capsys.readouterr().out
    dist = parse_distribution(out)
    assert dist.probs.sum() == pytest.approx(1.0)

    reference = tmp_path / "ref.txt"
    reference.write_text(format_distribution(dist))
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", "0.5", "--against", str(reference)]) == 0
    out = capsys.readouterr().out
    assert "wasserstein 0" in out


def test_eval_policy_needs_grid_for_markovian(tmp_path, capsys):
    mdp_path = tmp_path / "mdp.json"
    pol_path = tmp_path / "expert.txt"
    main(["gen-instance", "--seed", "5", "--out", str(mdp_path),
          "--expert-out", str(pol_path)])
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path)]) == 2


def _bad_rows(doc):
    doc["transitions"][0][0][0] = [1.5, -0.5]
    return "transitions[h=0,s=0,a=0,s'=1] is negative"


def _big_rewards(doc):
    doc["reward"] = [[[7.0] * 2] * 2] * 5
    return "reward[h=0,s=0,a=0] = 7.0 outside [0, 1]"


def _wrong_key(doc):
    doc["num_states"] = 3
    return "num_states is 3, the arrays give 2"


def _no_horizon(doc):
    del doc["horizon"]
    return "horizon is missing"


def _sixty_faults(doc):
    # 20 negative entries, 20 rows summing to 1.25 and 20 rewards out of
    # range: the message lists the first 20 and counts the rest
    doc["transitions"] = [[[[1.5, -0.25]] * 2] * 2] * 5
    doc["reward"] = [[[7.0] * 2] * 2] * 5
    return "; 40 more"


@pytest.mark.parametrize(
    "corrupt", [_bad_rows, _big_rewards, _wrong_key, _no_horizon, _sixty_faults]
)
def test_eval_policy_refuses_invalid_mdp_document(tmp_path, capsys, corrupt):
    # each document was once evaluated, printing a distribution and exiting 0
    mdp_path = tmp_path / "mdp.json"
    pol_path = tmp_path / "expert.txt"
    main(["gen-instance", "--seed", "5", "--rho", "0.5", "--out", str(mdp_path),
          "--expert-out", str(pol_path)])
    doc = json.loads(mdp_path.read_text())
    fault = corrupt(doc)
    mdp_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid MDP document: ")
    assert fault in captured.err


@pytest.mark.parametrize("policy_doc, fault", [
    ("just some text\n", "not a policy document"),
    (None, "policy states and actions (3, 2) do not match the MDP's (2, 2)"),
    ("rdmlab-policy\n", "policy document names no kind after 'rdmlab-policy'"),
    ("rdmlab-policy markovian\n",
     "policy document has no header line (horizon states actions)"),
    ("rdmlab-policy markovian\nhorizon 2 states 2\npolicy\n",
     "policy header has no actions"),
    ("rdmlab-policy markovian\nhorizon 2 states 2 actions 2\n0 0 0.5 0.5\n",
     "policy document has no 'policy' line"),
], ids=["not-a-policy", "other-states", "no-kind", "no-header", "no-actions", "no-policy-line"])
def test_eval_policy_refuses_invalid_policy_document(tmp_path, capsys, policy_doc, fault):
    # each once ended in a traceback (ValueError, IndexError or KeyError) and
    # exit 1, or in a message that did not name what was missing
    mdp_path = tmp_path / "mdp.json"
    pol_path = tmp_path / "expert.txt"
    main(["gen-instance", "--seed", "5", "--rho", "0.5", "--out", str(mdp_path)])
    if policy_doc is None:  # a 3-state policy, for the 2-state MDP
        wide = tmp_path / "wide.json"
        main(["gen-instance", "--seed", "5", "--states", "3", "--rho", "0.5",
              "--out", str(wide), "--expert-out", str(pol_path)])
    else:
        pol_path.write_text(policy_doc)
    capsys.readouterr()
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == fault + "\n"


def test_run_subcommand_writes_csv(tmp_path, capsys):
    cfg = {
        "num_states": 2, "num_actions": 2, "horizon": 3,
        "theta": 0.5, "rho": 0.5, "expert_kind": "markovian",
        "n_sweep": [10, 30], "instances": 2, "seeds_per_dataset": 1,
        "eval_mode": "exact-dp", "algorithms": ["bc"], "master_seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "results.csv"
    assert main(["run", "--config", str(cfg_path), "--output", str(out_path)]) == 0
    rows = rl.read_results(out_path)
    assert [r["N"] for r in rows] == [10, 30]


def test_run_without_output_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "num_states": 2, "num_actions": 2, "horizon": 2,
        "theta": 1.0, "rho": 1.0, "expert_kind": "markovian",
        "n_sweep": [5], "instances": 1, "seeds_per_dataset": 1,
        "eval_mode": "exact-dp", "algorithms": ["bc"],
    }))
    assert main(["run", "--config", str(cfg_path)]) == 2


_GOOD_RUN_CFG = {
    "num_states": 2, "num_actions": 2, "horizon": 2,
    "theta": 1.0, "rho": 1.0, "expert_kind": "markovian",
    "n_sweep": [5], "instances": 1, "seeds_per_dataset": 1,
    "eval_mode": "exact-dp", "algorithms": ["bc"],
}


@pytest.mark.parametrize("text, fault", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    (json.dumps({**_GOOD_RUN_CFG, "colour": "red"}), "unexpected keyword argument 'colour'"),
    (json.dumps({**_GOOD_RUN_CFG, "rho": 2.0}), "theta and rho must lie in (0, 1]"),
    (json.dumps({**_GOOD_RUN_CFG, "instances": 2.5}),
     "instances must be a positive whole number, got 2.5"),
], ids=["missing-file", "malformed-json", "unknown-key", "bad-rho", "fractional-instances"])
def test_run_refuses_a_bad_config(tmp_path, capsys, text, fault):
    # each once ended in a traceback and exit 1
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "o.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid config {cfg_path}: ")
    assert fault in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("flags, fault", [
    (["--rho", "0"], "theta and rho must lie in (0, 1]"),
    (["--states", "0"], "num_states must be a positive whole number, got 0"),
], ids=["zero-rho", "zero-states"])
def test_gen_instance_refuses_a_bad_shape(tmp_path, capsys, flags, fault):
    out = tmp_path / "mdp.json"
    assert main(["gen-instance", "--seed", "1", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == fault + "\n"
    assert not out.exists()


def test_gen_instance_refuses_a_negative_seed(tmp_path, capsys):
    # once numpy's "expected non-negative integer" traceback and exit 1
    out = tmp_path / "mdp.json"
    assert main(["gen-instance", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


def test_gen_instance_refuses_to_save_a_parametric_expert(tmp_path, capsys):
    out, expert_out = tmp_path / "mdp.json", tmp_path / "expert.txt"
    assert main(["gen-instance", "--seed", "1", "--expert", "parametric-history",
                 "--out", str(out), "--expert-out", str(expert_out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "only markovian experts can be serialized\n"
    assert not out.exists() and not expert_out.exists()


@pytest.fixture
def stored_instance(tmp_path, capsys):
    """An MDP document on the 0.5 grid and its Markovian expert's document."""
    mdp_path, pol_path = tmp_path / "mdp.json", tmp_path / "expert.txt"
    assert main(["gen-instance", "--seed", "5", "--rho", "0.5", "--out", str(mdp_path),
                 "--expert-out", str(pol_path)]) == 0
    capsys.readouterr()
    return mdp_path, pol_path


@pytest.mark.parametrize("missing", ["--mdp", "--policy", "--against"])
def test_eval_policy_refuses_a_missing_file(stored_instance, tmp_path, capsys, missing):
    # each once ended in a FileNotFoundError traceback and exit 1
    mdp_path, pol_path = stored_instance
    reference = tmp_path / "ref.txt"
    reference.write_text("1.0 1.0\n")
    paths = {"--mdp": mdp_path, "--policy": pol_path, "--against": reference}
    paths[missing] = tmp_path / "absent.txt"
    argv = ["eval-policy", "--grid-step", "0.5"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err and "absent.txt" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("dump, fault", [
    ("0.5 0.6\n", "probabilities sum to 0.6, expected 1"),
    ("0.5\n", "not enough values to unpack"),
    ("one 1.0\n", "could not convert string to float: 'one'"),
    ("\n", "support and probs must be matching nonempty 1-D arrays"),
], ids=["short-mass", "one-column", "not-a-number", "empty"])
def test_eval_policy_refuses_a_malformed_reference(stored_instance, tmp_path, capsys, dump, fault):
    # the first once ended in a "probabilities sum to 0.6" traceback and exit 1
    mdp_path, pol_path = stored_instance
    reference = tmp_path / "ref.txt"
    reference.write_text(dump)
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", "0.5", "--against", str(reference)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid distribution dump: ")
    assert fault in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("step", ["0", "2", "-1"])
def test_eval_policy_refuses_a_bad_grid_step(stored_instance, capsys, step):
    # each once ended in a RewardGrid traceback and exit 1
    mdp_path, pol_path = stored_instance
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path),
                 "--grid-step", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"theta must lie in (0, 1], got {float(step)}\n"


def test_eval_policy_reads_a_reward_augmented_policy_on_its_own_grid(stored_instance, capsys):
    mdp_path, pol_path = stored_instance
    mdp = mdp_from_json(mdp_path.read_text())
    reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.5, mdp.horizon))
    policy = rl.random_reward_augmented_policy(reward, np.random.default_rng(3))
    pol_path.write_text(format_policy(policy))
    stored = parse_policy(pol_path.read_text())
    assert main(["eval-policy", "--mdp", str(mdp_path), "--policy", str(pol_path)]) == 0
    want = rl.exact_return_distribution(mdp, stored, mdp.reward, stored.grid)
    assert capsys.readouterr().out == format_distribution(want)


def test_run_dumps_the_largest_n_distributions(tmp_path, capsys):
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "results.csv"
    cfg_path.write_text(json.dumps({**_GOOD_RUN_CFG, "n_sweep": [5, 20],
                                    "algorithms": ["rs-bc", "bc"], "master_seed": 4}))
    assert main(["run", "--config", str(cfg_path), "--output", str(out_path),
                 "--dump-distributions"]) == 0
    want = bench.collect_example_distributions(bench.load_config(cfg_path), 20)
    assert set(want) == {"expert", "estimate", "rs-bc", "bc"}
    out = capsys.readouterr().out
    for name, dist in want.items():
        dump = tmp_path / f"results.{name}.txt"
        assert dump.read_text() == format_distribution(dist)
        assert f"wrote {dump}" in out


@pytest.mark.parametrize("command", [
    ["run", "--config", "{cfg}", "--output", "{tmp}/nodir/o.csv"],
    ["run", "--config", "{cfg}", "--output", "{tmp}/nodir/o.csv", "--dump-distributions"],
    ["gen-instance", "--seed", "1", "--out", "{tmp}/nodir/m.json"],
    ["gen-instance", "--seed", "1", "--out", "{tmp}/m.json", "--expert-out", "{tmp}/nodir/e.txt"],
], ids=["run", "run-dump", "gen-instance", "gen-instance-expert"])
def test_an_output_in_a_missing_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    # each once did all its work (a whole experiment, or wrote m.json) and
    # then ended in a FileNotFoundError traceback and exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_GOOD_RUN_CFG))
    for name in ("run_experiment", "generate_instance"):
        monkeypatch.setattr(bench, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    argv = [arg.format(cfg=cfg_path, tmp=tmp_path) for arg in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output directory {tmp_path / 'nodir'} does not exist\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
