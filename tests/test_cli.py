import json

import pytest

import rdmlab as rl
from rdmlab.cli import main
from rdmlab.serialize import format_distribution, mdp_from_json, parse_distribution, parse_policy


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
