//! The flag table is the only place a setting is spelled: every leg's
//! command line parses back into the settings that printed it, and each
//! leg at its default `--seed` still runs the cases it ran before the
//! four fuzzers became one driver (seeds pinned from that code).

use eirene_check::{CaseKind, FaultSpec, Fuzz, Leg, Profile, TreeKind};

fn round_trips(fuzz: Fuzz) {
    let line = fuzz.command();
    let args: Vec<String> = line.split(' ').skip(2).map(String::from).collect();
    assert_eq!(Fuzz::parse(&args), Ok(fuzz), "{line}");
}

/// Every flag-settable field of the leg off its default.
fn off_default(leg: Leg) -> Fuzz {
    let d = Fuzz::new(leg);
    Fuzz {
        seed: 17,
        cases: d.cases + 1,
        batch_size: d.batch_size + 1,
        domain: d.domain + 1,
        initial_keys: d.initial_keys + 1,
        deterministic: !d.deterministic,
        repro: Some(0xDEAD_BEEF),
        ..d
    }
}

#[test]
fn tree_replay_line_round_trips() {
    round_trips(Fuzz {
        trees: vec![TreeKind::Stm, TreeKind::EireneCombining],
        fault: Some(FaultSpec::default()),
        ..off_default(Leg::Tree)
    });
}

#[test]
fn serve_replay_line_round_trips() {
    let fuzz = Fuzz {
        shards: 3,
        epoch_limit: 20,
        submitters: 4,
        tenants: 4,
        hash: true,
        ..off_default(Leg::Serve)
    };
    assert!(fuzz.deterministic);
    let line = fuzz.command();
    for flag in ["--det", "--epoch-limit 20"] {
        assert!(line.contains(flag), "{line}");
    }
    round_trips(fuzz);
}

#[test]
fn churn_replay_line_round_trips() {
    let fuzz = Fuzz {
        rounds: 3,
        occupancy_factor: 9,
        serve_cases: 2,
        ..off_default(Leg::Churn)
    };
    let line = fuzz.command();
    for flag in ["--occupancy-factor 9", "--serve-cases 2"] {
        assert!(line.contains(flag), "{line}");
    }
    round_trips(fuzz);
}

#[test]
fn coalesce_replay_line_round_trips() {
    round_trips(off_default(Leg::Coalesce));
}

#[test]
fn aliases_and_defaults_parse_in_every_leg() {
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    for leg in Leg::ALL {
        let switch = leg.switch().map(|s| format!("{s} ")).unwrap_or_default();
        let a = Fuzz::parse(&args(&format!("{switch}--cases 5 --det"))).unwrap();
        let b = Fuzz::parse(&args(&format!("{switch}--batches 5 --deterministic"))).unwrap();
        assert_eq!(a, b);
        assert_eq!((a.leg, a.cases, a.deterministic), (leg, 5, true));
        assert_eq!(
            Fuzz::new(leg).command().split(' ').count(),
            2 + switch.len().min(1)
        );
    }
    let labels: Vec<&str> = TreeKind::FUZZED.iter().map(|t| t.token()).collect();
    assert!(Leg::Tree.usage().contains(&labels.join("|")));
}

fn first_three(leg: Leg) -> Vec<(u64, CaseKind)> {
    let cases = Fuzz::new(leg).cases();
    cases[..3].iter().map(|c| (c.seed, c.kind)).collect()
}

#[test]
fn default_seeds_run_the_same_cases() {
    use CaseKind::*;
    use Profile::Uniform;
    assert_eq!(
        first_three(Leg::Tree),
        [
            (0x5d4a0813de6a1b0a, Tree(TreeKind::Eirene, Some(Uniform))),
            (
                0x01e21228f184c555,
                Tree(TreeKind::EireneCombining, Some(Uniform))
            ),
            (0xc3f88bf9a6f170c5, Tree(TreeKind::Stm, None)),
        ]
    );
    assert_eq!(
        first_three(Leg::Serve),
        [
            (0x8ef09aef9398b089, Serve(Uniform)),
            (0x23434ad53517c2e2, Serve(Profile::Skewed)),
            (0x4f0b34a2f2a13018, Serve(Profile::Boundary)),
        ]
    );
    assert_eq!(
        first_three(Leg::Churn),
        [
            (0x725172a5ca87f018, Churn),
            (0x6606d627be9d33f1, Churn),
            (0x2309230b6861c36f, Churn),
        ]
    );
    let serve_cases: Vec<u64> = Fuzz::new(Leg::Churn).cases()[500..503]
        .iter()
        .map(|c| c.seed)
        .collect();
    assert_eq!(
        serve_cases,
        [0xd2f7a634cfa75076, 0x841756dd0fbe316a, 0xbf7c9c998ac14c83]
    );
    assert_eq!(
        first_three(Leg::Coalesce),
        [
            (0x92c71891cb2014e6, Coalesce),
            (0x6b45ed9e79eaae1f, Coalesce),
            (0xca330e2930098dee, Coalesce),
        ]
    );
}
