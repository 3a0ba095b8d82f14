//! Acceptance: the fuzz driver, pointed at a deliberately injected
//! off-by-one, finds the violation and shrinks it to ≤ 8 requests.

use eirene_check::{FaultSpec, Fuzz, Leg, Outcome, TreeKind, Violation};

#[test]
fn harness_finds_and_shrinks_injected_off_by_one() {
    let fuzz = Fuzz {
        seed: 7,
        cases: 50,
        batch_size: 128,
        domain: 1024,
        initial_keys: 1024,
        trees: vec![TreeKind::Eirene],
        deterministic: false,
        fault: Some(FaultSpec {
            key_mod: 64,
            residue: 7,
        }),
        ..Fuzz::new(Leg::Tree)
    };
    let failure = match fuzz.run() {
        Outcome::Failed(f) => f,
        Outcome::Passed { cases, .. } => {
            panic!("fuzzer missed the injected off-by-one across {cases} cases")
        }
    };
    let shrunk = failure.shrunk.as_ref().expect("tree cases shrink");
    assert!(
        shrunk.len() <= 8,
        "reproducer not minimal: {} requests\n{failure}",
        shrunk.len()
    );
    match &failure.violation {
        Violation::Response { request, .. } => {
            assert_eq!(
                request.key % 64,
                7,
                "shrunk violation should isolate a faulted key\n{failure}"
            );
        }
        other => panic!("expected a response violation, got {other:?}"),
    }
    // The report must carry everything needed to replay the case.
    let report = failure.to_string();
    assert!(report.contains("batch seed"));
    assert!(report.contains("minimal reproducer"));
    assert!(report.contains("replay"));
}

#[test]
fn harness_also_fires_under_deterministic_scheduling() {
    let fuzz = Fuzz {
        seed: 11,
        cases: 20,
        batch_size: 96,
        domain: 512,
        initial_keys: 512,
        trees: vec![TreeKind::EireneCombining],
        deterministic: true,
        fault: Some(FaultSpec {
            key_mod: 32,
            residue: 3,
        }),
        ..Fuzz::new(Leg::Tree)
    };
    match fuzz.run() {
        Outcome::Failed(f) => {
            assert!(f.deterministic, "deterministic runs report it");
            assert!(
                f.shrunk.as_ref().is_some_and(|s| s.len() <= 8),
                "reproducer not minimal:\n{f}"
            );
        }
        Outcome::Passed { cases, .. } => {
            panic!("fuzzer missed the injected fault across {cases} cases")
        }
    }
}
