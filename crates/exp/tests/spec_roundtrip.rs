//! Property test: the spec JSON grammar round-trips exactly, and the
//! parser rejects every name the executor could not resolve.
//!
//! Seeded randomness only — a failure reproduces from the printed case
//! index.

use csd_exp::{victim_names, ExperimentSpec, Leg, LegMode, DEFAULT_WATCHDOG};
use csd_telemetry::{Json, SplitMix64, ToJson};

/// Draws a random but always-valid spec: every field and leg shape the
/// grammar can express, over the real victim/pipeline/policy grids.
fn random_spec(rng: &mut SplitMix64) -> ExperimentSpec {
    let victims = victim_names();
    let pipelines = ["opt", "noopt"];
    let policies = ["always-on", "conventional", "csd-devec"];
    let n_legs = rng.range_u64(1, 5) as usize;
    let legs = (0..n_legs)
        .map(|_| {
            let mode = match rng.range_u64(0, 3) {
                0 => LegMode::Base,
                1 => LegMode::Stealth {
                    watchdog: rng.range_u64(1, 100_000),
                },
                _ => LegMode::Devec {
                    policy: policies[rng.range_usize(0, policies.len())].to_string(),
                },
            };
            Leg {
                mode,
                blocks: rng.next_bool().then(|| rng.range_u64(1, 10_000) as usize),
            }
        })
        .collect();
    ExperimentSpec {
        victim: victims[rng.range_usize(0, victims.len())].to_string(),
        pipeline: pipelines[rng.range_usize(0, pipelines.len())].to_string(),
        seed: rng.next_u64(),
        blocks: rng.range_u64(1, 10_000) as usize,
        cold: rng.next_bool(),
        legs,
    }
}

#[test]
fn the_generator_draws_every_field_and_leg_shape() {
    // `range_u64` is half-open: an inclusive bound silently drops the
    // last choice. Every value the grammar can express must show up.
    let mut rng = SplitMix64::new(0x5EED_5EED);
    let specs: Vec<ExperimentSpec> = (0..500).map(|_| random_spec(&mut rng)).collect();
    let legs = || specs.iter().flat_map(|s| &s.legs);
    for victim in victim_names() {
        assert!(specs.iter().any(|s| s.victim == victim), "victim {victim}");
    }
    for pipeline in ["opt", "noopt"] {
        assert!(specs.iter().any(|s| s.pipeline == pipeline), "{pipeline}");
    }
    assert!(specs.iter().any(|s| s.cold) && specs.iter().any(|s| !s.cold));
    for tag in ["base", "stealth", "devec"] {
        assert!(legs().any(|l| l.mode.tag() == tag), "leg mode {tag}");
    }
    for policy in ["always-on", "conventional", "csd-devec"] {
        assert!(
            legs().any(|l| l.mode
                == LegMode::Devec {
                    policy: policy.to_string()
                }),
            "policy {policy}"
        );
    }
    assert!(legs().any(|l| l.blocks.is_some()) && legs().any(|l| l.blocks.is_none()));
}

#[test]
fn spec_json_round_trips_over_random_specs() {
    let mut rng = SplitMix64::new(0x5EED_5EED);
    for case in 0..500 {
        let spec = random_spec(&mut rng);
        let doc = spec.to_json();
        // Through the renderer too, not just the tree: the wire carries
        // text, so the text must round-trip as well.
        let reparsed = Json::parse(&doc.pretty()).unwrap_or_else(|e| {
            panic!("case {case}: rendered spec does not re-parse: {e}\n{spec:?}")
        });
        let back = ExperimentSpec::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("case {case}: round-trip rejected: {e}\n{spec:?}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(
            back.to_json().pretty(),
            doc.pretty(),
            "case {case}: re-serialization is not a fixpoint"
        );
    }
}

#[test]
fn legacy_flat_shape_still_parses() {
    let flat = Json::parse(
        "{\"victim\": \"aes-enc\", \"stealth\": true, \"watchdog\": 2000, \
         \"blocks\": 2, \"seed\": 7}",
    )
    .unwrap();
    let spec = ExperimentSpec::from_json(&flat).expect("legacy shape parses");
    assert_eq!(spec.pipeline, "opt", "pipeline defaults to opt");
    assert_eq!(
        spec.legs,
        vec![Leg::new(LegMode::Stealth { watchdog: 2000 })]
    );

    let base = Json::parse("{\"victim\": \"aes-enc\"}").unwrap();
    let spec = ExperimentSpec::from_json(&base).expect("minimal shape parses");
    assert_eq!(spec.legs, vec![Leg::new(LegMode::Base)]);
    assert_eq!(spec.blocks, 4, "blocks defaults to 4");
    assert!(!spec.cold);

    let implicit = Json::parse("{\"victim\": \"rsa-enc\", \"stealth\": true}").unwrap();
    let spec = ExperimentSpec::from_json(&implicit).expect("stealth without watchdog parses");
    assert_eq!(
        spec.legs,
        vec![Leg::new(LegMode::Stealth {
            watchdog: DEFAULT_WATCHDOG
        })]
    );
}

#[test]
fn parser_rejects_what_the_executor_cannot_run() {
    let cases = [
        ("{\"victim\": \"no-such-victim\"}", "victim"),
        (
            "{\"victim\": \"aes-enc\", \"pipeline\": \"turbo\"}",
            "pipeline",
        ),
        ("{\"victim\": \"aes-enc\", \"blocks\": 0}", "blocks"),
        ("{\"victim\": \"aes-enc\", \"blocks\": 99999}", "blocks"),
        ("{\"victim\": \"aes-enc\", \"legs\": []}", "legs"),
        (
            "{\"victim\": \"aes-enc\", \"legs\": [{\"mode\": \"warp\"}]}",
            "mode",
        ),
        (
            "{\"victim\": \"aes-enc\", \"legs\": [{\"mode\": \"devec\"}]}",
            "policy",
        ),
        (
            "{\"victim\": \"aes-enc\", \"legs\": [{\"mode\": \"devec\", \"policy\": \"off\"}]}",
            "policy",
        ),
        (
            "{\"victim\": \"aes-enc\", \"legs\": [{\"mode\": \"base\", \"blocks\": 0}]}",
            "blocks",
        ),
        ("{\"seed\": 1}", "victim"),
    ];
    for (body, needle) in cases {
        let doc = Json::parse(body).unwrap();
        let err = ExperimentSpec::from_json(&doc).expect_err(&format!("{body} must be rejected"));
        assert!(
            err.contains(needle),
            "error for {body} should mention {needle:?}, got: {err}"
        );
    }
}
