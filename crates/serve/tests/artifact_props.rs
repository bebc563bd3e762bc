//! Seeded properties of the `gmr-model/v1` reader: whatever the bytes, a
//! load ends in `Ok` or an [`ArtifactError`], never a panic; a written
//! artifact reads back equal; and the JSON parser underneath survives
//! arbitrary text.

use gmr_serve::artifact::{ArtifactError, ModelArtifact, Provenance};
use proptest::prelude::*;

/// Parse `text` as an artifact and, when that succeeds, its equations —
/// the whole load path both artifact readers share. Returns whether the
/// load got through; panicking is the failure this suite looks for.
fn load(text: &str) -> bool {
    match ModelArtifact::from_json(text) {
        Ok(a) => a.parse_equations().is_ok(),
        Err(_) => false,
    }
}

/// The builtin artifact's JSON, the seed every mutation starts from.
fn builtin_json() -> String {
    ModelArtifact::builtin_manual().to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_builtin_loads_or_errs(cut in 0.0_f64..1.0) {
        let text = builtin_json();
        let mut at = (text.len() as f64 * cut) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        // No prefix that stops short of the closing brace is complete JSON.
        prop_assert!(at >= text.trim_end().len() || !load(&text[..at]));
    }

    #[test]
    fn byte_flipped_builtin_loads_or_errs(
        flips in prop::collection::vec((0.0_f64..1.0, any::<u8>()), 1..6),
    ) {
        let mut bytes = builtin_json().into_bytes();
        for (pos, byte) in flips {
            let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
            bytes[at] = byte;
        }
        load(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn bare_names_parse_exactly_when_they_have_a_prior(
        extra in 0usize..4,
        terms in prop::collection::vec((0usize..21, any::<bool>()), 1..6),
    ) {
        // The river's 17 parameters plus `extra` more the priors do not
        // cover; each term names one parameter, bare or with `[value]`.
        let mut a = ModelArtifact::builtin_manual();
        for k in 0..extra {
            a.params.push(format!("CX{k}"));
        }
        let mut text = a.equations[0].clone();
        let mut expect_ok = true;
        for (kind, bare) in terms {
            let kind = kind % a.params.len();
            let name = &a.params[kind];
            if bare {
                text.push_str(&format!(" + {name}"));
                expect_ok &= kind < gmr_bio::params::PARAMS.len();
            } else {
                text.push_str(&format!(" + {name}[0.25]"));
            }
        }
        a.equations[0] = text;
        let reread = ModelArtifact::from_json(&a.to_json()).expect("written artifact reads back");
        match reread.parse_equations() {
            Ok(_) => prop_assert!(expect_ok, "a bare name past the priors parsed"),
            Err(ArtifactError::Equation { index: 0, .. }) => {
                prop_assert!(!expect_ok, "a covered name was refused")
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn to_json_from_json_round_trips(
        name in "[a-z0-9 \"\\\\/\t-]{1,16}",
        source in "[a-zA-Z\"\\\\µ→]{0,10}",
        seed in any::<u64>(),
        generation in any::<u64>(),
        fitness in any::<f64>(),
        train_rmse in prop_oneof![Just(None), any::<f64>().prop_map(Some)],
        test_rmse in prop_oneof![Just(None), any::<f64>().prop_map(Some)],
        journal in prop_oneof![Just(None), "[0-9a-f]{16}".prop_map(|h| Some(format!("fnv1a:{h}")))],
        network in any::<bool>(),
    ) {
        let mut a = ModelArtifact::builtin_manual();
        a.name = name;
        a.provenance = Provenance {
            source,
            seed,
            generation,
            fitness,
            train_rmse,
            test_rmse,
            journal_hash: journal,
        };
        if !network {
            a.topology = None;
        }
        let back = ModelArtifact::from_json(&a.to_json()).expect("written artifact reads back");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn arbitrary_text_through_gmr_json_never_panics(
        text in "[\\[\\]{}\":,0-9a-zA-Z.eE+ \\\\µ-]{0,96}",
    ) {
        let _ = gmr_json::parse(&text);
    }

    #[test]
    fn arbitrary_printable_text_through_gmr_json_never_panics(text in ".{0,96}") {
        let _ = gmr_json::parse(&text);
    }
}
