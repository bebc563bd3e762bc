//! Answer checks. Every operation's answer is compared bit-for-bit with
//! an in-process reference; a mismatch counts the operation as failed.

use gmr_scenario::SweepSummary;

/// The champion of a GMR search is consistent: re-scoring its genotype
/// with `Gmr::score` reproduces the reported train and test RMSE exactly,
/// and it is no worse on the training split than the unrevised MANUAL
/// model it started from.
pub fn champion_ok(rescored: [f64; 2], reported: [f64; 2], manual_train_rmse: f64) -> bool {
    rescored[0].to_bits() == reported[0].to_bits()
        && rescored[1].to_bits() == reported[1].to_bits()
        && reported[0] <= manual_train_rmse
}

/// The numbers of the JSON array under `"key":`, parsed with the standard
/// library. Checks stay off the program's JSON parser so its cost is not
/// charged to the client side of a serve run.
fn number_array(body: &str, key: &str) -> Option<Vec<f64>> {
    let pat = format!("\"{key}\":");
    let rest = body[body.find(&pat)? + pat.len()..]
        .trim_start()
        .strip_prefix('[')?;
    let inner = rest[..rest.find(']')?].trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|t| t.trim().parse().ok()).collect()
}

/// The unsigned integer under `"key":`.
fn integer(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = body[body.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What a `/simulate` response must carry.
pub enum SimWant<'a> {
    /// Summary mode: the final `(bphy, bzoo)` pair.
    Final(f64, f64),
    /// Series mode: the whole pre-step trajectory.
    Series(&'a [f64], &'a [f64]),
}

/// Check a `/simulate` body against its reference; on success returns the
/// coalesced batch width the response reports.
pub fn simulate_ok(body: &[u8], want: &SimWant) -> Option<u64> {
    let body = std::str::from_utf8(body).ok()?;
    let ok = match want {
        SimWant::Final(p, z) => {
            number_array(body, "final").is_some_and(|f| same_bits(&f, &[*p, *z]))
        }
        SimWant::Series(p, z) => {
            number_array(body, "bphy").is_some_and(|f| same_bits(&f, p))
                && number_array(body, "bzoo").is_some_and(|f| same_bits(&f, z))
        }
    };
    if ok {
        integer(body, "batch")
    } else {
        None
    }
}

/// A `/sweep` body is byte-identical to `render_sweep` over the in-process
/// `run_sweep` reference, so every summary matches bit-for-bit.
pub fn sweep_ok(body: &[u8], want: &[u8]) -> bool {
    body == want
}

/// Bitwise equality of two sweep summaries.
pub fn summary_eq(a: &SweepSummary, b: &SweepSummary) -> bool {
    summary_bits(a) == summary_bits(b)
}

fn summary_bits(s: &SweepSummary) -> [u64; 7] {
    [
        s.variant as u64,
        s.peak_bphy.to_bits(),
        s.peak_day as u64,
        s.exceed_days as u64,
        s.mean_bphy.to_bits(),
        s.final_bphy.to_bits(),
        s.final_bzoo.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(variant: u32, peak: f64) -> SweepSummary {
        SweepSummary {
            variant,
            peak_bphy: peak,
            peak_day: 3,
            exceed_days: 1,
            mean_bphy: 2.5,
            final_bphy: 1.0 / 3.0,
            final_bzoo: 0.1,
        }
    }

    #[test]
    fn champion_check_rejects_perturbed_scores() {
        let (train, test, manual) = (0.75, 1.5, 9.0);
        assert!(champion_ok([train, test], [train, test], manual));
        let nudged = f64::from_bits(test.to_bits() + 1);
        assert!(!champion_ok([train, test], [train, nudged], manual));
        assert!(!champion_ok([train, test], [train, test], 0.5));
    }

    #[test]
    fn simulate_check_rejects_perturbed_answers() {
        let body = br#"{"model": "m", "batch": 2, "days": 3, "final": [1.25, 0.5], "mean_bphy": 1, "max_bphy": 2}"#;
        assert_eq!(simulate_ok(body, &SimWant::Final(1.25, 0.5)), Some(2));
        assert_eq!(simulate_ok(body, &SimWant::Final(1.25, 0.500000001)), None);
        assert_eq!(simulate_ok(b"not json", &SimWant::Final(1.25, 0.5)), None);
        let series = br#"{"model": "m", "batch": 1, "days": 2, "bphy": [8, 7.5], "bzoo": [1.2, 1.1], "mean_bphy": 9}"#;
        assert_eq!(
            simulate_ok(series, &SimWant::Series(&[8.0, 7.5], &[1.2, 1.1])),
            Some(1)
        );
        assert_eq!(
            simulate_ok(series, &SimWant::Series(&[8.0, 7.5], &[1.2, 1.0])),
            None
        );
        assert_eq!(simulate_ok(series, &SimWant::Series(&[8.0], &[1.2])), None);
    }

    #[test]
    fn sweep_check_rejects_perturbed_answers() {
        let want = br#"{"summaries": [{"variant": 0, "peak_bphy": 30}]}"#;
        assert!(sweep_ok(want, want));
        assert!(!sweep_ok(
            br#"{"summaries": [{"variant": 0, "peak_bphy": 31}]}"#,
            want
        ));
        assert!(!sweep_ok(&want[..want.len() - 1], want));
        let a = summary(1, 30.0);
        let mut b = a.clone();
        assert!(summary_eq(&a, &b));
        b.final_bzoo = f64::from_bits(b.final_bzoo.to_bits() + 1);
        assert!(!summary_eq(&a, &b));
    }
}
