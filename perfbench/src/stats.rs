//! Order statistics over raw latency samples.

/// The median of `v` (mean of the two middle values when even), or
/// `None` when empty. `v` need not be sorted.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A tail percentile chosen by [`tail`].
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// `"p99.9"`, `"p99"` or `"p90"`.
    pub label: &'static str,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it (always at least [`MIN_BEYOND`]).
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.9, p99 and p90 that has at least [`MIN_BEYOND`]
/// samples beyond it, by nearest rank: the q-th percentile of `n`
/// samples is the `ceil(q·n)`-th smallest, leaving `n - ceil(q·n)`
/// beyond it. `None` when even p90 has fewer than ten beyond it
/// (fewer than 100 samples). Ranks use integer per-mille arithmetic so
/// the edges (n = 100, 1000, 10000) are exact.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for (permille, label) in [(999usize, "p99.9"), (990, "p99"), (900, "p90")] {
        let rank = (permille * n).div_ceil(1000);
        if rank == 0 {
            continue;
        }
        let beyond = n - rank;
        if beyond >= MIN_BEYOND {
            return Some(Tail {
                label,
                value: s[rank - 1],
                beyond,
                samples: n,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so `tail` must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(10)), None);
        // 99 samples: p90 is the 90th, with only 9 beyond it.
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn p90_from_exactly_100_samples() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.label, t.value, t.beyond, t.samples),
            ("p90", 90.0, 10, 100)
        );
    }

    #[test]
    fn p99_needs_1000_samples() {
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p90", 900.0, 99));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
    }

    #[test]
    fn p999_needs_10000_samples() {
        let t = tail(&ramp(9999)).unwrap();
        assert_eq!((t.label, t.beyond), ("p99", 99));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p99.9", 9990.0, 10));
        let t = tail(&ramp(20_000)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p99.9", 19980.0, 20));
    }

    #[test]
    fn ties_count_as_samples() {
        let t = tail(&vec![5.0; 100]).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p90", 5.0, 10));
    }
}
