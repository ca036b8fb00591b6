//! Order statistics and the regression rules `ddbench compare` applies.

/// Median (the mean of the two middle values for an even count); `0.0` for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (`0.0` when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The nearest-rank `p`-th percentile (`p` in percent).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A latency tail: the highest of p99.9, p99, p90 and p50 that has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile, in percent (`0.0`: too few samples for any).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// Picks the reportable tail of `values` (see [`Tail`]).
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    for pct in [99.9, 99.0, 90.0, 50.0] {
        if n as f64 * (1.0 - pct / 100.0) >= 10.0 - 1e-9 {
            return Tail {
                pct,
                value: percentile(values, pct),
                n,
            };
        }
    }
    Tail {
        pct: 0.0,
        value: 0.0,
        n,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"better"` field.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `true` when `b` is strictly better than `a`.
    pub fn beats(self, b: f64, a: f64) -> bool {
        match self {
            Better::Lower => b < a,
            Better::Higher => b > a,
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative: better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// Outcome of comparing a parent's runs (A) with a change's runs (B) on one
/// (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// medians cannot be told apart within it.
    Unresolved,
}

impl core::fmt::Display for Verdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The bound rule: B's median may be worse than A's by at most `bound` (a
/// share of A's median). When either side's interquartile spread exceeds
/// the bound the pair is unresolved — unless every run of B beats every run
/// of A, which no spread can explain away.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better.beats(y, x)));
    if relative_spread(a) > bound || relative_spread(b) > bound {
        return if all_better && !a.is_empty() && !b.is_empty() {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let w = better.worsening(median(a), median(b));
    if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The gain rule for a claimed improvement: pair the i-th run of A with the
/// i-th run of B (runs alternate, so pairs share conditions); B must win at
/// least nine tenths of the pairs (ties count for neither side) and its
/// median must beat A's by more than A's own interquartile range.
pub fn claim_holds(a: &[f64], b: &[f64], better: Better) -> bool {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return false;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| better.beats(y, x))
        .count();
    let (q1, q3) = quartiles(a);
    let (ma, mb) = (median(a), median(b));
    wins * 10 >= pairs * 9 && better.beats(mb, ma) && (mb - ma).abs() > q3 - q1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(10_000)).pct, 99.9);
        assert_eq!(tail(&v(9_999)).pct, 99.0);
        assert_eq!(tail(&v(1_000)).pct, 99.0);
        assert_eq!(tail(&v(999)).pct, 90.0);
        assert_eq!(tail(&v(100)).pct, 90.0);
        assert_eq!(tail(&v(100)).value, 90.0);
        assert_eq!(tail(&v(99)).pct, 50.0);
        assert_eq!(tail(&v(20)).pct, 50.0);
        let none = tail(&v(19));
        assert_eq!((none.pct, none.n), (0.0, 19));
    }

    #[test]
    fn verdict_applies_the_bound_in_the_right_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        let faster = [85.0, 86.0, 84.0, 85.0, 85.5];
        let same = [101.0, 100.0, 102.0, 100.0, 101.0];
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.10), Verdict::Improved);
        assert_eq!(verdict(&a, &same, Better::Lower, 0.10), Verdict::Unchanged);
        // For a throughput the same numbers read the other way round.
        assert_eq!(
            verdict(&a, &slower, Better::Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(verdict(&a, &faster, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [100.0, 60.0, 140.0, 100.0, 100.0];
        let b = [101.0, 99.0, 100.0, 100.0, 100.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        let all_faster = [50.0, 55.0, 52.0, 51.0, 53.0];
        assert_eq!(
            verdict(&a, &all_faster, Better::Lower, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn claim_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        assert!(claim_holds(&a, &b, Better::Lower));
        // One lost pair of ten still holds; two do not.
        let mut one_loss = b.clone();
        one_loss[3] = 200.0;
        assert!(claim_holds(&a, &one_loss, Better::Lower));
        let mut two_losses = one_loss.clone();
        two_losses[7] = 200.0;
        assert!(!claim_holds(&a, &two_losses, Better::Lower));
        // Every pair won, but by less than the parent's own IQR (5.5).
        let close: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert!(!claim_holds(&a, &close, Better::Lower));
        // Ties count for neither side.
        assert!(!claim_holds(&a, &a, Better::Lower));
    }
}
