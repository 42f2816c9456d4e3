//! The benchmark's arithmetic: medians and quartiles, span self time,
//! and the two-set comparison rule.

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// spreads computed here match a reader's check with that function.
/// One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of an empty set");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative at the ends of short lists: Python extrapolates there.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// The median (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    assert!(k > 0, "median of an empty set");
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Self time of each span: its duration minus the durations of its
/// direct children. `spans` holds `(parent index, duration)`, parents
/// before children.
pub fn self_times(spans: &[(Option<usize>, f64)]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|&(_, d)| d).collect();
    for &(parent, d) in spans {
        if let Some(p) = parent {
            own[p] -= d;
        }
    }
    own
}

/// Simulated nanoseconds advanced per host second.
pub fn sim_ns_per_host_s(sim_ns: u64, wall_s: f64) -> f64 {
    sim_ns as f64 / wall_s
}

/// Failed cells as a share of cells attempted.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether the metric improves upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The comparison of one metric between a base set of runs and a
/// changed set: a gain needs nine tenths of the paired runs and a median
/// shift larger than the base's interquartile distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub base: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Share of index-paired runs the change wins (ties win for neither).
    pub win_share: f64,
    pub verdict: &'static str,
}

/// Compares two sets of runs of one metric. `bound` is the share of the
/// base median by which the metric may worsen (`None` for per-layer
/// metrics, which have no bound).
pub fn compare(base: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Comparison {
    let bq = quartiles(base);
    let cq = quartiles(change);
    let wins = |c: f64, b: f64| match better {
        Better::Higher => c > b,
        Better::Lower => c < b,
    };
    let pairs = base.len().min(change.len());
    let won = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| wins(c, b))
        .count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        won as f64 / pairs as f64
    };
    let base_iqr = bq.2 - bq.0;
    let diff = cq.1 - bq.1;
    let all_better = change.iter().all(|&c| base.iter().all(|&b| wins(c, b)));
    let worse_by = match better {
        Better::Higher => -diff,
        Better::Lower => diff,
    } / bq.1.abs().max(f64::MIN_POSITIVE);
    let verdict = if win_share >= 0.9 && diff.abs() > base_iqr && wins(cq.1, bq.1) {
        "better"
    } else if bound.is_some_and(|b| spread(base) > b || spread(change) > b) && !all_better {
        "unresolved"
    } else if bound.is_some_and(|b| worse_by > b) {
        "worse"
    } else if bound.is_none() && diff != 0.0 {
        "moved"
    } else {
        "no change"
    };
    Comparison {
        base: bq,
        change: cq,
        win_share,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // root 10 s ⊃ {a 3 s ⊃ {c 1 s}, b 4 s}
        let spans = [(None, 10.0), (Some(0), 3.0), (Some(0), 4.0), (Some(1), 1.0)];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 4.0, 1.0]);
        // Self times add back up to the root span.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn throughput_and_fail_share() {
        assert_eq!(sim_ns_per_host_s(2_000_000_000, 4.0), 5e8);
        assert_eq!(fail_share(0, 16), 0.0);
        assert_eq!(fail_share(4, 16), 0.25);
        assert_eq!(fail_share(0, 0), 1.0, "nothing attempted is a failure");
    }

    #[test]
    fn comparison_follows_the_win_share_and_spread_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // Every run 20% faster: a gain.
        let fast: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let c = compare(&base, &fast, Better::Lower, Some(0.05));
        assert_eq!(c.win_share, 1.0);
        assert_eq!(c.verdict, "better");
        // Same numbers: no change, no wins.
        let c = compare(&base, &base, Better::Lower, Some(0.05));
        assert_eq!((c.win_share, c.verdict), (0.0, "no change"));
        // 10% slower with a 5% bound: worse.
        let slow: Vec<f64> = base.iter().map(|b| b * 1.1).collect();
        assert_eq!(
            compare(&base, &slow, Better::Lower, Some(0.05)).verdict,
            "worse"
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            compare(&base, &slow, Better::Higher, Some(0.05)).verdict,
            "better"
        );
        // A spread wider than the bound cannot be resolved.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            compare(&noisy, &base, Better::Lower, Some(0.05)).verdict,
            "unresolved"
        );
        // Unbounded (per-layer) metrics only report movement.
        assert_eq!(compare(&base, &slow, Better::Lower, None).verdict, "moved");
    }
}
