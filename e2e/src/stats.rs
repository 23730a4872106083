//! Small statistics and process-accounting helpers.

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// value with at least `p` percent of the samples at or below it.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    let at = rank.clamp(1, samples.len()) - 1;
    f64::from(*samples.select_nth_unstable(at).1)
}

/// The duration an eighth of the way in from the fast end of `values`
/// (nearest rank): what a repeated unit of work takes while the box is
/// quiet. For the traced run's single-pass phases only.
pub fn quiet(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 8]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds the live threads of this process have run, to the
/// nanosecond (`/proc/self/task/*/schedstat`). For differences across
/// a phase in which no thread exits.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let on_cpu_ns = tasks.flatten().filter_map(|task| {
        let schedstat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        schedstat.split_whitespace().next()?.parse::<f64>().ok()
    });
    on_cpu_ns.sum::<f64>() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_vector_oracle() {
        let mut rng = crate::gen::SplitMix64::new(5);
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u32> = (0..len).map(|_| rng.below(500) as u32).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                // Oracle: count, don't index — the smallest value that
                // at least p % of the samples do not exceed.
                let need = (p / 100.0 * len as f64).ceil().max(1.0) as usize;
                let oracle = *sorted
                    .iter()
                    .find(|&&v| sorted.iter().filter(|&&w| w <= v).count() >= need)
                    .unwrap();
                assert_eq!(
                    percentile(&mut samples.clone(), p),
                    f64::from(oracle),
                    "len={len} p={p}"
                );
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_is_an_eighth_in_from_the_fast_end() {
        let v: Vec<f64> = (1..=32).rev().map(f64::from).collect();
        assert_eq!(quiet(&v), 5.0);
        assert_eq!(quiet(&[5.0, 4.0, 9.0]), 4.0);
        assert_eq!(quiet(&[5.0]), 5.0);
    }

    #[test]
    fn process_accounting_reads_something() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
