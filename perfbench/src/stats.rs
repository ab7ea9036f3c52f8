//! Sample statistics with the benchmark's honesty rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — p99 needs at
/// least 1000 samples, p50 at least 20.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an unsorted slice (mean of the middle pair when even);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a slice; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One latency sample: when the request completed (seconds since its
/// phase started) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_s: f64,
    pub latency_ms: f64,
}

/// A phase's latency and throughput, summarised as the median over
/// equal-count windows of its completions (ordered by completion time)
/// so one burst of host interference moves one window, not the figure.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Completions in the phase.
    pub n: usize,
    /// Windows the medians are taken over.
    pub windows: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Completions per second.
    pub rps: f64,
}

/// Largest window count whose every window can still report p99
/// honestly, capped at `max_windows`; `None` when even the whole phase
/// cannot.
pub fn window_count(n: usize, max_windows: usize) -> Option<usize> {
    let per_window = 100 * MIN_BEYOND;
    (n >= per_window).then(|| (n / per_window).clamp(1, max_windows.max(1)))
}

/// Summarise `samples` over up to `max_windows` windows. Errors when
/// the phase is too small for an honest p99.
pub fn summarise(samples: &[Sample], max_windows: usize) -> Result<PhaseSummary, String> {
    let n = samples.len();
    let k = window_count(n, max_windows)
        .ok_or_else(|| format!("{n} completions cannot support an honest p99 (need 1000)"))?;
    let mut by_done = samples.to_vec();
    by_done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let (mut p50s, mut p99s, mut rates) = (vec![], vec![], vec![]);
    for w in 0..k {
        let (lo, hi) = (w * n / k, (w + 1) * n / k);
        let win = &by_done[lo..hi];
        // Window span: from the previous window's last completion (or
        // the phase start) to this window's last completion.
        let start = if lo == 0 { 0.0 } else { by_done[lo - 1].done_s };
        let span = (win[win.len() - 1].done_s - start).max(1e-9);
        let mut lat: Vec<f64> = win.iter().map(|s| s.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        p50s.push(percentile(&lat, 0.50).expect("window holds ≥ 1000 samples"));
        p99s.push(percentile(&lat, 0.99).expect("window holds ≥ 1000 samples"));
        rates.push(win.len() as f64 / span);
    }
    Ok(PhaseSummary {
        n,
        windows: k,
        p50_ms: median(&p50s),
        p99_ms: median(&p99s),
        rps: median(&rates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None, "only 9 beyond");
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None, "only 9 beyond");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windows_keep_every_p99_honest() {
        assert_eq!(window_count(999, 5), None);
        assert_eq!(window_count(1000, 5), Some(1));
        assert_eq!(window_count(2999, 5), Some(2));
        assert_eq!(window_count(1_000_000, 5), Some(5));
        let samples: Vec<Sample> = (0..2000)
            .map(|i| Sample {
                done_s: i as f64 / 1000.0,
                latency_ms: (i % 100) as f64,
            })
            .collect();
        let s = summarise(&samples, 5).unwrap();
        assert_eq!(s.windows, 2);
        assert_eq!(s.p50_ms, 49.0);
        assert_eq!(s.p99_ms, 98.0);
        assert!((s.rps - 1000.0).abs() < 1.0, "rate {}", s.rps);
        assert!(summarise(&samples[..999], 5).is_err());
    }
}
