//! Small statistics and JSON helpers: percentiles, the error-rate
//! confidence bound, and the metric list the result line prints.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// The rank is `ceil(p/100 · n)`, so `percentile(xs, 50)` is a value of
/// the sample, never an interpolation.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample of floats, averaging the middle pair
/// of an even-sized one (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Client-side figures of a served run, each a median over windows of
/// the run. Windows in which the hypervisor stole clearly more CPU time
/// than in the calmest one are left out (see [`median_of_calm`]), so
/// another guest taking this one's CPUs for a few seconds moves no
/// figure.
pub struct Windowed {
    /// Median over equal time windows of completions per second.
    pub rate: f64,
    /// Median over the same windows of each window's p50 latency.
    pub p50: f64,
    /// Median over consecutive windows of at least [`P99_WINDOW`]
    /// completions of each window's p99 latency, so every p99 has at
    /// least ten samples beyond it. With fewer completions there is one
    /// window of all of them.
    pub p99: f64,
    /// How many p99 windows there were.
    pub p99_windows: usize,
}

/// Smallest sample a p99 is taken over.
pub const P99_WINDOW: usize = 1000;

/// How far above the calmest window's stolen share a window may be and
/// still count as calm. Calm stretches read under 0.5%; the bursts that
/// moved the figures read 5–20%.
const CALM_STEAL: f64 = 0.02;

/// Median of the values of the calm `(steal, value)` windows: those
/// whose stolen share is within [`CALM_STEAL`] of the least stolen one.
/// When fewer than a quarter of the windows are calm, the host was busy
/// throughout and every window counts.
fn median_of_calm(windows: &[(f64, f64)]) -> f64 {
    let least = windows.iter().map(|w| w.0).fold(f64::INFINITY, f64::min);
    let calm: Vec<f64> =
        windows.iter().filter(|w| w.0 <= least + CALM_STEAL).map(|w| w.1).collect();
    if calm.len() * 4 >= windows.len() {
        median(&calm)
    } else {
        median(&windows.iter().map(|w| w.1).collect::<Vec<_>>())
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
pub struct Done {
    /// When it completed, in seconds since the clients started.
    pub at_s: f64,
    pub latency_us: f64,
    /// Whether it completed with a correct answer. Failed requests
    /// count in the latencies but not in the rate.
    pub ok: bool,
}

/// Splits the requests completed in `[0, run_s)` into `time_windows`
/// equal time windows for rate and p50, and into consecutive count
/// windows for p99. `steal(a, b)` is the share of CPU time stolen
/// between `a` and `b` seconds. `None` when nothing completed in time.
pub fn windowed(
    samples: &[Done],
    run_s: f64,
    time_windows: usize,
    steal: impl Fn(f64, f64) -> f64,
) -> Option<Windowed> {
    let mut done: Vec<Done> = samples.iter().copied().filter(|d| d.at_s < run_s).collect();
    done.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let n = done.len();
    if n == 0 {
        return None;
    }
    let width = run_s / time_windows as f64;
    let mut buckets: Vec<(usize, Vec<f64>)> = vec![(0, Vec::new()); time_windows];
    for d in &done {
        let (completed, lat) = &mut buckets[((d.at_s / width) as usize).min(time_windows - 1)];
        *completed += usize::from(d.ok);
        lat.push(d.latency_us);
    }
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    for (i, (completed, b)) in buckets.iter_mut().enumerate() {
        let stolen = steal(i as f64 * width, (i + 1) as f64 * width);
        rates.push((stolen, *completed as f64 / width));
        b.sort_by(f64::total_cmp);
        if let Some(p50) = percentile(b, 50.0) {
            p50s.push((stolen, p50));
        }
    }
    let k = (n / P99_WINDOW).max(1);
    let p99s: Vec<(f64, f64)> = (0..k)
        .map(|i| {
            let w = &done[i * n / k..(i + 1) * n / k];
            let mut lat: Vec<f64> = w.iter().map(|d| d.latency_us).collect();
            lat.sort_by(f64::total_cmp);
            (steal(w[0].at_s, w[w.len() - 1].at_s), percentile(&lat, 99.0).unwrap_or(0.0))
        })
        .collect();
    Some(Windowed {
        rate: median_of_calm(&rates),
        p50: median_of_calm(&p50s),
        p99: median_of_calm(&p99s),
        p99_windows: k,
    })
}

/// Median of an unsorted sample of nanosecond durations, in the unit
/// `per_ns` nanoseconds make (1 for ns, 1000 for µs).
pub fn median_ns(values: &[u64], per_ns: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 50.0).map_or(0.0, |x| x as f64 / per_ns)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One-sided 95% Clopper–Pearson upper bound on the failure probability
/// after `failed` failures in `attempted` trials: the `p` at which
/// `P[X <= failed | attempted, p] = 0.05`. With no failures it is
/// `1 - 0.05^(1/attempted)`, about `3 / attempted`, so it is never 0 and
/// still falls as more requests succeed.
pub fn error_rate_upper(failed: u64, attempted: u64) -> f64 {
    const ALPHA: f64 = 0.05;
    if attempted == 0 || failed >= attempted {
        return 1.0;
    }
    if failed == 0 {
        return 1.0 - ALPHA.powf(1.0 / attempted as f64);
    }
    // The binomial CDF falls as p rises; bisect for the crossing.
    let cdf = |p: f64| -> f64 {
        let n = attempted as f64;
        let (lp, lq) = (p.ln(), (1.0 - p).ln());
        let mut log_pmf = n * lq; // i = 0
        let mut sum = log_pmf.exp();
        for i in 1..=failed {
            let i = i as f64;
            log_pmf += ((n - i + 1.0) / i).ln() + lp - lq;
            sum += log_pmf.exp();
        }
        sum
    };
    let (mut lo, mut hi) = (failed as f64 / attempted as f64, 1.0);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) > ALPHA {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object. Non-finite
    /// values cannot be JSON numbers; they print as `null`, which the
    /// caller treats as a failed run.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal (the strings here are plain ASCII names).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500));
        assert_eq!(percentile(&xs, 99.0), Some(990));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    fn done(at_s: f64, latency_us: f64) -> Done {
        Done { at_s, latency_us, ok: true }
    }

    #[test]
    fn windows_take_medians_and_keep_p99_samples() {
        // 10 s at 300/s, latency 100 except a slow half second (400),
        // which falls inside one time window and one p99 window.
        let samples: Vec<Done> = (0..3000)
            .map(|i| {
                let t = f64::from(i) / 300.0;
                done(t, if (5.0..5.5).contains(&t) { 400.0 } else { 100.0 })
            })
            .collect();
        let calm = |_: f64, _: f64| 0.0;
        let w = windowed(&samples, 10.0, 10, calm).unwrap();
        assert_eq!(w.rate, 300.0);
        assert_eq!(w.p50, 100.0, "one slow window does not move the median");
        assert_eq!(w.p99_windows, 3);
        assert_eq!(w.p99, 100.0);
        assert_eq!(windowed(&samples[..999], 10.0, 10, calm).unwrap().p99_windows, 1);
        assert!(windowed(&[], 10.0, 10, calm).is_none());
    }

    #[test]
    fn failures_count_in_latency_but_not_in_rate() {
        // 100/s for 10 s; every fourth request fails at the run's length.
        let samples: Vec<Done> = (0..1000)
            .map(|i| {
                let ok = i % 4 != 0;
                Done { at_s: f64::from(i) / 100.0, latency_us: if ok { 100.0 } else { 1e7 }, ok }
            })
            .collect();
        let w = windowed(&samples, 10.0, 10, |_, _| 0.0).unwrap();
        assert_eq!(w.rate, 75.0);
        assert_eq!((w.p50, w.p99), (100.0, 1e7));
    }

    #[test]
    fn stolen_windows_are_left_out() {
        // Latency 100, but 900 while the host steals (the first 6 s):
        // more than half of every kind of window is slow, yet the
        // figures come from the calm windows.
        let samples: Vec<Done> = (0..6000)
            .map(|i| {
                let t = f64::from(i) / 600.0;
                done(t, if t < 6.0 { 900.0 } else { 100.0 })
            })
            .collect();
        let steal = |a: f64, _: f64| if a < 6.0 { 0.2 } else { 0.0 };
        let w = windowed(&samples, 10.0, 10, steal).unwrap();
        assert_eq!((w.p50, w.p99), (100.0, 100.0));
    }

    #[test]
    fn error_bound_is_positive_and_monotone() {
        let zero = error_rate_upper(0, 1000);
        assert!((zero - 0.002_991).abs() < 1e-5, "rule of three: {zero}");
        let one = error_rate_upper(1, 1000);
        assert!(one > zero && (one - 0.004_735).abs() < 1e-4, "{one}");
        assert!(error_rate_upper(10, 1000) > one);
        assert_eq!(error_rate_upper(5, 5), 1.0);
    }
}
