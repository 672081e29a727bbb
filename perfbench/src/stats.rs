//! The benchmark's own arithmetic: order statistics over latency samples,
//! and self time from span intervals.
//!
//! Everything here is pure so the unit tests at the bottom pin it down.

/// A latency sample: the measured value, or a failed operation. A failure
/// ranks beyond every measured value, so it counts as missing any latency
/// limit a percentile is compared against.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum Sample {
    /// A completed operation's latency.
    Ok(f64),
    /// A failed or refused operation.
    Failed,
}

impl Sample {
    fn key(self) -> f64 {
        match self {
            Sample::Ok(v) => v,
            Sample::Failed => f64::INFINITY,
        }
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `(0, 1]`). `None` for no samples.
/// The result is infinite when the rank falls on a failed operation.
pub fn percentile(samples: &[Sample], q: f64) -> Option<f64> {
    let mut keys: Vec<f64> = samples.iter().map(|s| s.key()).collect();
    keys.sort_by(f64::total_cmp);
    percentile_sorted(&keys, q)
}

/// The 1-based nearest rank of the `q` percentile among `n > 0` samples.
/// The product is rounded first: `0.99 * 1000.0` is not exactly 990 in
/// binary floating point, and its ceiling must not become 991.
fn rank(n: usize, q: f64) -> usize {
    let r = ((q * n as f64 * 1e9).round() / 1e9).ceil() as usize;
    r.clamp(1, n)
}

/// [`percentile`] over values already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// How many samples rank strictly beyond the `q` percentile: the count a
/// tail estimate rests on (the guides ask for at least ten).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of plain values (mean of the middle pair for even counts);
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A second of a serve window counts as quiet when the hypervisor stole
/// at most this share of the machine's CPU time in it. This VM-level
/// noise comes and goes over minutes; a stolen second's tail latency
/// reads up to four times a quiet one's, while the program's own work is
/// unchanged.
pub const QUIET_STEAL: f64 = 0.025;

/// The windows a run's figures are taken over, from each window's share
/// of CPU time the hypervisor stole (`None` where unknown): those with at
/// most `limit`, or, if fewer than `min` are, the `min` with the least
/// steal (earlier first on ties). With any share unknown, every window.
pub fn quiet_windows(steal: &[Option<f64>], limit: f64, min: usize) -> Vec<u64> {
    let all: Vec<u64> = (0..steal.len() as u64).collect();
    let Some(known) = steal.iter().copied().collect::<Option<Vec<f64>>>() else {
        return all;
    };
    let quiet: Vec<u64> = all
        .iter()
        .copied()
        .filter(|&w| known[w as usize] <= limit)
        .collect();
    if quiet.len() >= min.min(all.len()) {
        return quiet;
    }
    let mut by_steal = all;
    by_steal.sort_by(|a, b| known[*a as usize].total_cmp(&known[*b as usize]));
    by_steal.truncate(min);
    by_steal.sort_unstable();
    by_steal
}

/// The median over `windows` of each window's `q` percentile, from
/// `(window, sample)` pairs. A burst of stalls then moves one window's
/// figure, not the run's.
pub fn windowed_percentile(samples: &[(u64, Sample)], q: f64, windows: &[u64]) -> Option<f64> {
    let mut by_window: std::collections::BTreeMap<u64, Vec<Sample>> =
        windows.iter().map(|&w| (w, Vec::new())).collect();
    for &(w, s) in samples {
        if let Some(v) = by_window.get_mut(&w) {
            v.push(s);
        }
    }
    let per: Vec<f64> = by_window
        .values()
        .filter_map(|s| percentile(s, q))
        .collect();
    median(&per)
}

/// The median over `windows` (whole seconds) of the events completed in
/// each, from event times in seconds.
pub fn windowed_rate(times_s: &[f64], windows: &[u64]) -> Option<f64> {
    let mut counts: std::collections::BTreeMap<u64, f64> =
        windows.iter().map(|&w| (w, 0.0)).collect();
    for &t in times_s.iter().filter(|t| **t >= 0.0) {
        if let Some(c) = counts.get_mut(&(t.floor() as u64)) {
            *c += 1.0;
        }
    }
    median(&counts.into_values().collect::<Vec<_>>())
}

/// `num / base`, or 0 when the base is 0 (nothing attempted, nothing
/// wasted). Every fraction the benchmark prints goes through here, and
/// the metric registry names its base next to it.
pub fn frac(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// A half-open time interval `[start, end)` in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start, µs.
    pub start: f64,
    /// End, µs.
    pub end: f64,
}

impl Interval {
    /// The interval from `start` lasting `dur`.
    pub fn at(start: f64, dur: f64) -> Self {
        Self {
            start,
            end: start + dur.max(0.0),
        }
    }

    /// Length, µs.
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Length of the part of `parent` covered by the union of `children`.
/// Children may nest, overlap each other (spans on other threads), or
/// stick out of the parent; only the covered part inside it counts.
pub fn covered(parent: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One span: the layer it belongs to and the time it covers. Threads do
/// not matter for attribution: a span on a worker lane covers wall time
/// just as one on the calling thread does.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (the trace category).
    pub layer: String,
    /// Time covered.
    pub at: Interval,
}

/// Split `window` into per-layer self times. Each instant goes to the
/// first layer in `priority` (innermost first) with a span covering it,
/// so a layer's self time is the wall time it covers minus what the
/// layers it calls cover — the span-tree self time, extended to children
/// on other threads, which may overlap each other. Spans of layers not in
/// `priority` are ignored. Returns the self time per `priority` entry and
/// the unattributed remainder; together they add up to the window.
pub fn layer_self_times(window: Interval, spans: &[Span], priority: &[&str]) -> (Vec<f64>, f64) {
    let mut inner: Vec<Interval> = Vec::new();
    let mut done = 0.0;
    let mut out = Vec::with_capacity(priority.len());
    for layer in priority {
        inner.extend(spans.iter().filter(|s| s.layer == *layer).map(|s| s.at));
        let now = covered(window, &inner);
        out.push(now - done);
        done = now;
    }
    (out, window.len() - done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(v: &[f64]) -> Vec<Sample> {
        v.iter().map(|&x| Sample::Ok(x)).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ok(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        // Order of input does not matter.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.99), Some(99.0));
        assert_eq!(percentile(&ok(&[7.0]), 0.99), Some(7.0));
        // 0.99 * 1000 is 990.0000000000001 in f64: the rank must stay 990.
        let s = ok(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_rank_beyond_every_latency() {
        let mut s = ok(&(1..=99).map(f64::from).collect::<Vec<_>>());
        s.push(Sample::Failed);
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(f64::INFINITY));
        s.push(Sample::Failed);
        // 2 of 101 failed: the p99 rank (100) now lands on a failure.
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(1, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn windowed_figures_take_the_median_window() {
        // Three windows; the middle one has a burst of slow requests.
        let mut s: Vec<(u64, Sample)> = Vec::new();
        for w in 0..3u64 {
            for i in 1..=100 {
                let slow = if w == 1 { 100.0 } else { 1.0 };
                s.push((w, Sample::Ok(f64::from(i) * slow)));
            }
        }
        assert_eq!(windowed_percentile(&s, 0.99, &[0, 1, 2]), Some(99.0));
        assert_eq!(
            percentile(&s.iter().map(|x| x.1).collect::<Vec<_>>(), 0.99),
            Some(9700.0)
        );
        // Only the chosen windows count.
        assert_eq!(windowed_percentile(&s, 0.99, &[1]), Some(9900.0));
        assert_eq!(windowed_percentile(&[], 0.99, &[0]), None);
        // Events outside the chosen windows and before 0 are not counted;
        // a chosen window without events counts as 0.
        let t = [0.1, 0.5, 1.2, 1.3, 1.4, 2.9, 3.5, -0.1];
        assert_eq!(windowed_rate(&t, &[0, 1, 2]), Some(2.0));
        assert_eq!(windowed_rate(&t, &[1]), Some(3.0));
        assert_eq!(windowed_rate(&t, &[1, 7, 8]), Some(0.0));
        assert_eq!(windowed_rate(&t, &[]), None);
    }

    #[test]
    fn quiet_windows_skip_stolen_seconds() {
        let steal = [Some(0.0), Some(0.3), Some(0.01), Some(0.2), Some(0.0)];
        assert_eq!(quiet_windows(&steal, 0.025, 2), vec![0, 2, 4]);
        // Too few quiet windows: the least-stolen ones, in time order.
        assert_eq!(quiet_windows(&steal, 0.0, 4), vec![0, 2, 3, 4]);
        // More asked for than there are: all of them.
        assert_eq!(quiet_windows(&steal, 0.0, 9), vec![0, 1, 2, 3, 4]);
        // Unknown steal: every window.
        let unknown = [Some(0.5), None, Some(0.5)];
        assert_eq!(quiet_windows(&unknown, 0.025, 2), vec![0, 1, 2]);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fractions_of_an_empty_base_are_zero() {
        assert_eq!(frac(3.0, 4.0), 0.75);
        assert_eq!(frac(0.0, 0.0), 0.0);
        assert_eq!(frac(5.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let parent = Interval::at(0.0, 100.0);
        let kids = [Interval::at(10.0, 20.0), Interval::at(50.0, 30.0)];
        assert_eq!(parent.len() - covered(parent, &kids), 50.0);
        assert_eq!(parent.len() - covered(parent, &[]), 100.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two worker threads' spans overlap each other inside the parent.
        let parent = Interval::at(0.0, 100.0);
        let kids = [
            Interval::at(10.0, 40.0), // 10..50
            Interval::at(30.0, 40.0), // 30..70, overlaps the first
            Interval::at(60.0, 5.0),  // 60..65, inside the second
        ];
        assert_eq!(covered(parent, &kids), 60.0);
        assert_eq!(parent.len() - covered(parent, &kids), 40.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = Interval::at(100.0, 100.0);
        let kids = [Interval::at(50.0, 100.0), Interval::at(190.0, 50.0)];
        assert_eq!(covered(parent, &kids), 60.0);
        assert_eq!(parent.len() - covered(parent, &kids), 40.0);
        // A child covering the whole parent leaves no self time.
        assert_eq!(
            parent.len() - covered(parent, &[Interval::at(0.0, 1000.0)]),
            0.0
        );
    }

    fn span(layer: &str, start: f64, dur: f64) -> Span {
        Span {
            layer: layer.into(),
            at: Interval::at(start, dur),
        }
    }

    #[test]
    fn layers_take_the_time_their_callees_leave() {
        // A round (0..100) on the calling thread: a wrapper span around
        // the batch call, two worker lanes simulating inside it with
        // overlapping spans, then power and thermal calls, each nested in
        // the benchmark's wrapper span of the same layer.
        let window = Interval::at(0.0, 100.0);
        let spans = [
            span("uarch", 0.0, 60.0),  // wrapper on the calling thread
            span("batch", 2.0, 50.0),  // lane 0: 2..52
            span("batch", 5.0, 53.0),  // lane 1: 5..58, overlaps lane 0
            span("power", 60.0, 10.0), // wrapper 60..70
            span("power", 61.0, 8.0),  // in-program span inside it
            span("thermal", 70.0, 25.0),
            span("unlisted", 0.0, 100.0),
        ];
        let (selfs, rest) =
            layer_self_times(window, &spans, &["batch", "uarch", "power", "thermal"]);
        assert_eq!(selfs, vec![56.0, 4.0, 10.0, 25.0]);
        assert_eq!(rest, 5.0);
        assert_eq!(selfs.iter().sum::<f64>() + rest, window.len());
    }
}
