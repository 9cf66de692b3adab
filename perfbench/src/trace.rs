//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the repository's public
//! functions, from the benchmark's own code. Each span keeps its parent,
//! so a layer's self time is its busy time minus the part its children
//! cover. The spans are written out once, as a Chrome trace, through
//! `mealib_obs::Profile`.

use std::collections::BTreeMap;
use std::time::Instant;

use mealib_obs::profile::ChromeTraceSummary;
use mealib_obs::{validate_chrome_trace, Phase, Profile};
use mealib_types::Seconds;

/// One closed span: host wall time, in seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<crate>.<module>.<call>`; spans of one layer share it.
    pub name: &'static str,
    /// Display label (the name plus an instance tag such as the epoch).
    pub label: String,
    /// Category in the exported trace.
    pub phase: Phase,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Host seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans; the innermost open span is the parent of the
/// next one begun.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in host seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        phase: Phase,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            label: label.into(),
            phase,
            parent,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Every closed span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time per layer name: the summed duration of its spans.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time per layer name: busy time minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.duration();
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= s.duration();
            }
        }
        out
    }

    /// Summed duration of the spans that have no child span. Leaves
    /// never overlap, so this is at most the wall time traced.
    pub fn leaf_busy(&self) -> f64 {
        let mut parent = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                parent[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(parent)
            .filter(|(_, is_parent)| !is_parent)
            .map(|(s, _)| s.duration())
            .sum()
    }

    /// Renders the spans as a Chrome trace through
    /// [`Profile::to_chrome_trace`] and validates it with
    /// [`validate_chrome_trace`], which rejects any span that overlaps
    /// its parent only partly.
    pub fn chrome_trace(&self) -> Result<(String, ChromeTraceSummary), String> {
        let mut profile = Profile::new();
        for s in &self.spans {
            profile.interval(
                "perfbench",
                s.phase,
                &s.label,
                Seconds::new(s.start),
                Seconds::new(s.duration()),
            );
        }
        let doc = profile.to_chrome_trace();
        let summary = validate_chrome_trace(&doc)?;
        Ok((doc, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        let (_, outer) = t.span("a.outer", "outer", Phase::Compute, |t| {
            t.span("a.inner", "inner", Phase::Verify, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        let selfs = t.self_times();
        let inner = t.busy("a.inner");
        assert!(inner >= 0.002);
        assert!((selfs["a.outer"] - (outer - inner)).abs() < 1e-12);
        let (_, summary) = t.chrome_trace().expect("nested spans validate");
        assert_eq!(summary.spans, 2);
    }
}
