//! Section timing, mirroring the paper's five-section profile
//! (pre-processing, broadcast parameters, create data, main kernel, compute
//! p-values).

use std::time::{Duration, Instant};

/// Accumulates wall-clock time into named sections.
///
/// Sections may be entered repeatedly; durations accumulate. The finished
/// profile preserves first-entry order so tables print in the paper's column
/// order.
#[derive(Debug)]
pub struct SectionTimer {
    sections: Vec<(String, Duration)>,
    current: Option<(usize, Instant)>,
}

impl Default for SectionTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl SectionTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        SectionTimer {
            sections: Vec::new(),
            current: None,
        }
    }

    fn index_of(&mut self, name: &str) -> usize {
        if let Some(i) = self.sections.iter().position(|(n, _)| n == name) {
            i
        } else {
            self.sections.push((name.to_string(), Duration::ZERO));
            self.sections.len() - 1
        }
    }

    /// Start (or resume) timing `name`, closing any currently open section.
    pub fn start(&mut self, name: &str) {
        self.stop();
        let idx = self.index_of(name);
        self.current = Some((idx, Instant::now()));
    }

    /// Close the currently open section, if any.
    pub fn stop(&mut self) {
        if let Some((idx, began)) = self.current.take() {
            self.sections[idx].1 += began.elapsed();
        }
    }

    /// Time the closure as section `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.start(name);
        let out = f();
        self.stop();
        out
    }

    /// Finish and return the accumulated profile.
    pub fn finish(mut self) -> SectionProfile {
        self.stop();
        SectionProfile {
            sections: self.sections,
        }
    }
}

/// An immutable map of section name → accumulated duration, in first-entry
/// order.
#[derive(Debug, Clone)]
pub struct SectionProfile {
    sections: Vec<(String, Duration)>,
}

impl SectionProfile {
    /// Duration of `name`, or zero if the section never ran.
    pub fn get(&self, name: &str) -> Duration {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .unwrap_or(Duration::ZERO)
    }

    /// Duration of `name` in seconds (zero if absent).
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).as_secs_f64()
    }

    /// Iterate sections in first-entry order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.sections.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// Sum of all sections.
    pub fn total(&self) -> Duration {
        self.sections.iter().map(|(_, d)| *d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn sections_accumulate_and_keep_order() {
        let mut t = SectionTimer::new();
        t.time("alpha", || sleep(Duration::from_millis(5)));
        t.time("beta", || sleep(Duration::from_millis(5)));
        t.time("alpha", || sleep(Duration::from_millis(5)));
        let p = t.finish();
        let names: Vec<_> = p.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert!(p.get("alpha") >= Duration::from_millis(10));
        assert!(p.get("beta") >= Duration::from_millis(5));
        assert!(p.get("alpha") > p.get("beta"));
    }

    #[test]
    fn missing_section_is_zero() {
        let p = SectionTimer::new().finish();
        assert_eq!(p.get("nothing"), Duration::ZERO);
        assert_eq!(p.seconds("nothing"), 0.0);
    }

    #[test]
    fn start_implicitly_closes_previous() {
        let mut t = SectionTimer::new();
        t.start("a");
        sleep(Duration::from_millis(3));
        t.start("b");
        sleep(Duration::from_millis(3));
        let p = t.finish();
        assert!(p.get("a") >= Duration::from_millis(3));
        assert!(p.get("b") >= Duration::from_millis(3));
        assert!(p.total() >= Duration::from_millis(6));
    }

    #[test]
    fn closure_result_passes_through() {
        let mut t = SectionTimer::new();
        let v = t.time("calc", || 40 + 2);
        assert_eq!(v, 42);
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut t = SectionTimer::new();
        t.stop();
        let p = t.finish();
        assert_eq!(p.total(), Duration::ZERO);
    }
}
