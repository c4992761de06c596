//! Correctness accounting: every output the benchmark times is compared
//! with the event-driven reference, and every mismatch or engine error is
//! counted as a failed attempt.

use gatspi_wave::saif::SaifDocument;

/// Attempted and failed output checks of one invocation.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Outputs checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Outputs that failed their check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks ÷ attempted checks (0 before any attempt).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Records one check; `problems` empty means it passed.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if let Some(first) = problems.first() {
            self.failed += 1;
            eprintln!(
                "check failed: {what}: {} problem(s), first: {first}",
                problems.len()
            );
        }
    }

    /// Checks a SAIF document against the reference.
    pub fn saif(&mut self, what: &str, doc: &SaifDocument, reference: &SaifDocument) {
        self.record(what, &doc.diff(reference));
    }

    /// Checks written SAIF text: it must parse and match the reference.
    pub fn saif_text(&mut self, what: &str, text: &str, reference: &SaifDocument) {
        match SaifDocument::parse(text) {
            Ok(doc) => self.saif(what, &doc, reference),
            Err(e) => self.record(what, &[format!("unparsable SAIF: {e}")]),
        }
    }

    /// Unwraps an engine result, counting an error as a failed attempt.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.record(what, &[e.to_string()]);
                None
            }
        }
    }
}
