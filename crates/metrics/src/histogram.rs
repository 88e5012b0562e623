//! Equal-width histograms for utility distributions.
//!
//! Fig. 7 of the paper plots the *distribution* of the utilization rate
//! per mechanism, not just a point estimate; this histogram renders those
//! distributions in the text harness and feeds the CSV output.

use serde::{Deserialize, Serialize};

/// An equal-width histogram over a fixed range.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4)?;
/// for x in [0.1, 0.2, 0.6, 0.9, 0.95] {
///     h.add(x);
/// }
/// assert_eq!(h.counts(), &[2, 0, 1, 2]);
/// assert_eq!(h.total(), 5);
/// # Ok::<(), privlocad_metrics::histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

/// Error constructing a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// `min` was not strictly below `max`, or a bound was not finite.
    InvalidRange,
    /// Zero bins requested.
    NoBins,
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramError::InvalidRange => {
                write!(f, "histogram range must be finite and non-empty")
            }
            HistogramError::NoBins => write!(f, "histogram needs at least one bin"),
        }
    }
}

impl std::error::Error for HistogramError {}

impl Histogram {
    /// Creates an empty histogram over `[min, max]` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError`] for an empty or non-finite range, or
    /// zero bins.
    pub fn new(min: f64, max: f64, bins: usize) -> Result<Self, HistogramError> {
        if !min.is_finite() || !max.is_finite() || min >= max {
            return Err(HistogramError::InvalidRange);
        }
        if bins == 0 {
            return Err(HistogramError::NoBins);
        }
        Ok(Histogram { min, max, counts: vec![0; bins], below: 0, above: 0 })
    }

    /// Adds one observation. Values outside the range land in the
    /// underflow/overflow counters; the range maximum belongs to the last
    /// bin.
    pub fn add(&mut self, x: f64) {
        if x < self.min {
            self.below += 1;
            return;
        }
        if x > self.max {
            self.above += 1;
            return;
        }
        let width = (self.max - self.min) / self.counts.len() as f64;
        let idx = (((x - self.min) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Builds a histogram directly from a sample.
    ///
    /// # Errors
    ///
    /// Same as [`Histogram::new`].
    pub fn of(values: &[f64], min: f64, max: f64, bins: usize) -> Result<Self, HistogramError> {
        let mut h = Histogram::new(min, max, bins)?;
        h.extend(values.iter().copied());
        Ok(h)
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// All observations seen, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.below + self.above
    }

    /// A compact sparkline-style rendering, one character per bin.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return LEVELS[0].to_string().repeat(self.counts.len());
        }
        self.counts
            .iter()
            .map(|&c| LEVELS[((c as f64 / max as f64) * 7.0).round() as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert_eq!(Histogram::new(1.0, 1.0, 4), Err(HistogramError::InvalidRange));
        assert_eq!(Histogram::new(2.0, 1.0, 4), Err(HistogramError::InvalidRange));
        assert_eq!(Histogram::new(f64::NAN, 1.0, 4), Err(HistogramError::InvalidRange));
        assert_eq!(Histogram::new(0.0, 1.0, 0), Err(HistogramError::NoBins));
    }

    #[test]
    fn binning_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(0.0); // first bin (inclusive lower edge)
        h.add(0.499); // first bin
        h.add(0.5); // second bin
        h.add(1.0); // max belongs to the last bin
        assert_eq!(h.counts(), &[2, 2]);
        assert_eq!((h.below, h.above), (0, 0));
    }

    #[test]
    fn out_of_range_counted_separately() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-0.1);
        h.add(1.1);
        h.add(0.5);
        assert_eq!((h.below, h.above), (1, 1));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn empty_histogram_fractions_and_sparkline() {
        let h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert_eq!(h.sparkline().chars().count(), 3);
    }

    #[test]
    fn sparkline_highlights_the_mode() {
        let h = Histogram::of(&[0.9, 0.95, 0.99, 0.91, 0.1], 0.0, 1.0, 10).unwrap();
        let s: Vec<char> = h.sparkline().chars().collect();
        assert_eq!(s.len(), 10);
        assert_eq!(s[9], '█');
    }
}
