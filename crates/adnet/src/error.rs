use std::error::Error;
use std::fmt;

/// Error type for invalid advertising-substrate arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum AdError {
    /// A targeting radius outside the supported range.
    InvalidRadius(f64),
    /// A bid price that must be positive and finite.
    InvalidBid(f64),
    /// A non-finite coordinate.
    NonFiniteLocation,
}

impl fmt::Display for AdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdError::InvalidRadius(v) => {
                write!(f, "targeting radius {v} must be positive and finite")
            }
            AdError::InvalidBid(v) => write!(f, "bid price {v} must be positive and finite"),
            AdError::NonFiniteLocation => write!(f, "location coordinates must be finite"),
        }
    }
}

impl Error for AdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in
            [AdError::InvalidRadius(-1.0), AdError::InvalidBid(0.0), AdError::NonFiniteLocation]
        {
            assert!(!e.to_string().is_empty());
        }
    }
}
