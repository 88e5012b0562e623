use serde::{Deserialize, Serialize};

/// Seconds per day.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// Length of the paper's observation window: June 1 2019 to May 31 2021,
/// 731 days (2020 was a leap year).
pub const DAYS_IN_STUDY: i64 = 731;

/// A timestamp measured in seconds since the study epoch
/// (June 1 2019 00:00 local time — a Saturday).
///
/// # Examples
///
/// ```
/// use privlocad_mobility::{Timestamp, SECONDS_PER_DAY};
///
/// let t = Timestamp::new(2 * SECONDS_PER_DAY + 9 * 3600);
/// assert_eq!(t.day(), 2);      // June 3 2019
/// assert_eq!(t.hour(), 9);
/// assert!(t.is_weekday());     // a Monday
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(i64);

/// Day-of-week offset of the study epoch: June 1 2019 was a Saturday
/// (0 = Monday … 6 = Sunday).
const EPOCH_DOW: i64 = 5;

impl Timestamp {
    /// Creates a timestamp from seconds since the study epoch.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative.
    pub fn new(seconds: i64) -> Self {
        assert!(seconds >= 0, "timestamp must not precede the study epoch");
        Timestamp(seconds)
    }

    /// Builds a timestamp from a study day and a time of day.
    ///
    /// # Panics
    ///
    /// Panics if `hour ≥ 24`, `minute ≥ 60` or `second ≥ 60`.
    pub fn from_day_time(day: i64, hour: u8, minute: u8, second: u8) -> Self {
        assert!(hour < 24 && minute < 60 && second < 60, "invalid time of day");
        Timestamp::new(
            day * SECONDS_PER_DAY + hour as i64 * 3_600 + minute as i64 * 60 + second as i64,
        )
    }

    /// Seconds since the study epoch.
    #[inline]
    pub fn seconds(self) -> i64 {
        self.0
    }

    /// Zero-based study day (day 0 = June 1 2019).
    #[inline]
    pub fn day(self) -> i64 {
        self.0 / SECONDS_PER_DAY
    }

    /// Hour of day, 0–23.
    #[inline]
    pub fn hour(self) -> u8 {
        ((self.0 % SECONDS_PER_DAY) / 3_600) as u8
    }

    /// Day of week, 0 = Monday … 6 = Sunday.
    #[inline]
    fn day_of_week(self) -> u8 {
        ((self.day() + EPOCH_DOW) % 7) as u8
    }

    /// Returns `true` Monday through Friday.
    #[inline]
    pub fn is_weekday(self) -> bool {
        self.day_of_week() < 5
    }

    /// Returns `true` during typical working hours (09:00–18:59) on a
    /// weekday — the window the generator assigns to workplace check-ins,
    /// and the oracle its tests check them against.
    #[cfg(test)]
    pub(crate) fn is_working_hours(self) -> bool {
        self.is_weekday() && (9..19).contains(&self.hour())
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "day {} {:02}:{:02}", self.day(), self.hour(), (self.0 % 3_600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero_saturday() {
        let t = Timestamp::new(0);
        assert_eq!(t.day(), 0);
        assert_eq!(t.hour(), 0);
        assert_eq!(t.day_of_week(), 5);
        assert!(!t.is_weekday());
    }

    #[test]
    fn weekday_cycle() {
        // Days 0..6 = Sat, Sun, Mon, Tue, Wed, Thu, Fri.
        let dows: Vec<u8> =
            (0..7).map(|d| Timestamp::from_day_time(d, 12, 0, 0).day_of_week()).collect();
        assert_eq!(dows, vec![5, 6, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn working_hours_window() {
        let monday_10am = Timestamp::from_day_time(2, 10, 0, 0);
        assert!(monday_10am.is_working_hours());
        let monday_8am = Timestamp::from_day_time(2, 8, 0, 0);
        assert!(!monday_8am.is_working_hours());
        let saturday_noon = Timestamp::from_day_time(0, 12, 0, 0);
        assert!(!saturday_noon.is_working_hours());
        let monday_7pm = Timestamp::from_day_time(2, 19, 0, 0);
        assert!(!monday_7pm.is_working_hours());
    }

    #[test]
    fn ordering_follows_time() {
        let a = Timestamp::from_day_time(1, 0, 0, 0);
        let b = Timestamp::from_day_time(1, 0, 0, 1);
        assert!(a < b);
    }

    #[test]
    fn from_day_time_round_trip() {
        let t = Timestamp::from_day_time(100, 23, 59, 59);
        assert_eq!(t.day(), 100);
        assert_eq!(t.hour(), 23);
        assert_eq!(t.seconds(), 100 * SECONDS_PER_DAY + 86_399);
    }

    #[test]
    #[should_panic(expected = "invalid time of day")]
    fn rejects_bad_hour() {
        let _ = Timestamp::from_day_time(0, 24, 0, 0);
    }

    #[test]
    #[should_panic(expected = "must not precede")]
    fn rejects_negative_seconds() {
        let _ = Timestamp::new(-1);
    }

    #[test]
    fn study_window_is_two_years() {
        assert_eq!(DAYS_IN_STUDY, 731);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_day_time(3, 7, 5, 0);
        assert_eq!(t.to_string(), "day 3 07:05");
    }
}
