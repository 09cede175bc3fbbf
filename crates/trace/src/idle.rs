//! Idle-gap extraction utilities.
//!
//! An **idle period** (Figure 1 of the paper) is the interval between
//! the completion of one disk access and the arrival of the next. These
//! helpers turn time-stamped access sequences into gap sequences and
//! classify them against the breakeven time; the simulator, predictors
//! and statistics all share them.

use pcap_types::{SimDuration, SimTime};

/// One idle gap: when it started and how long it lasted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleGap {
    /// Instant the device became idle (previous access completed).
    pub start: SimTime,
    /// Gap length (to the next access, or to `end` for the final gap).
    pub length: SimDuration,
    /// True if this is the trailing gap ending at run end rather than at
    /// another access.
    pub terminal: bool,
}

/// Extracts the idle gaps from a sorted sequence of access *completion*
/// times, with the run ending at `end`.
///
/// The gap after the last access (to `end`) is included and flagged
/// [`terminal`](IdleGap::terminal); a trailing gap of zero length is
/// omitted.
///
/// ```
/// use pcap_trace::idle::idle_gaps;
/// use pcap_types::{SimDuration, SimTime};
///
/// let completions = [1u64, 2, 10].map(SimTime::from_secs);
/// let gaps = idle_gaps(&completions, SimTime::from_secs(30));
/// assert_eq!(gaps.len(), 3);
/// assert_eq!(gaps[1].length, SimDuration::from_secs(8));
/// assert!(gaps[2].terminal);
/// ```
///
/// # Panics
///
/// Panics (in debug builds) if `times` is unsorted or extends past
/// `end`.
pub fn idle_gaps(times: &[SimTime], end: SimTime) -> Vec<IdleGap> {
    let mut gaps = Vec::with_capacity(times.len());
    for w in times.windows(2) {
        gaps.push(IdleGap {
            start: w[0],
            length: w[1] - w[0],
            terminal: false,
        });
    }
    if let Some(&last) = times.last() {
        debug_assert!(last <= end, "accesses extend past run end");
        let tail = end.saturating_since(last);
        if !tail.is_zero() {
            gaps.push(IdleGap {
                start: last,
                length: tail,
                terminal: true,
            });
        }
    }
    gaps
}

/// Counts the gaps longer than `breakeven` — the "idle periods long
/// enough to save energy by performing a shutdown" of Table 1.
pub fn count_opportunities(gaps: &[IdleGap], breakeven: SimDuration) -> usize {
    gaps.iter().filter(|g| g.length > breakeven).count()
}

/// Classification of a gap relative to the wait-window and breakeven
/// thresholds — the discretization used by idle-period histories
/// (PCAPh, §4.1.2) and the Learning Tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapClass {
    /// Shorter than the wait-window: filtered at run time, never enters
    /// histories.
    SubWindow,
    /// Longer than the wait-window but shorter than breakeven: history
    /// bit 0.
    Short,
    /// Longer than breakeven: history bit 1 — a shutdown opportunity.
    Long,
}

impl GapClass {
    /// Classifies a gap length.
    pub fn of(length: SimDuration, wait_window: SimDuration, breakeven: SimDuration) -> GapClass {
        if length > breakeven {
            GapClass::Long
        } else if length > wait_window {
            GapClass::Short
        } else {
            GapClass::SubWindow
        }
    }

    /// The history bit of this class, or `None` for sub-window gaps
    /// (which are excluded from histories).
    pub fn history_bit(self) -> Option<bool> {
        match self {
            GapClass::SubWindow => None,
            GapClass::Short => Some(false),
            GapClass::Long => Some(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_times_no_gaps() {
        assert!(idle_gaps(&[], secs(10)).is_empty());
    }

    #[test]
    fn single_access_terminal_gap_only() {
        let gaps = idle_gaps(&[secs(3)], secs(10));
        assert_eq!(gaps.len(), 1);
        assert!(gaps[0].terminal);
        assert_eq!(gaps[0].length, SimDuration::from_secs(7));
        assert_eq!(gaps[0].start, secs(3));
    }

    #[test]
    fn zero_length_terminal_gap_omitted() {
        let gaps = idle_gaps(&[secs(3)], secs(3));
        assert!(gaps.is_empty());
    }

    #[test]
    fn opportunities_use_strict_comparison() {
        let be = SimDuration::from_secs_f64(5.43);
        let gaps = idle_gaps(&[secs(0), secs(5), secs(12), secs(40)], secs(40));
        // Gaps: 5 s (no), 7 s (yes), 28 s (yes).
        assert_eq!(count_opportunities(&gaps, be), 2);
    }

    #[test]
    fn gap_classification() {
        let ww = SimDuration::from_secs(1);
        let be = SimDuration::from_secs_f64(5.43);
        assert_eq!(
            GapClass::of(SimDuration::from_millis(500), ww, be),
            GapClass::SubWindow
        );
        assert_eq!(
            GapClass::of(SimDuration::from_secs(3), ww, be),
            GapClass::Short
        );
        assert_eq!(
            GapClass::of(SimDuration::from_secs(20), ww, be),
            GapClass::Long
        );
        // Boundaries: exactly the wait-window is sub-window; exactly
        // breakeven is short (strict comparisons).
        assert_eq!(GapClass::of(ww, ww, be), GapClass::SubWindow);
        assert_eq!(GapClass::of(be, ww, be), GapClass::Short);
    }

    #[test]
    fn history_bits() {
        assert_eq!(GapClass::SubWindow.history_bit(), None);
        assert_eq!(GapClass::Short.history_bit(), Some(false));
        assert_eq!(GapClass::Long.history_bit(), Some(true));
    }
}
