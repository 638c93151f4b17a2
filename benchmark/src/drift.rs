//! Scores detected drifts against the generator's known switch points.
//!
//! Definitions follow the learner-based drift-detection survey
//! (PAPERS.md): a switch is *detected* by the first alarm raised
//! between it and the next switch, and its *delay* is that alarm's
//! distance in frames; every further alarm in the same regime, and any
//! alarm before the first switch, is a *false alarm*; a switch whose
//! regime ends without an alarm is *missed*.

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Score {
    /// Delay in frames of each detected switch, in switch order.
    pub delays: Vec<usize>,
    pub missed: usize,
    pub false_alarms: usize,
}

impl Score {
    pub fn merge(&mut self, other: Score) {
        self.delays.extend(other.delays);
        self.missed += other.missed;
        self.false_alarms += other.false_alarms;
    }
}

/// `switches` and `alarms` are ascending frame indices of one stream;
/// `end` is the stream length.
pub fn score(switches: &[usize], alarms: &[usize], end: usize) -> Score {
    let mut out = Score::default();
    let first = switches.first().copied().unwrap_or(end);
    out.false_alarms += alarms.iter().filter(|&&a| a < first).count();
    for (k, &switch) in switches.iter().enumerate() {
        let regime_end = switches.get(k + 1).copied().unwrap_or(end);
        let mut in_regime = alarms.iter().filter(|&&a| a >= switch && a < regime_end);
        match in_regime.next() {
            Some(&a) => out.delays.push(a - switch),
            None => out.missed += 1,
        }
        out.false_alarms += in_regime.count();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_switch_matches_its_first_alarm() {
        let s = score(&[100, 200, 300], &[130, 228, 331], 400);
        assert_eq!(s, Score { delays: vec![30, 28, 31], missed: 0, false_alarms: 0 });
    }

    #[test]
    fn a_regime_without_an_alarm_is_missed() {
        let s = score(&[100, 200, 300], &[130, 331], 400);
        assert_eq!(s, Score { delays: vec![30, 31], missed: 1, false_alarms: 0 });
        assert_eq!(score(&[10], &[], 50), Score { delays: vec![], missed: 1, false_alarms: 0 });
    }

    #[test]
    fn extra_and_early_alarms_are_false() {
        // 40: before any switch. 170: second alarm of the first regime.
        let s = score(&[100, 200], &[40, 130, 170, 200], 300);
        assert_eq!(s, Score { delays: vec![30, 0], missed: 0, false_alarms: 2 });
    }

    #[test]
    fn an_alarm_on_the_next_switch_belongs_to_the_next_regime() {
        let s = score(&[100, 200], &[200], 300);
        assert_eq!(s, Score { delays: vec![0], missed: 1, false_alarms: 0 });
    }

    #[test]
    fn scores_of_several_streams_add_up() {
        let mut a = score(&[10], &[15], 50);
        a.merge(score(&[20], &[5, 30], 50));
        assert_eq!(a, Score { delays: vec![5, 10], missed: 0, false_alarms: 1 });
    }
}
