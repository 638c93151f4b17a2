//! Event severity.
//!
//! Components emit events through
//! [`Registry::event`](crate::registry::Registry::event), which stamps
//! them into the flight recorder and echoes warnings and errors to
//! stderr. [`Level`] orders them.

/// Severity of an event, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Fine-grained diagnostics (per-frame decisions).
    Debug,
    /// Normal lifecycle milestones (model installed, snapshot written).
    Info,
    /// Degraded but recoverable conditions (restore fell back to cold
    /// start).
    Warn,
    /// Failures that lost work (snapshot or WAL write failed).
    Error,
}

impl Level {
    /// Lower-case name used in renders and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Compact integer tag for persistence.
    pub fn tag(self) -> u8 {
        match self {
            Level::Debug => 0,
            Level::Info => 1,
            Level::Warn => 2,
            Level::Error => 3,
        }
    }

    /// Inverse of [`Level::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            3 => Level::Error,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn level_tags_roundtrip() {
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::from_tag(level.tag()), Some(level));
        }
        assert_eq!(Level::from_tag(200), None);
    }
}
